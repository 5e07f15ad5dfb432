import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranpower import beamform, env, gbdt
from cranpower.beamform import (
    BeamformingProblem,
    BeamformingSolution,
    SolutionStatus,
    SolverFailure,
    SolverParams,
    sinr_targets,
    solve_beamforming,
    solve_states,
    verify_solution,
)
from cranpower.env import ExactSolverReward, SurrogateReward
from cranpower.gbdt import GbdtModel, GbdtParams
from cranpower.netmodel import ChannelRealization, NetworkConfig, sample_channel


def random_channel(num_rrhs, num_users, seed):
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(num_rrhs=num_rrhs, num_users=num_users)
    return cfg, sample_channel(cfg, rng)


def make_problem(channel_matrix, iota, caps=np.inf, noise=10 ** -13.2):
    channel_matrix = np.asarray(channel_matrix, dtype=complex)
    return BeamformingProblem(
        active_set=np.arange(channel_matrix.shape[0]),
        channel=channel_matrix,
        sinr_targets=np.asarray(iota, dtype=float),
        per_rrh_cap_w=caps,
        noise_w=noise,
    )


class TestSinrTargets:
    def test_twenty_mbps(self, table1_config):
        iota, mu = sinr_targets([20.0], table1_config)
        assert iota[0] == pytest.approx(3.0, rel=1e-12)
        assert mu[0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_zero_demand(self, table1_config):
        iota, mu = sinr_targets([0.0], table1_config)
        assert iota[0] == 0.0
        assert mu[0] == np.inf

    def test_forty_mbps(self, table1_config):
        iota, _ = sinr_targets([40.0], table1_config)
        assert iota[0] == pytest.approx(15.0, rel=1e-12)

    def test_negative_demand_rejected(self, table1_config):
        with pytest.raises(ValueError):
            sinr_targets([-1.0], table1_config)

    def test_strictly_increasing(self, table1_config, rng):
        iota, _ = sinr_targets(np.sort(rng.uniform(0, 100, 50)), table1_config)
        assert np.all(np.diff(iota) > 0)


class TestSingleUser:
    def test_matches_analytic_optimum(self):
        noise = 10 ** -13.2
        for seed in range(20):
            _, ch = random_channel(4, 1, seed)
            h = ch.gains[:, 0]
            iota = 3.0 + 12.0 * (seed / 20.0)
            problem = make_problem(ch.gains, [iota], noise=noise)
            sol = solve_beamforming(problem)
            expected = iota * noise / np.sum(np.abs(h) ** 2)
            assert sol.status is SolutionStatus.FEASIBLE
            assert sol.total_tx_w == pytest.approx(expected, rel=1e-9)

    def test_weights_proportional_to_conjugate_channel(self):
        _, ch = random_channel(3, 1, 77)
        problem = make_problem(ch.gains, [5.0])
        sol = solve_beamforming(problem)
        w = sol.weights[:, 0]
        ref = np.conj(ch.gains[:, 0])
        # Collinear up to a complex scalar.
        cosine = np.abs(np.vdot(ref, w)) / (np.linalg.norm(ref) * np.linalg.norm(w))
        assert cosine == pytest.approx(1.0, abs=1e-9)

    def test_cap_violation_detected(self):
        _, ch = random_channel(2, 1, 5)
        noise = 10 ** -13.2
        h2 = np.sum(np.abs(ch.gains[:, 0]) ** 2)
        iota = 3.0
        need = iota * noise / h2
        problem = make_problem(ch.gains, [iota], caps=need / 10.0, noise=noise)
        sol = solve_beamforming(problem)
        assert sol.status is SolutionStatus.INFEASIBLE_CAP


class TestTrivial:
    def test_all_demands_zero(self):
        _, ch = random_channel(3, 2, 0)
        problem = make_problem(ch.gains, [0.0, 0.0])
        sol = solve_beamforming(problem)
        assert sol.status is SolutionStatus.FEASIBLE
        assert sol.total_tx_w == 0.0
        assert np.all(sol.weights == 0)

    def test_zero_demand_user_gets_zero_weights(self):
        _, ch = random_channel(4, 2, 3)
        problem = make_problem(ch.gains, [3.0, 0.0])
        sol = solve_beamforming(problem)
        assert sol.status is SolutionStatus.FEASIBLE
        assert np.all(sol.weights[:, 1] == 0)
        assert np.all(sol.weights[:, 0] != 0)

    def test_empty_active_set_with_demand_rejected(self):
        with pytest.raises(ValueError):
            make_problem(np.zeros((0, 1), dtype=complex), [3.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BeamformingProblem(
                active_set=np.arange(3),
                channel=np.ones((2, 2), dtype=complex),
                sinr_targets=np.array([1.0, 1.0]),
                per_rrh_cap_w=1.0,
                noise_w=1e-13,
            )


class TestInfeasibility:
    def test_single_antenna_two_users_over_budget(self):
        # One receive dimension: feasible iff sum iota/(1+iota) < 1.
        _, ch = random_channel(1, 2, 11)
        problem = make_problem(ch.gains, [3.0, 3.0])
        sol = solve_beamforming(problem)
        assert sol.status is SolutionStatus.INFEASIBLE_SINR

    def test_collinear_users_diverge(self):
        # Load 1.875 is below min(na, ns) = 2, so no certificate: the rank
        # is 1, and the fixed point finds the infeasibility by diverging.
        _, ch = random_channel(2, 1, 16)
        problem = make_problem(np.repeat(ch.gains, 2, axis=1), [15.0, 15.0], caps=1.0)
        sol = solve_beamforming(problem)
        assert sol.status is SolutionStatus.INFEASIBLE_SINR and sol.iterations > 0
        assert_close_result(sol, reference_result(problem), problem)

    def test_single_antenna_two_users_under_budget(self):
        _, ch = random_channel(1, 2, 12)
        # iota = 0.4 each: 2 * 0.4/1.4 = 0.57 < 1, feasible.
        problem = make_problem(ch.gains, [0.4, 0.4])
        sol = solve_beamforming(problem)
        assert sol.status is SolutionStatus.FEASIBLE
        report = verify_solution(sol, problem)
        assert report.tight


class TestOptimalityProperties:
    def test_sinr_tight_on_random_instances(self):
        for seed in range(10):
            _, ch = random_channel(4, 2, 100 + seed)
            problem = make_problem(ch.gains, [3.0, 7.0])
            sol = solve_beamforming(problem)
            assert sol.status is SolutionStatus.FEASIBLE
            report = verify_solution(sol, problem, tol=1e-6)
            assert report.sinr_ok
            assert report.tight
            assert report.power_consistent

    def test_scaled_weights_flag_slack(self):
        _, ch = random_channel(4, 2, 42)
        problem = make_problem(ch.gains, [3.0, 7.0])
        sol = solve_beamforming(problem)
        sol.weights = sol.weights * 1.1
        report = verify_solution(sol, problem, tol=1e-6)
        assert report.sinr_ok          # above target is not a violation
        assert not report.tight        # but it is provably suboptimal slack
        assert report.max_rel_slack > 0.1

    def test_zero_demand_solution_vacuously_valid(self):
        _, ch = random_channel(3, 2, 9)
        problem = make_problem(ch.gains, [0.0, 0.0])
        sol = solve_beamforming(problem)
        report = verify_solution(sol, problem)
        assert report.tight and report.sinr_ok and report.caps_ok

    def test_monotone_in_targets(self):
        for seed in range(8):
            _, ch = random_channel(4, 2, 300 + seed)
            lo = solve_beamforming(make_problem(ch.gains, [3.0, 5.0]))
            hi = solve_beamforming(make_problem(ch.gains, [3.0, 8.0]))
            assert lo.status is SolutionStatus.FEASIBLE
            assert hi.status is SolutionStatus.FEASIBLE
            assert hi.total_tx_w >= lo.total_tx_w * (1 - 1e-9)

    def test_removing_an_rrh_never_helps(self):
        for seed in range(8):
            _, ch = random_channel(4, 2, 500 + seed)
            full = solve_beamforming(make_problem(ch.gains, [3.0, 6.0]))
            reduced = solve_beamforming(make_problem(ch.gains[:3], [3.0, 6.0]))
            if reduced.status is SolutionStatus.FEASIBLE:
                assert full.status is SolutionStatus.FEASIBLE
                assert reduced.total_tx_w >= full.total_tx_w * (1 - 1e-9)

    def test_duality_tx_power_identity(self):
        # Sum of downlink powers equals the sum of virtual uplink powers at
        # the fixed point; cross-check through the per-RRH decomposition.
        _, ch = random_channel(5, 3, 21)
        problem = make_problem(ch.gains, [3.0, 5.0, 9.0])
        sol = solve_beamforming(problem)
        assert sol.total_tx_w == pytest.approx(float(np.sum(sol.per_rrh_tx_w)), rel=1e-12)
        assert sol.total_tx_w == pytest.approx(
            float(np.sum(np.abs(sol.weights) ** 2)), rel=1e-12)


class TestConvergenceBehaviour:
    def test_iteration_budget_reported(self):
        _, ch = random_channel(4, 2, 1)
        sol = solve_beamforming(make_problem(ch.gains, [3.0, 3.0]))
        assert 1 <= sol.iterations <= 500
        assert sol.residual < 1e-8

    def test_tight_iteration_cap_reports_infeasible_sinr(self):
        # A max_iterations too small to converge looks like divergence by
        # design (conservative verdict).
        _, ch = random_channel(4, 2, 2)
        sol = solve_beamforming(make_problem(ch.gains, [3.0, 3.0]),
                                SolverParams(max_iterations=2))
        assert sol.status is SolutionStatus.INFEASIBLE_SINR


def empty_solution(problem, status, iterations=0, residual=0.0):
    """A verdict without beams: zero weights and powers."""
    na, n = problem.channel.shape
    return BeamformingSolution(weights=np.zeros((na, n), dtype=complex),
                               total_tx_w=0.0, per_rrh_tx_w=np.zeros(na),
                               status=status, iterations=iterations,
                               residual=residual)


def served_load(iota):
    """The load sum iota / (1 + iota) of served targets `iota`."""
    return float(np.sum(iota / (1.0 + iota)))


def reference_solve(problem, params=SolverParams(), certify=True):
    """The solver as a loop over one problem on its unrotated channel, kept
    as the reference that the batched fixed point must stay close to. With
    `certify`, a state whose served load reaches its na < ns active RRHs is
    SINR-infeasible before any iteration, as in `solve_states`."""
    iota_all = problem.sinr_targets
    served = np.flatnonzero(iota_all > 0)
    na = len(problem.active_set)
    n = len(iota_all)
    if len(served) == 0:
        return empty_solution(problem, SolutionStatus.FEASIBLE)
    g = np.conj(problem.channel[:, served])
    iota = iota_all[served]
    ns = len(served)
    noise = problem.noise_w
    gain_sq = np.real(np.sum(np.conj(g) * g, axis=0))
    if np.any(gain_sq <= 0) or certify and ns > na and served_load(iota) >= na:
        return empty_solution(problem, SolutionStatus.INFEASIBLE_SINR)
    cap_total = float(np.sum(problem.per_rrh_cap_w))
    q_limit = (beamform._DIVERGENCE_FACTOR * cap_total if np.isfinite(cap_total)
               else np.inf)
    slack = beamform._MONOTONE_SLACK
    q = np.zeros(ns)
    eye = np.eye(na)
    residual = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        cov = noise * eye + (g * q) @ g.conj().T
        solved = np.linalg.solve(cov, g)
        a = np.real(np.sum(np.conj(g) * solved, axis=0))
        downdate = 1.0 - q * a
        if np.any(downdate <= 0):
            raise SolverFailure("interference downdate became non-positive")
        q_next = iota * downdate / a
        if np.any(q_next < q * (1.0 - slack) - noise * slack):
            raise SolverFailure("fixed-point iterates oscillated")
        residual = float(np.max(np.abs(q_next - q) / np.maximum(q_next, noise)))
        q = q_next
        if np.any(q > q_limit):
            return empty_solution(
                problem, SolutionStatus.INFEASIBLE_SINR, iterations, residual)
        if residual < params.tolerance:
            converged = True
            break
    if not converged:
        return empty_solution(
            problem, SolutionStatus.INFEASIBLE_SINR, iterations, residual)
    cov = noise * eye + (g * q) @ g.conj().T
    directions = np.linalg.solve(cov, g)
    directions = directions / np.linalg.norm(directions, axis=0, keepdims=True)
    cross = np.abs(g.conj().T @ directions) ** 2
    system = -iota[:, None] * cross
    system[np.arange(ns), np.arange(ns)] = np.diag(cross)
    powers = np.linalg.solve(system, iota * noise)
    if np.any(powers < -1e-12 * np.max(np.abs(powers))):
        raise SolverFailure("negative downlink power at a converged fixed point")
    powers = np.maximum(powers, 0.0)
    weights = np.zeros((na, n), dtype=complex)
    weights[:, served] = directions * np.sqrt(powers)
    per_rrh = np.sum(np.abs(weights) ** 2, axis=1)
    status = SolutionStatus.FEASIBLE
    if np.any(per_rrh > problem.per_rrh_cap_w * (1.0 + 1e-9) + 1e-15):
        status = SolutionStatus.INFEASIBLE_CAP
    return BeamformingSolution(weights=weights, total_tx_w=float(np.sum(per_rrh)),
                               per_rrh_tx_w=per_rrh, status=status,
                               iterations=iterations, residual=residual)


def reference_result(problem, params=SolverParams(), certify=True):
    try:
        return reference_solve(problem, params, certify)
    except SolverFailure as err:
        return err


def lone_result(problem, params=SolverParams()):
    """`solve_beamforming`'s solution of the problem, or its SolverFailure."""
    try:
        return solve_beamforming(problem, params)
    except SolverFailure as err:
        return err


def assert_same_result(got, want):
    """`got` is `want` bit for bit."""
    if isinstance(want, SolverFailure):
        assert isinstance(got, SolverFailure) and str(got) == str(want)
        return
    assert isinstance(got, BeamformingSolution)
    assert got.status is want.status
    assert got.iterations == want.iterations
    assert got.residual == want.residual
    assert got.total_tx_w == want.total_tx_w
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.per_rrh_tx_w, want.per_rrh_tx_w)


# The batch solver runs in its problems' served users' space, so its
# arithmetic differs from the reference loop's by rounding alone.
CLOSE_RTOL = 1e-12


def assert_close_result(got, want, problem):
    """`got` has `want`'s verdict, failure message and iteration count, and
    its powers, weights and residual agree to rounding. A feasible `got`
    passes `verify_solution`."""
    if isinstance(want, SolverFailure):
        assert isinstance(got, SolverFailure) and str(got) == str(want)
        return
    assert isinstance(got, BeamformingSolution)
    assert got.status is want.status
    assert got.iterations == want.iterations
    # The residual is a relative step between two nearly equal iterates, so
    # its own relative error is about eps / residual: compare it absolutely.
    assert abs(got.residual - want.residual) <= CLOSE_RTOL
    assert abs(got.total_tx_w - want.total_tx_w) <= CLOSE_RTOL * want.total_tx_w
    for mine, theirs in ((got.weights, want.weights),
                         (got.per_rrh_tx_w, want.per_rrh_tx_w)):
        assert mine.shape == theirs.shape
        assert np.max(np.abs(mine - theirs), initial=0.0) <= (
            CLOSE_RTOL * np.max(np.abs(theirs), initial=0.0))
    if got.feasible:
        report = verify_solution(got, problem)
        assert report.tight and report.caps_ok and report.power_consistent


@st.composite
def cell_states(draw, max_rrhs=5, max_users=4, max_states=12):
    """A random cell and a batch of its states on up to three channels:
    mixed active sets, some users demanding nothing, now and then a user
    out of every RRH's reach or caps low enough to bind. About one state in
    ten serves nobody, by an empty pattern or all-zero demands; every other
    state has an RRH on and a user demanding something.
    Returns (config, channels, patterns, demands)."""
    m = draw(st.integers(1, max_rrhs))
    n = draw(st.integers(1, max_users))
    config = NetworkConfig(num_rrhs=m, num_users=n,
                           max_tx_power_w=draw(st.sampled_from([1e-3, 0.05, 1.0])))
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        gains = sample_channel(config, np.random.default_rng(
            draw(st.integers(0, 2 ** 32 - 1)))).gains
        if draw(st.booleans()) and n > 1:
            gains[:, draw(st.integers(0, n - 1))] = 0.0
        cells.append(ChannelRealization(gains=gains))
    channels, patterns, demands = [], [], []
    for _ in range(draw(st.integers(1, max_states))):
        channels.append(cells[draw(st.integers(0, len(cells) - 1))])
        kind = draw(st.sampled_from(["served"] * 18 + ["empty", "silent"]))
        bits = 0 if kind == "empty" else draw(st.integers(1, 2 ** m - 1))
        patterns.append(np.array([(bits >> i) & 1 for i in range(m)], dtype=bool))
        silent = [True] * n
        if kind != "silent":
            silent = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            silent[draw(st.integers(0, n - 1))] = False
        demands.append(np.array([0.0 if quiet else draw(st.floats(5.0, 40.0))
                                 for quiet in silent]))
    return config, channels, patterns, demands


@st.composite
def split_batches(draw):
    """The states of `cell_states`, up to 36 of them, with SINR targets, and
    a split of them into consecutive sub-batches. Up to 9 served users, so
    that reductions run past numpy's 8-wide pairwise block."""
    config, channels, patterns, demands = draw(
        cell_states(max_rrhs=8, max_users=9, max_states=36))
    targets = [sinr_targets(d, config)[0] for d in demands]
    cuts = sorted(draw(st.lists(st.integers(1, len(patterns)), max_size=3)))
    return config, channels, patterns, targets, cuts


def pose(config, channels, patterns, targets):
    """The `solve_states` arguments of states of one cell: each state's
    channel gains, and the cell's caps and noise, as `from_state` sets them."""
    count, m, n = len(patterns), config.num_rrhs, config.num_users
    return (np.array([channel.gains for channel in channels]).reshape(count, m, n),
            np.array(patterns, dtype=bool).reshape(count, m),
            np.array(targets, dtype=float).reshape(count, n),
            np.full((count, m), config.max_tx_power_w),
            np.full(count, config.noise_power_w))


def row_result(solved, k, pattern):
    """State k of `solved` in the form `solve_beamforming` gives its problem:
    its SolverFailure, or a solution on its active RRHs. Its sleeping RRHs
    must carry nothing."""
    assert not solved.weights[k][~pattern].any() and not solved.per_rrh[k][~pattern].any()
    verdict = solved.verdicts[k]
    if isinstance(verdict, SolverFailure):
        return verdict
    return BeamformingSolution(
        weights=solved.weights[k][pattern], total_tx_w=float(solved.totals[k]),
        per_rrh_tx_w=solved.per_rrh[k][pattern], status=verdict,
        iterations=int(solved.iterations[k]), residual=float(solved.residuals[k]))


def single_answer(config, channel, pattern, demands):
    """One state's (power, feasible) pair, or its SolverFailure, from
    `solve_beamforming` on the state's problem: the anchor of the reward path."""
    iota, _ = sinr_targets(demands, config)
    if not np.any(pattern):
        return 0.0, not np.any(iota > 0)
    try:
        solution = solve_beamforming(
            BeamformingProblem.from_state(channel, pattern, iota, config))
    except SolverFailure as err:
        return err
    return (solution.total_tx_w, True) if solution.feasible else (0.0, False)


def solved_answers(source, channels, patterns, demands):
    """`source.solve` of states listed one by one, each on its channel's
    gains: each state's (power, feasible) pair, or its SolverFailure."""
    gains, patterns, demands, _, _ = pose(source.config, channels, patterns, demands)
    power, feasible, failures = source.solve(gains, patterns, demands)
    answers = list(zip(power.tolist(), feasible.tolist()))
    for k, failure in failures.items():
        answers[k] = failure
    return answers


def assert_same_answers(got, want):
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        if isinstance(theirs, SolverFailure):
            assert isinstance(mine, SolverFailure) and str(mine) == str(theirs)
        else:
            assert type(mine[0]) is float and type(mine[1]) is bool
            assert mine == theirs


class TestSolveBatch:
    """A batch of states solved together by `solve_states`."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(drawn=cell_states(), max_iterations=st.sampled_from([3, 500]))
    def test_matches_solving_each_alone(self, drawn, max_iterations):
        config, channels, patterns, demands = drawn
        params = SolverParams(max_iterations=max_iterations)
        # Nobody demands anything of an empty pattern, since a problem with
        # no RRH serves no one.
        targets = [sinr_targets(d * pattern.any(), config)[0]
                   for pattern, d in zip(patterns, demands)]
        solved = solve_states(*pose(config, channels, patterns, targets), params)
        assert len(solved.verdicts) == len(patterns)
        for k, (channel, pattern, iota) in enumerate(zip(channels, patterns, targets)):
            problem = BeamformingProblem.from_state(channel, pattern, iota, config)
            got = row_result(solved, k, pattern)
            assert_same_result(got, lone_result(problem, params))
            assert_close_result(got, reference_result(problem, params), problem)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(drawn=split_batches())
    def test_result_does_not_depend_on_the_batch(self, drawn):
        config, channels, patterns, targets, cuts = drawn

        def solve(lo, hi):
            solved = solve_states(*pose(config, channels[lo:hi], patterns[lo:hi],
                                        targets[lo:hi]))
            return [row_result(solved, k, pattern)
                    for k, pattern in enumerate(patterns[lo:hi])]

        alone = [solve(k, k + 1)[0] for k in range(len(patterns))]
        for got, want in zip(solve(0, len(patterns)), alone):
            assert_same_result(got, want)
        bounds = [0, *cuts, len(patterns)]
        split = [result for lo, hi in zip(bounds, bounds[1:]) for result in solve(lo, hi)]
        for got, want in zip(split, alone):
            assert_same_result(got, want)

    def test_failure_ends_only_its_problem(self, monkeypatch):
        config = NetworkConfig(num_rrhs=4, num_users=2)
        channel = sample_channel(config, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        demands = [rng.uniform(20.0, 40.0, 2) for _ in range(5)]
        on = np.ones(4, dtype=bool)
        problems = [BeamformingProblem.from_state(
            channel, on, sinr_targets(d, config)[0], config) for d in demands]
        posed = pose(config, [channel] * 5, [on] * 5,
                     [problem.sinr_targets for problem in problems])
        # Negative noise turns the first iterate negative: the fixed point
        # reports oscillation at once.
        posed[4][2] = -posed[4][2]
        solved = solve_states(*posed)
        batch = [row_result(solved, k, on) for k in range(5)]
        assert isinstance(batch[2], SolverFailure)
        assert "oscillated" in str(batch[2])
        for k in (0, 1, 3, 4):
            assert batch[k].feasible
            assert_same_result(batch[k], solve_beamforming(problems[k]))
            assert_close_result(batch[k], reference_result(problems[k]), problems[k])
        monkeypatch.setattr(problems[2], "noise_w", -problems[2].noise_w)
        with pytest.raises(SolverFailure, match="oscillated"):
            solve_beamforming(problems[2])

        # The reward path: the same failure ends only its own state.
        def failing_third(gains, active, iota, caps, noise, params):
            noise = noise.copy()
            noise[2] = -noise[2]
            return solve_states(gains, active, iota, caps, noise, params)

        monkeypatch.setattr(env, "solve_states", failing_third)
        source = ExactSolverReward(config)
        power, feasible, failures = source.solve(
            np.broadcast_to(channel.gains, (5, 4, 2)), np.tile(on, (5, 1)), np.array(demands))
        assert list(failures) == [2] and str(failures[2]) == str(batch[2])
        assert (power[2], feasible[2]) == (0.0, False)
        for k in (0, 1, 3, 4):
            assert (power[k], feasible[k]) == (batch[k].total_tx_w, True)

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_exact_reward_batch_matches_single_states(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(env, "SOLVE_CHUNK", chunk)
        # States on three channels share one stack per served-user count.
        config = NetworkConfig(num_rrhs=3, num_users=2)
        cells = [sample_channel(config, np.random.default_rng([8, k])) for k in range(3)]
        source = ExactSolverReward(config)
        rng = np.random.default_rng(9)
        patterns = [np.zeros(3, dtype=bool)] + [rng.random(3) < 0.6 for _ in range(20)]
        demands = [rng.uniform(0.0, 40.0, 2) for _ in patterns]
        demands[0] = np.zeros(2)
        patterns.append(np.zeros(3, dtype=bool))
        demands.append(np.array([0.0, 10.0]))
        channels = [cells[k % 3] for k in range(len(patterns))]
        batch = solved_answers(source, channels, patterns, demands)
        assert batch[0] == (0.0, True) and batch[-1] == (0.0, False)
        assert_same_answers(batch, [single_answer(config, c, p, d)
                                    for c, p, d in zip(channels, patterns, demands)])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(drawn=cell_states(), chunk=st.sampled_from([1, 5, 512]))
    def test_exact_reward_path_is_solve_beamforming(self, drawn, chunk):
        config, channels, patterns, demands = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(env, "SOLVE_CHUNK", chunk)
            batch = solved_answers(ExactSolverReward(config), channels, patterns, demands)
        assert_same_answers(batch, [single_answer(config, c, p, d)
                                    for c, p, d in zip(channels, patterns, demands)])


class TestLoadCertificate:
    """A state whose served load sum iota / (1 + iota) reaches min(na, ns)
    is SINR-infeasible with no iteration run."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(drawn=cell_states(max_rrhs=4, max_users=6),
           scale=st.sampled_from([1.0, 0.25]))
    def test_certified_states_are_infeasible(self, drawn, scale):
        # Demands scaled to a quarter put many loads below na with ns > na.
        config, channels, patterns, demands = drawn
        targets = [sinr_targets(scale * d * pattern.any(), config)[0]
                   for pattern, d in zip(patterns, demands)]
        solved = solve_states(*pose(config, channels, patterns, targets))
        for k, (channel, pattern, iota) in enumerate(zip(channels, patterns, targets)):
            served = iota > 0
            if not served.any():
                continue
            block = channel.gains[np.ix_(pattern, served)]
            na, ns = block.shape
            load = served_load(iota[served])
            reached = np.all(np.sum(np.abs(block) ** 2, axis=0) > 0)
            certified = (reached and solved.iterations[k] == 0
                         and solved.verdicts[k] is SolutionStatus.INFEASIBLE_SINR)
            assert certified == (reached and ns > na and load >= na)
            if load < min(na, ns):
                assert not certified
            if certified:
                assert load >= np.linalg.matrix_rank(block)
                problem = BeamformingProblem.from_state(channel, pattern, iota, config)
                uncertified = reference_result(problem, certify=False)
                assert not isinstance(uncertified, SolverFailure)
                assert uncertified.status is SolutionStatus.INFEASIBLE_SINR
                assert uncertified.iterations > 0

    def test_load_of_exactly_one_antenna(self):
        # 1/2 + 1/2 == 1 exactly: the boundary is certified.
        _, ch = random_channel(1, 2, 13)
        problem = make_problem(ch.gains, [1.0, 1.0])
        sol = solve_beamforming(problem)
        assert sol.status is SolutionStatus.INFEASIBLE_SINR
        assert sol.iterations == 0 and sol.residual == 0.0
        assert reference_solve(problem, certify=False).status is (
            SolutionStatus.INFEASIBLE_SINR)
        # Below it the fixed point runs, and these targets converge.
        sol = solve_beamforming(make_problem(ch.gains, [1.0, 0.5]))
        assert sol.status is SolutionStatus.FEASIBLE and sol.iterations > 0

    @pytest.mark.parametrize("na", [1, 2, 3])
    def test_never_fires_with_as_many_rrhs_as_users(self, na):
        # Each load term rounds to 1, so the load equals na; yet with
        # ns <= na it certifies nothing. The fixed point runs, and with
        # targets this large its downdate breaks down.
        for rrhs, seed in ((na, 14), (na + 1, 15)):
            _, ch = random_channel(rrhs, na, seed)
            result = lone_result(make_problem(ch.gains, np.full(na, 1e17)))
            assert isinstance(result, SolverFailure) or result.iterations > 0


class TestFixedPointExits:
    def test_rows_leaving_together_keep_the_exit_priority(self, monkeypatch):
        _, ch = random_channel(2, 2, 4)
        r = np.linalg.qr(np.conj(ch.gains))[1]
        iota = np.array([3.0, 5.0])

        def run(count):
            return beamform._fixed_point(
                np.repeat(r[None], count, axis=0), np.tile(iota, (count, 1)),
                np.full((count, 1), 10 ** -13.2), np.full((count, 1), 1e6),
                SolverParams())

        verdicts, q_alone, iterations, _ = run(1)
        assert verdicts[0] is None
        last = int(iterations[0])
        # In the iteration where the row converges alone, scale each row's
        # a_i = r_i^H cov^-1 r_i user by user.
        scale = np.array([[1e6, 1.0],     # q a > 1: the downdate breaks down
                          [-1.0, 1.0],    # a < 0: the next q is negative
                          [1e-20, 1.0],   # a tiny: q passes its limit
                          [1.0, 1.0],     # untouched: converges
                          [1e6, 1e-20]])  # breaks down and diverges
        solve, calls = np.linalg.solve, []

        def spoiled(a, b):
            calls.append(None)
            x = solve(a, b)
            return x * scale[:, None, :] if len(calls) == last else x

        monkeypatch.setattr(np.linalg, "solve", spoiled)
        verdicts, q_fixed, iterations, _ = run(5)
        assert iterations.tolist() == [last] * 5
        breakdown = "interference downdate became non-positive"
        for k, message in ((0, breakdown), (1, "fixed-point iterates oscillated"),
                           (4, breakdown)):
            assert isinstance(verdicts[k], SolverFailure) and str(verdicts[k]) == message
        assert verdicts[2] is SolutionStatus.INFEASIBLE_SINR
        assert verdicts[3] is None
        assert np.array_equal(q_fixed[3], q_alone[0])


class TestExactRewardInputs:
    @pytest.fixture
    def cell(self, table1_config):
        channel = sample_channel(table1_config, np.random.default_rng(5))
        demands = np.full(table1_config.num_users, 30.0)
        return ExactSolverReward(table1_config), channel, demands

    @pytest.fixture
    def sources(self, table1_config):
        """Both reward sources of the cell. The surrogate's models read m + n
        features, so a state whose pattern and demands split them otherwise
        still fits the models."""
        width = table1_config.num_rrhs + table1_config.num_users
        model = GbdtModel(initial_prediction=0.5, trees=[],
                          params=GbdtParams(num_rounds=1), num_features=width)
        return [ExactSolverReward(table1_config),
                SurrogateReward(table1_config, model, model)]

    @staticmethod
    def _no_solve(monkeypatch):
        def refuse(*args):
            raise AssertionError("answered a batch it should have refused")

        for owner, name in ((env, "solve_states"), (gbdt, "predict"),
                            (gbdt, "predict_batch")):
            monkeypatch.setattr(owner, name, refuse)

    @staticmethod
    def _states(channel, count, rrhs=8, users=4):
        """`solve`'s arrays for `count` states on `channel`."""
        return (np.broadcast_to(channel.gains, (count, *channel.gains.shape)),
                np.ones((count, rrhs), dtype=bool), np.full((count, users), 30.0))

    @pytest.mark.parametrize("rrhs", [3, 10])
    def test_pattern_of_the_wrong_length(self, cell, sources, monkeypatch, rrhs):
        _, channel, demands = cell
        self._no_solve(monkeypatch)
        for source in sources:
            with pytest.raises(ValueError, match=r"patterns \(3, %d\)" % rrhs):
                source.solve(*self._states(channel, 3, rrhs=rrhs))
            with pytest.raises(ValueError, match=r"patterns \(1, %d\)" % rrhs):
                source.transmit_power(channel, np.ones(rrhs, dtype=bool), demands)

    @pytest.mark.parametrize("users", [3, 5])
    def test_demands_of_the_wrong_length(self, cell, sources, monkeypatch, users):
        _, channel, demands = cell
        self._no_solve(monkeypatch)
        for source in sources:
            with pytest.raises(ValueError, match=r"demands \(3, %d\)" % users):
                source.solve(*self._states(channel, 3, users=users))
            with pytest.raises(ValueError, match=r"demands \(1, %d\)" % users):
                source.transmit_power(channel, np.ones(8, dtype=bool),
                                      np.full(users, 30.0))

    @pytest.mark.parametrize("rrhs, users", [(9, 3), (3, 9)])
    def test_split_of_another_cell(self, cell, sources, monkeypatch, rrhs, users):
        # 12 entries, as many as the cell's features, split otherwise.
        _, channel, demands = cell
        self._no_solve(monkeypatch)
        split = (np.ones(rrhs, dtype=bool), np.full(users, 30.0))
        for source in sources:
            with pytest.raises(ValueError, match=r"patterns \(2, %d\) and demands "
                               r"\(2, %d\) do not fit 2 states" % (rrhs, users)):
                source.solve(*self._states(channel, 2, rrhs, users))
            with pytest.raises(ValueError, match="do not fit 1 states"):
                source.transmit_power(channel, *split)

    def test_channel_of_another_cell(self, cell, sources, monkeypatch):
        _, channel, demands = cell
        other = sample_channel(NetworkConfig(num_rrhs=3, num_users=4),
                               np.random.default_rng(6))
        self._no_solve(monkeypatch)
        for source in sources:
            with pytest.raises(ValueError, match=r"gains \(2, 3, 4\), patterns \(2, 8\)"):
                source.solve(*self._states(other, 2))
            with pytest.raises(ValueError, match=r"gains \(1, 3, 4\)"):
                source.transmit_power(other, np.ones(8, dtype=bool), demands)

    def test_negative_demand_anywhere_refuses_the_batch(self, cell, monkeypatch):
        source, channel, demands = cell
        self._no_solve(monkeypatch)
        monkeypatch.setattr(env, "SOLVE_CHUNK", 2)
        gains, patterns, rows = self._states(channel, 5)
        rows[4, 1] = -1.0
        with pytest.raises(ValueError, match="demands must be >= 0"):
            source.solve(gains, patterns, rows)

    @pytest.mark.parametrize("patterns, demands, gains", [
        ((3, 7), (3, 4), 3),     # patterns of another cell
        ((3, 8), (3, 5), 3),     # demands of another cell
        ((3, 8), (2, 4), 3),     # fewer demand rows than states
        ((2, 8), (2, 4), 3),     # more gains rows than patterns and demands
        ((3, 8), (3, 4), 2),     # fewer gains rows than patterns and demands
    ])
    def test_array_entry_refuses_arrays_of_another_shape(self, cell, sources, monkeypatch,
                                                         patterns, demands, gains):
        _, channel, _ = cell
        self._no_solve(monkeypatch)
        other = sample_channel(NetworkConfig(num_rrhs=4, num_users=8),
                               np.random.default_rng(6))
        for source in sources:
            with pytest.raises(ValueError, match="do not fit %d states" % gains):
                source.solve(self._states(channel, gains)[0],
                             np.ones(patterns, dtype=bool), np.full(demands, 30.0))
            with pytest.raises(ValueError, match=r"gains \(3, 4, 8\)"):
                source.solve(*self._states(other, 3))

    def test_array_entry_answers_as_the_list_form(self, cell, monkeypatch):
        # The failed state of a batch is reported by index, at power 0 and
        # not feasible; the others read as each state solved alone.
        source, channel, demands = cell
        solve_states = env.solve_states

        def failing_second(gains, active, iota, caps, noise, params):
            noise = noise.copy()
            noise[1] = -noise[1]
            return solve_states(gains, active, iota, caps, noise, params)

        patterns = np.ones((4, 8), dtype=bool)
        patterns[3, 2:] = False
        rows = np.stack([demands, demands, np.zeros_like(demands), demands])
        alone = [single_answer(source.config, channel, p, d)
                 for p, d in zip(patterns, rows)]
        monkeypatch.setattr(env, "solve_states", failing_second)
        power, feasible, failures = source.solve(np.broadcast_to(channel.gains, (4, 8, 4)),
                                                 patterns, rows)
        assert list(failures) == [1] and isinstance(failures[1], SolverFailure)
        assert (power[1], feasible[1]) == (0.0, False)
        assert [(power[k], feasible[k]) for k in (0, 2, 3)] == [alone[k] for k in (0, 2, 3)]
        assert feasible[0] and feasible[2] and power[2] == 0.0

    def test_all_off_and_unreachable_users(self, cell):
        source, channel, demands = cell
        off = np.zeros(8, dtype=bool)
        zero = np.zeros_like(demands)
        assert solved_answers(source, [channel] * 2, [off] * 2, [zero, demands]) == [
            (0.0, True), (0.0, False)]
        gains = channel.gains.copy()
        gains[:3, 1] = 0.0  # user 1 hears only RRHs 3-7
        cut = ChannelRealization(gains=gains)
        near = np.arange(8) < 3
        low = np.full(4, 5.0)
        states = ([near, near, ~near], [low, np.where(np.arange(4) == 1, 0.0, low), low])
        answers = solved_answers(source, [cut] * 3, *states)
        assert answers[0] == (0.0, False)
        assert answers[1][1] and answers[2][1]
        assert answers == [single_answer(source.config, cut, p, d)
                           for p, d in zip(*states)]
