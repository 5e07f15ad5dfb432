import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranpower import beamform, env
from cranpower.beamform import (
    BeamformingProblem,
    BeamformingSolution,
    SolutionStatus,
    SolverFailure,
    SolverParams,
    sinr_targets,
    solve_batch,
    solve_beamforming,
    verify_solution,
)
from cranpower.env import ExactSolverReward
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

    def test_duality_total_power_identity(self):
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


def reference_solve(problem, params=SolverParams()):
    """The solver as a loop over one problem on its unrotated channel, kept
    as the reference that the batched fixed point must stay close to."""
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
    if np.any(gain_sq <= 0):
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


def reference_result(problem, params=SolverParams()):
    try:
        return reference_solve(problem, params)
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
def cell_states(draw, max_rrhs=5, max_users=4):
    """A random cell and a batch of its states on up to three channels:
    mixed active sets, some users demanding nothing, now and then an empty
    pattern, a user out of every RRH's reach or caps low enough to bind.
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
    for _ in range(draw(st.integers(1, 12))):
        channels.append(cells[draw(st.integers(0, len(cells) - 1))])
        bits = draw(st.integers(0, 2 ** m - 1))
        patterns.append(np.array([(bits >> i) & 1 for i in range(m)], dtype=bool))
        demands.append(np.array(draw(st.lists(
            st.one_of(st.just(0.0), st.floats(5.0, 40.0)), min_size=n, max_size=n))))
    return config, channels, patterns, demands


@st.composite
def problem_batches(draw, max_rrhs=5, max_users=4):
    """The states of `cell_states` as solver problems. Nobody demands
    anything of an empty pattern, since a problem with no RRH serves no one."""
    config, channels, patterns, demands = draw(cell_states(max_rrhs, max_users))
    return [BeamformingProblem.from_state(
        channel, pattern, sinr_targets(d * pattern.any(), config)[0], config)
        for channel, pattern, d in zip(channels, patterns, demands)]


@st.composite
def mixed_cell_batches(draw):
    """States of two or three cells, shuffled together, and a split of them
    into consecutive sub-batches. Up to 9 served users, so that reductions
    run past numpy's 8-wide pairwise block."""
    problems = [p for _ in range(draw(st.integers(2, 3)))
                for p in draw(problem_batches(max_rrhs=8, max_users=9))]
    order = draw(st.permutations(range(len(problems))))
    cuts = sorted(draw(st.lists(st.integers(1, len(problems)), max_size=3)))
    return [problems[k] for k in order], cuts


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


def assert_same_answers(got, want):
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        if isinstance(theirs, SolverFailure):
            assert isinstance(mine, SolverFailure) and str(mine) == str(theirs)
        else:
            assert type(mine[0]) is float and type(mine[1]) is bool
            assert mine == theirs


class TestSolveBatch:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(problems=problem_batches(), max_iterations=st.sampled_from([3, 500]))
    def test_matches_solving_each_alone(self, problems, max_iterations):
        params = SolverParams(max_iterations=max_iterations)
        batch = solve_batch(problems, params)
        assert len(batch) == len(problems)
        for problem, got in zip(problems, batch):
            assert_same_result(got, solve_batch([problem], params)[0])
            assert_close_result(got, reference_result(problem, params), problem)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(drawn=mixed_cell_batches())
    def test_result_does_not_depend_on_the_batch(self, drawn):
        problems, cuts = drawn
        alone = [solve_batch([problem])[0] for problem in problems]
        for got, want in zip(solve_batch(problems), alone):
            assert_same_result(got, want)
        bounds = [0, *cuts, len(problems)]
        split = [result for lo, hi in zip(bounds, bounds[1:])
                 for result in solve_batch(problems[lo:hi])]
        for got, want in zip(split, alone):
            assert_same_result(got, want)

    def test_failure_ends_only_its_problem(self, monkeypatch):
        config = NetworkConfig(num_rrhs=4, num_users=2)
        channel = sample_channel(config, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        demands = [rng.uniform(20.0, 40.0, 2) for _ in range(5)]
        problems = [BeamformingProblem.from_state(
            channel, np.ones(4, dtype=bool), sinr_targets(d, config)[0], config)
            for d in demands]
        # Negative noise turns the first iterate negative: the fixed point
        # reports oscillation at once.
        monkeypatch.setattr(problems[2], "noise_w", -problems[2].noise_w)
        batch = solve_batch(problems)
        assert isinstance(batch[2], SolverFailure)
        assert "oscillated" in str(batch[2])
        for k in (0, 1, 3, 4):
            assert batch[k].feasible
            assert_same_result(batch[k], solve_beamforming(problems[k]))
            assert_close_result(batch[k], reference_result(problems[k]), problems[k])
        with pytest.raises(SolverFailure, match="oscillated"):
            solve_beamforming(problems[2])

        # The reward path: the same failure ends only its own state.
        solve_states = env.solve_states

        def failing_third(gains, channel_of, active, iota, caps, noise, params):
            noise = noise.copy()
            noise[2] = -noise[2]
            return solve_states(gains, channel_of, active, iota, caps, noise, params)

        monkeypatch.setattr(env, "solve_states", failing_third)
        source = ExactSolverReward(config)
        answers = source.transmit_powers([channel] * 5, [np.ones(4, dtype=bool)] * 5,
                                         demands)
        assert isinstance(answers[2], SolverFailure)
        assert str(answers[2]) == str(batch[2])
        for k in (0, 1, 3, 4):
            assert answers[k] == (batch[k].total_tx_w, True)

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
        batch = source.transmit_powers(channels, patterns, demands)
        assert batch[0] == (0.0, True) and batch[-1] == (0.0, False)
        assert_same_answers(batch, [single_answer(config, c, p, d)
                                    for c, p, d in zip(channels, patterns, demands)])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(drawn=cell_states(), chunk=st.sampled_from([1, 5, 512]))
    def test_exact_reward_path_is_solve_beamforming(self, drawn, chunk):
        config, channels, patterns, demands = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(env, "SOLVE_CHUNK", chunk)
            batch = ExactSolverReward(config).transmit_powers(channels, patterns, demands)
        assert_same_answers(batch, [single_answer(config, c, p, d)
                                    for c, p, d in zip(channels, patterns, demands)])


class TestExactRewardInputs:
    @pytest.fixture
    def cell(self, table1_config):
        channel = sample_channel(table1_config, np.random.default_rng(5))
        demands = np.full(table1_config.num_users, 30.0)
        return ExactSolverReward(table1_config), channel, demands

    @staticmethod
    def _no_solve(monkeypatch):
        def refuse(*args):
            raise AssertionError("solved a batch it should have refused")

        monkeypatch.setattr(env, "solve_states", refuse)

    @pytest.mark.parametrize("rrhs", [3, 10])
    def test_pattern_of_the_wrong_length(self, cell, monkeypatch, rrhs):
        source, channel, demands = cell
        good = np.ones(8, dtype=bool)
        self._no_solve(monkeypatch)
        with pytest.raises(ValueError, match=r"state 1: .*pattern of %d RRHs" % rrhs):
            source.transmit_powers([channel] * 3, [good, np.ones(rrhs, dtype=bool), good],
                                   [demands] * 3)
        with pytest.raises(ValueError, match="state 0"):
            source.transmit_power(channel, np.ones(rrhs, dtype=bool), demands)

    @pytest.mark.parametrize("users", [3, 5])
    def test_demands_of_the_wrong_length(self, cell, monkeypatch, users):
        source, channel, demands = cell
        self._no_solve(monkeypatch)
        with pytest.raises(ValueError, match=r"state 2: .*demands of %d users" % users):
            source.transmit_powers([channel] * 3, [np.ones(8, dtype=bool)] * 3,
                                   [demands, demands, np.full(users, 30.0)])

    def test_channel_of_another_cell(self, cell, monkeypatch):
        source, channel, demands = cell
        other = sample_channel(NetworkConfig(num_rrhs=3, num_users=4),
                               np.random.default_rng(6))
        self._no_solve(monkeypatch)
        with pytest.raises(ValueError, match=r"state 1: channel 3x4"):
            source.transmit_powers([channel, other], [np.ones(8, dtype=bool)] * 2,
                                   [demands] * 2)

    def test_negative_demand_anywhere_refuses_the_batch(self, cell, monkeypatch):
        source, channel, demands = cell
        self._no_solve(monkeypatch)
        monkeypatch.setattr(env, "SOLVE_CHUNK", 2)
        bad = demands.copy()
        bad[1] = -1.0
        with pytest.raises(ValueError, match="demands must be >= 0"):
            source.transmit_powers([channel] * 5, [np.ones(8, dtype=bool)] * 5,
                                   [demands] * 4 + [bad])

    def test_all_off_and_unreachable_users(self, cell):
        source, channel, demands = cell
        off = np.zeros(8, dtype=bool)
        zero = np.zeros_like(demands)
        assert source.transmit_powers([channel] * 2, [off] * 2, [zero, demands]) == [
            (0.0, True), (0.0, False)]
        gains = channel.gains.copy()
        gains[:3, 1] = 0.0  # user 1 hears only RRHs 3-7
        cut = ChannelRealization(gains=gains)
        near = np.arange(8) < 3
        low = np.full(4, 5.0)
        states = ([near, near, ~near], [low, np.where(np.arange(4) == 1, 0.0, low), low])
        answers = source.transmit_powers([cut] * 3, *states)
        assert answers[0] == (0.0, False)
        assert answers[1][1] and answers[2][1]
        assert answers == [single_answer(source.config, cut, p, d)
                           for p, d in zip(*states)]
