"""Minimal-transmit-power downlink beamforming under per-user SINR targets
and per-RRH power caps.

The solver runs the classical uplink-downlink duality fixed point for
sum-power minimization:

  1. iterate virtual uplink powers  q_i <- iota_i / (g_i^H S_i^{-1} g_i)
     from q = 0, where S_i is the noise-plus-interference covariance seen by
     user i under MMSE receive vectors (g_i is the conjugated channel column);
  2. take the unit-norm MMSE receivers as downlink beam directions;
  3. solve the linear system that meets every downlink SINR target with
     equality for the downlink power scalars.

The map in step 1 is a standard interference function: starting from zero it
is componentwise non-decreasing and converges exactly when the target profile
is achievable, so unbounded growth or a non-converged monotone run signals
SINR infeasibility. Per-RRH caps are checked after the fact; a violated cap
yields an InfeasibleCap verdict rather than a re-optimization.

The load certificate decides many SINR-infeasible states with no iteration.
At achievable targets, with S = noise I + g Q g^H at the fixed point's
uplink powers Q, and lambda_k the eigenvalues of g Q g^H,
  sum_i iota_i / (1 + iota_i) = sum_i q_i g_i^H S^{-1} g_i = tr(S^{-1} g Q g^H)
    = sum_k lambda_k / (noise + lambda_k) < rank(g) <= min(na, ns),
the identity behind the user capacity of Viswanath, Anantharam & Tse (IEEE
Trans. IT, 1999). So a state whose served load reaches min(na, ns) is
SINR-infeasible. Each term is below 1, so only states with ns > na are
tested. On 10^4 default-cell states it decides all 3,577 SINR-infeasible
ones, those with 1-3 RRHs on.

`solve_states` is the only way into the solver. It takes a batch of states
of one cell posed as arrays, each state with its own channel gains (gains,
on/off patterns, SINR targets, caps, noise), and returns its verdicts,
iteration counts and powers as arrays, building no object per state; the
exact reward path (`env.ExactSolverReward`) poses its states to it
directly. `solve_beamforming` solves one `BeamformingProblem` as a batch of
one state, whose channel is the problem's active rows, all of them on.

`solve_states` groups the states by (served users, active RRHs) and gathers
each group's conjugated served channel block (na x ns) at once. Each state
is then rotated into its served users' space: the thin QR g = U R of that
block gives an ns x ns R (zero rows pad it when na < ns), and since U has
orthonormal columns the fixed point and the downlink give the same answer
on R as on g. The beams map back to the RRHs as U times the R-space beams.
So every state with ns served users has one shape, whatever its active
RRHs or channel, and the linear algebra runs once per iteration for all of
them, through stacked `np.linalg.solve` and matmul. Each state keeps its
own convergence, divergence and failure verdict and leaves the stack in the
iteration that decides it. Every LAPACK and BLAS call and every reduction
works on one state's own matrices, so a batch reproduces single solves bit
for bit. Against the unrotated loop the arithmetic differs by rounding
alone: on 10^4 default-cell states the verdicts and iteration counts are
the same and the powers agree to 4e-15 relative (`tools/solver_oracle.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .netmodel import ChannelRealization, NetworkConfig, compute_sinr

# Any virtual uplink power beyond this multiple of the total cap budget is
# treated as divergence.
_DIVERGENCE_FACTOR = 1e6
# Slack allowed on the monotonicity of the fixed-point iterates before the
# run is declared oscillating (pure numerics; the exact map never decreases).
_MONOTONE_SLACK = 1e-9


class SolutionStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_SINR = "infeasible_sinr"
    INFEASIBLE_CAP = "infeasible_cap"


class SolverFailure(RuntimeError):
    """The fixed point oscillated or produced inconsistent powers.

    Distinct from infeasibility: this is a numerical breakdown, not a verdict
    about the problem, and it aborts the run that triggered it.
    """


@dataclass(frozen=True)
class SolverParams:
    tolerance: float = 1e-8
    max_iterations: int = 500

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class BeamformingProblem:
    """One solver instance restricted to the active RRHs.

    `channel` holds only the active rows; `active_set` remembers which rows
    of the full channel they are.
    """

    active_set: np.ndarray
    channel: np.ndarray
    sinr_targets: np.ndarray
    per_rrh_cap_w: np.ndarray
    noise_w: float

    def __post_init__(self):
        self.active_set = np.asarray(self.active_set, dtype=int)
        self.channel = np.asarray(self.channel, dtype=complex)
        self.sinr_targets = np.asarray(self.sinr_targets, dtype=float)
        self.per_rrh_cap_w = np.broadcast_to(
            np.asarray(self.per_rrh_cap_w, dtype=float), (len(self.active_set),)
        ).copy()
        if self.channel.shape != (len(self.active_set), len(self.sinr_targets)):
            raise ValueError(
                f"channel shape {self.channel.shape} inconsistent with "
                f"{len(self.active_set)} active RRHs / {len(self.sinr_targets)} users")
        if np.any(self.sinr_targets < 0):
            raise ValueError("SINR targets must be >= 0")
        if len(self.active_set) == 0 and np.any(self.sinr_targets > 0):
            raise ValueError("active set must be non-empty when any target is positive")
        if not self.noise_w > 0:
            raise ValueError("noise power must be strictly positive")

    @classmethod
    def from_state(cls, channel: ChannelRealization, active_pattern,
                   sinr_targets, config: NetworkConfig) -> "BeamformingProblem":
        active_pattern = np.asarray(active_pattern, dtype=bool)
        active_set = np.flatnonzero(active_pattern)
        return cls(
            active_set=active_set,
            channel=channel.gains[active_set, :],
            sinr_targets=sinr_targets,
            per_rrh_cap_w=np.full(len(active_set), config.max_tx_power_w),
            noise_w=config.noise_power_w,
        )


@dataclass
class BeamformingSolution:
    weights: np.ndarray
    total_tx_w: float
    per_rrh_tx_w: np.ndarray
    status: SolutionStatus
    iterations: int
    residual: float

    @property
    def feasible(self) -> bool:
        return self.status is SolutionStatus.FEASIBLE


def sinr_targets(demands_mbps, config: NetworkConfig):
    """Per-user SINR targets iota and the constants mu = (iota+1)/iota, of
    demands of any shape (a batch of states is (B, n)).

    iota_i = margin * (2^(R_i/B) - 1); mu is +inf for users demanding nothing.
    """
    demands_mbps = np.asarray(demands_mbps, dtype=float)
    if (demands_mbps < 0).any():
        raise ValueError("demands must be >= 0")
    rate_bps = demands_mbps * 1e6
    iota = config.sinr_margin * (2.0 ** (rate_bps / config.bandwidth_hz) - 1.0)
    mu = np.full_like(iota, np.inf)
    np.divide(iota + 1.0, iota, out=mu, where=iota > 0)
    return iota, mu


def solve_beamforming(problem: BeamformingProblem,
                      params: SolverParams = SolverParams()) -> BeamformingSolution:
    """Solve one minimal-power beamforming instance.

    Returns a feasible solution in which every served user's SINR equals its
    target (within tolerance), or an infeasibility verdict. Raises
    SolverFailure on fixed-point oscillation, which cannot happen for an
    exactly evaluated interference map.
    """
    solved = solve_states(problem.channel[None],
                          np.ones((1, len(problem.active_set)), dtype=bool),
                          problem.sinr_targets[None], problem.per_rrh_cap_w[None],
                          np.array([problem.noise_w]), params)
    verdict = solved.verdicts[0]
    if isinstance(verdict, SolverFailure):
        raise verdict
    return BeamformingSolution(
        weights=solved.weights[0], total_tx_w=float(solved.totals[0]),
        per_rrh_tx_w=solved.per_rrh[0], status=verdict,
        iterations=int(solved.iterations[0]), residual=float(solved.residuals[0]))


@dataclass
class SolvedStates:
    """What `solve_states` found for each state of a batch."""

    verdicts: list          # a SolutionStatus, or the SolverFailure that ended it
    iterations: np.ndarray  # (B,) fixed-point iterations, 0 when none ran
    residuals: np.ndarray   # (B,) the last fixed-point residual
    totals: np.ndarray      # (B,) total transmit power, 0 without beams
    weights: np.ndarray     # (B, m, n), zero on sleeping RRHs and unserved users
    per_rrh: np.ndarray     # (B, m) transmit power of each RRH


def solve_states(gains, active, iota, caps, noise,
                 params: SolverParams = SolverParams()) -> SolvedStates:
    """Solve a batch of states of one m x n cell, posed as arrays.

    `gains` (B, m, n) is each state's channel (states may share one, as
    rows of an `np.broadcast_to` view), `active` (B, m) its on/off pattern,
    `iota` (B, n) its SINR targets, `caps` (B, m) its per-RRH power caps and
    `noise` (B,) its noise power. A state with no served user is feasible at
    zero power. Two kinds of state are SINR-infeasible before any iteration
    or QR, with 0 iterations and residual 0: one whose served user has no
    gain on the active RRHs (with no RRH active, every served user), and
    one whose ns served users outnumber its na active RRHs and whose load
    sum iota / (1 + iota) over them reaches na (the load certificate of
    the module docstring). The others are grouped by (served users, active
    RRHs), and each group's conjugated served channel block g (G, na, ns)
    is gathered at once and rotated into its served users' space (see
    `_Group`), so all states with the same number of served users share one
    fixed point and one downlink on stacked arrays, whatever their patterns
    and channels.
    """
    count, m = active.shape
    n = iota.shape[1]
    served = iota > 0
    solved = SolvedStates(
        verdicts=[SolutionStatus.FEASIBLE] * count,
        iterations=np.zeros(count, dtype=int), residuals=np.zeros(count),
        totals=np.zeros(count), weights=np.zeros((count, m, n), dtype=complex),
        per_rrh=np.zeros((count, m)))
    num_served = served.sum(axis=1)
    key = num_served * (m + 1) + active.sum(axis=1)
    # States by (served, active) count, in batch order within a key.
    posed = np.flatnonzero(num_served)
    if not len(posed):
        return solved
    order = posed[key[posed].argsort(kind="stable")]
    sorted_key = key[order]
    starts = [0, *(np.flatnonzero(sorted_key[1:] != sorted_key[:-1]) + 1).tolist()]
    stacks = {}
    for lo, hi in zip(starts, [*starts[1:], len(order)]):
        pos = order[lo:hi]
        ns, na = divmod(int(key[pos[0]]), m + 1)
        rrhs = np.nonzero(active[pos])[1].reshape(len(pos), na)
        users = np.nonzero(served[pos])[1].reshape(len(pos), ns)
        # Conjugate once so every inner product below is g^H w == h^T w.
        g = np.conj(gains[pos[:, None, None], rrhs[:, :, None], users[:, None, :]])
        targets = iota[pos[:, None], users]
        dead = np.logical_or.reduce(
            np.add.reduce(np.conj(g) * g, axis=1).real <= 0, axis=1)
        if ns > na:  # the load certificate (module docstring)
            dead |= np.add.reduce(targets / (1.0 + targets), axis=1) >= na
        if np.count_nonzero(dead):
            for k in pos[dead].tolist():
                solved.verdicts[k] = SolutionStatus.INFEASIBLE_SINR
            keep = ~dead
            if not keep.any():
                continue
            pos, rrhs, users, g = pos[keep], rrhs[keep], users[keep], g[keep]
            targets = targets[keep]
        stacks.setdefault(ns, []).append(_Group(
            pos, rrhs, users, *np.linalg.qr(g), targets, noise[pos],
            caps[pos[:, None], rrhs]))
    for groups in stacks.values():
        _solve_stack(groups, n, params, solved)
    return solved


@dataclass
class _Group:
    """Posed states of one shape (na active RRHs, ns served users) in a
    stack, rotated into their served users' space.

    Their conjugated served channels factor as g = u r (thin QR): u (G, na,
    k) has orthonormal columns, k = min(na, ns), and r (G, k, ns) goes into
    the stack padded with zero rows to (G, ns, ns). Because u^H u = I,
    g^H (noise I + g Q g^H)^{-1} g = r^H (noise I + r Q r^H)^{-1} r, and the
    MMSE directions (noise I + g Q g^H)^{-1} g are u times their r-space
    counterparts, whose rows past k are zero. So the fixed point and the
    downlink run on r, of one shape for all states with ns served users,
    and `weights` maps the beams back with u.
    """

    positions: np.ndarray  # (G,) of the states in the batch
    rrhs: np.ndarray       # (G, na) active RRH indices
    served: np.ndarray     # (G, ns) served user indices
    u: np.ndarray          # (G, na, k)
    r: np.ndarray          # (G, k, ns)
    iota: np.ndarray       # (G, ns) served targets
    noise: np.ndarray      # (G,)
    caps: np.ndarray       # (G, na)

    def weights(self, beams, num_users):
        """Weights (G, na, n), per-RRH powers (G, na), totals (G,) and cap
        violation flags (G,) from the group's r-space beams (G, ns, ns)."""
        count, na = self.caps.shape
        mapped = self.u @ beams[:, :self.u.shape[2]]  # (G, na, ns)
        weights = np.zeros((count, na, num_users), dtype=complex)
        # Each row's served columns take its beams: the index arrays
        # broadcast to (G, ns), and the sliced RRH axis goes last.
        weights[np.arange(count)[:, None], :, self.served] = mapped.swapaxes(1, 2)
        per_rrh = np.add.reduce(np.abs(weights) ** 2, axis=2)
        over_cap = np.logical_or.reduce(
            per_rrh > self.caps * (1.0 + 1e-9) + 1e-15, axis=1)
        return weights, per_rrh, np.add.reduce(per_rrh, axis=1), over_cap


def _solve_stack(groups, num_users, params, solved):
    """Fill in `solved` for the groups of one served-user count, from one
    fixed point and one downlink."""
    count = sum(len(group.positions) for group in groups)
    ns = groups[0].served.shape[1]
    r = np.zeros((count, ns, ns), dtype=complex)
    start = 0
    for group in groups:
        rows = slice(start, start + len(group.positions))
        r[rows, :group.r.shape[1]] = group.r
        start = rows.stop
    iota = np.concatenate([group.iota for group in groups])
    noise = np.concatenate([group.noise for group in groups])[:, None]
    cap_total = np.concatenate([np.add.reduce(group.caps, axis=1)
                                for group in groups])
    verdicts, q, iterations, residuals = _fixed_point(
        r, iota, noise, _DIVERGENCE_FACTOR * cap_total[:, None], params)

    done = [row for row, verdict in enumerate(verdicts) if verdict is None]
    if len(done) == count:  # the whole stack, without copies
        beams, negative = _downlink(r, iota, noise, q)
    else:
        beams = np.zeros_like(r)
        negative = np.zeros(count, dtype=bool)
        if done:
            beams[done], negative[done] = _downlink(
                r[done], iota[done], noise[done], q[done])
    start = 0
    for group in groups:
        pos = group.positions
        rows = slice(start, start + len(pos))
        weights, per_rrh, totals, over_cap = group.weights(beams[rows], num_users)
        solved.weights[pos[:, None], group.rrhs] = weights
        solved.per_rrh[pos[:, None], group.rrhs] = per_rrh
        solved.totals[pos] = totals
        solved.iterations[pos] = iterations[rows]
        solved.residuals[pos] = residuals[rows]
        for k, verdict, bad, over in zip(pos.tolist(), verdicts[rows],
                                         negative[rows].tolist(), over_cap.tolist()):
            if verdict is None:
                verdict = (SolverFailure(
                    "negative downlink power at a converged fixed point") if bad
                    else SolutionStatus.INFEASIBLE_CAP if over
                    else SolutionStatus.FEASIBLE)
            solved.verdicts[k] = verdict
        start = rows.stop


def _fixed_point(r, iota, noise, q_limit, params):
    """The virtual uplink fixed point of a stack of rotated problems `r`
    (B, ns, ns). Returns a verdict per row (None when it converged, else a
    SolverFailure or INFEASIBLE_SINR), the converged q (B, ns), and each
    row's iteration count and last residual."""
    count, ns, _ = r.shape
    verdicts = [None] * count
    # The live stack holds the problems still iterating: row r of it is
    # problem live[r] of the whole stack. A problem leaves in the iteration
    # that decides its verdict; a converged one leaves its q in q_fixed.
    # Reductions call the ufuncs' reduce: the arithmetic of np.sum and np.max
    # without their wrappers, which cost as much as the math on arrays this
    # small.
    live = np.arange(count)
    q_fixed = np.empty((count, ns))
    iterations = np.full(count, params.max_iterations)
    residuals = np.zeros(count)
    q = np.zeros((count, ns))
    live_r, live_rc, live_iota, live_noise, live_limit = (
        r, np.conj(r), iota, noise, q_limit)
    live_noise_eye = noise[:, :, None] * np.eye(ns)
    for it in range(1, params.max_iterations + 1):
        cov = (live_noise_eye
               + (live_r * q[:, None, :]) @ live_rc.swapaxes(1, 2))
        solved = np.linalg.solve(cov, live_r)  # cov^{-1} r, columnwise
        a = np.add.reduce(live_rc * solved, axis=1).real
        # Sherman-Morrison: r_i^H S_i^{-1} r_i = a_i / (1 - q_i a_i).
        downdate = 1.0 - q * a
        q_next = live_iota * downdate / a
        residual = np.maximum.reduce(
            np.abs(q_next - q) / np.maximum(q_next, live_noise), axis=1)
        broke = downdate <= 0
        oscillated = (q_next < q * (1.0 - _MONOTONE_SLACK)
                      - live_noise * _MONOTONE_SLACK)
        diverged = q_next > live_limit
        q = q_next
        exited = np.logical_or.reduce(broke | oscillated | diverged, axis=1)
        leaving = exited | (residual < params.tolerance)
        if not leaving.any():
            continue
        rows = np.flatnonzero(leaving)
        pos = live[rows]
        iterations[pos] = it
        residuals[pos] = residual[rows]
        exited = exited[rows]
        if exited.any():
            # A breakdown first, then oscillation, then divergence, all
            # checked before the tolerance.
            broke = np.logical_or.reduce(broke[rows], axis=1)
            oscillated = np.logical_or.reduce(oscillated[rows], axis=1) & ~broke
            for k in pos[broke].tolist():
                verdicts[k] = SolverFailure("interference downdate became non-positive")
            for k in pos[oscillated].tolist():
                verdicts[k] = SolverFailure("fixed-point iterates oscillated")
            for k in pos[exited & ~(broke | oscillated)].tolist():
                verdicts[k] = SolutionStatus.INFEASIBLE_SINR
        q_fixed[pos[~exited]] = q[rows[~exited]]
        stay = ~leaving
        live, q, residual = live[stay], q[stay], residual[stay]
        if not len(live):
            break
        live_r, live_rc, live_iota = live_r[stay], live_rc[stay], live_iota[stay]
        live_noise, live_limit = live_noise[stay], live_limit[stay]
        live_noise_eye = live_noise_eye[stay]
    # Monotone all the way and still moving: the targets are unreachable.
    for row, pos in enumerate(live):
        verdicts[pos] = SolutionStatus.INFEASIBLE_SINR
        residuals[pos] = residual[row]
    return verdicts, q_fixed, iterations, residuals


def _downlink(r, iota, noise, q):
    """r-space beams (B, ns, ns) and a negative-power flag of converged rows
    of a stack, from their fixed points `q` (B, ns)."""
    ns = r.shape[2]
    rh = np.conj(r).swapaxes(1, 2)
    # MMSE receive vectors at the fixed point give the beam directions
    # (the Sherman-Morrison rescaling leaves the direction unchanged).
    cov = noise[:, :, None] * np.eye(ns) + (r * q[:, None, :]) @ rh
    directions = np.linalg.solve(cov, r)
    directions = directions / np.linalg.norm(directions, axis=1, keepdims=True)

    # Downlink power scalars from the exact per-user target equalities.
    cross = np.abs(rh @ directions) ** 2  # cross[b, i, j] = |r_i^H w_j|^2
    system = -iota[:, :, None] * cross
    diag = np.arange(ns)
    system[:, diag, diag] = cross[:, diag, diag]
    powers = np.linalg.solve(system, (iota * noise)[:, :, None])[:, :, 0]
    negative = np.any(
        powers < -1e-12 * np.max(np.abs(powers), axis=1, keepdims=True), axis=1)
    return directions * np.sqrt(np.maximum(powers, 0.0))[:, None, :], negative


@dataclass(frozen=True)
class VerificationReport:
    achieved_sinr: np.ndarray
    targets: np.ndarray
    per_rrh_tx_w: np.ndarray
    total_tx_w: float
    max_rel_violation: float
    max_rel_slack: float
    sinr_ok: bool
    caps_ok: bool
    tight: bool
    power_consistent: bool


def verify_solution(solution: BeamformingSolution, problem: BeamformingProblem,
                    tol: float = 1e-6) -> VerificationReport:
    """Recompute every constraint of a feasible solution from scratch.

    At a true optimum every SINR target is met with equality, so both the
    violation and the slack must stay within `tol` (relative).
    """
    if not solution.feasible:
        raise ValueError("can only verify a feasible solution")
    channel = ChannelRealization(gains=problem.channel)
    iota = problem.sinr_targets
    served = iota > 0
    achieved = np.zeros(len(iota))
    for i in range(len(iota)):
        achieved[i] = compute_sinr(solution.weights, channel, i, problem.noise_w)
    rel = np.zeros(len(iota))
    rel[served] = achieved[served] / iota[served] - 1.0
    max_violation = float(max(0.0, -np.min(rel[served], initial=0.0)))
    max_slack = float(max(0.0, np.max(rel[served], initial=0.0)))

    per_rrh = np.sum(np.abs(solution.weights) ** 2, axis=1)
    total = float(np.sum(per_rrh))
    caps_ok = bool(np.all(per_rrh <= problem.per_rrh_cap_w * (1.0 + tol) + 1e-15))
    power_consistent = (
        abs(total - solution.total_tx_w) <= tol * max(total, 1e-30)
        and np.allclose(per_rrh, solution.per_rrh_tx_w, rtol=tol, atol=1e-30)
    )
    return VerificationReport(
        achieved_sinr=achieved,
        targets=iota,
        per_rrh_tx_w=per_rrh,
        total_tx_w=total,
        max_rel_violation=max_violation,
        max_rel_slack=max_slack,
        sinr_ok=max_violation <= tol,
        caps_ok=caps_ok,
        tight=max_violation <= tol and max_slack <= tol,
        power_consistent=power_consistent,
    )
