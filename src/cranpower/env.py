"""The RRH on/off control environment: K envs of one cell, as arrays.

`Environment` holds K envs as rows that share one reward source and one
demand generator: channel gains (K, m, n), patterns (K, m), demands (K, n)
and slot counters (K,). Every row starts when the env is built, from the
patterns and demands it is given, and `restart` starts rows in place after
that. One `step(actions)` applies every row's flip (or no-op) to its
pattern, obtains the minimal transmit powers needed to serve the rows'
current demands in one `solve` of the reward source, accounts the full
system power, emits the rewards P_UB - P_total, and draws every row's next
demands in one (K, n) draw, which equals K draws of one row each in row
order. An unservable demand profile ends its row's episode with the reward
-P_UB. A bad action, or the first SolverFailure of any row, is raised
before any row moves. A run of one env is the same thing with K = 1.

Both reward sources answer a batch of states of their config's cell
through one contract, `solve(gains, patterns, demands) -> (power, feasible,
failures)`: each state's channel gains (B, m, n), pattern (B, m) and
demands (B, n) in; transmit powers (0 where not servable), feasible flags
and {state index: SolverFailure} out. States that share a channel may pass
it as rows of one `np.broadcast_to` view, which nothing copies. Both refuse
a batch that does not fit the cell (`check_states`) before answering any
state, and both answer one state through the same batch-of-one
`transmit_power`.

The exact source reads every answer from the verdict and power arrays of
`beamform.solve_states`, with no solver problem or solution per state; it
is the only code outside `beamform` that poses states to the solver. The
surrogate makes one feasibility prediction of a batch and one power
prediction of the states that pass the gate, and never fails.

A step charges the slot's power with array ops, all in `Environment.step`:
`netmodel.state_and_transition_power`'s standby and mode-switch terms plus
the transmit term, the source's transmit power over the amplifier
efficiency (0 for an unservable slot). So the two reward sources can only
differ in the transmit term.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import gbdt
# Nothing here calls `solve_beamforming`; perfbench's tracer wraps it under
# this module's name, so the name stays.
from .beamform import (  # noqa: F401
    SolutionStatus,
    SolverParams,
    sinr_targets,
    solve_beamforming,
    solve_states,
)
from .netmodel import (
    NetworkConfig,
    sample_demands,
    state_and_transition_power,
)


def apply_action(patterns, actions) -> np.ndarray:
    """Flip RRH `actions[k]` of each pattern `patterns[k]` (..., m), or
    leave the pattern alone where the action is m; a pattern (m,) takes one
    action."""
    patterns = np.asarray(patterns, dtype=bool)
    actions = np.asarray(actions)
    m = patterns.shape[-1]
    if actions.shape != patterns.shape[:-1] or actions.dtype.kind not in "iu":
        raise ValueError(f"actions {actions.shape} of {actions.dtype} do not fit "
                         f"patterns {patterns.shape}: one integer a pattern")
    listed = actions.ravel().tolist()
    if listed and not 0 <= min(listed) <= max(listed) <= m:
        raise ValueError(f"actions {min(listed)}..{max(listed)} out of range [0, {m}]")
    return patterns ^ (actions[..., None] == np.arange(m))


def p_upper_bound(config: NetworkConfig) -> float:
    """Loosest single-slot system power: every RRH active, at full transmit
    power, and switching mode."""
    return config.num_rrhs * (
        config.active_power_w
        + config.max_tx_power_w / config.amplifier_efficiency
        + config.transition_power_w
    )


def encode_states(patterns, demands_mbps, demand_max_mbps: float) -> np.ndarray:
    """Network input features of states (..., m) and (..., n): the on/off
    bits as 0/1, then the demands over `demand_max_mbps` (over 1 when it is
    0)."""
    scale = demand_max_mbps if demand_max_mbps > 0 else 1.0
    return np.concatenate([patterns.astype(float), demands_mbps / scale], axis=-1)


def check_states(config: NetworkConfig, gains, patterns, demands_mbps):
    """Raise ValueError unless a batch posed as arrays fits the config's
    cell: `gains` is (B, m, n), `patterns` (B, m) and `demands_mbps` (B, n)."""
    m, n = config.num_rrhs, config.num_users
    count = len(gains)
    if (gains.shape, patterns.shape, demands_mbps.shape) != (
            (count, m, n), (count, m), (count, n)):
        raise ValueError(
            f"gains {gains.shape}, patterns {patterns.shape} and demands "
            f"{demands_mbps.shape} do not fit {count} states of the {m}x{n} cell")


# States `ExactSolverReward.solve` poses to `solve_states` at once. The
# states of a batch with the same number of served users share one stack,
# which holds about 3 KB a state at its peak. On the default cell (2 vCPUs),
# `gen-data` (20,000 rows) took 2.31 s in batches of 256, 2.12 s in batches
# of 512 and 2.07 s in batches of 1024 (medians of 8 runs, each within
# about 0.4 s of the others), at a peak RSS of 48.1-48.2, 48.2-48.4 and
# 49.3-49.4 MB.
SOLVE_CHUNK = 512


class _RewardSource:
    """What the two reward sources share: `solve` answers a batch posed as
    arrays, and `transmit_power` is `solve` on a batch of one."""

    def transmit_power(self, channel, pattern, demands_mbps):
        """Returns (minimal transmit power in W, feasible flag) of one
        state, and raises its SolverFailure."""
        power, feasible, failures = self.solve(
            channel.gains[None], np.asarray(pattern, dtype=bool)[None],
            np.asarray(demands_mbps, dtype=float)[None])
        if failures:
            raise failures[0]
        return float(power[0]), bool(feasible[0])


class ExactSolverReward(_RewardSource):
    """Transmit power from the exact beamforming solver. `solve` is its one
    way into the solver."""

    def __init__(self, config: NetworkConfig,
                 solver_params: SolverParams = SolverParams()):
        self.config = config
        self.solver_params = solver_params

    def solve(self, gains, patterns, demands_mbps):
        """The minimal transmit powers, feasible flags and failures of a
        batch, as the module docstring sets them out. It builds the SINR
        targets, caps and noise of the batch and solves it `SOLVE_CHUNK`
        states at a time with `solve_states`. A state whose solve broke down
        counts as not feasible. Arrays that do not fit the cell, or a
        negative demand anywhere, raise ValueError before anything is
        solved."""
        check_states(self.config, gains, patterns, demands_mbps)
        count = len(gains)
        iota = sinr_targets(demands_mbps, self.config)[0]
        caps = np.full(patterns.shape, self.config.max_tx_power_w)
        noise = np.full(count, self.config.noise_power_w)
        verdicts, totals = [], np.zeros(count)
        for start in range(0, count, SOLVE_CHUNK):
            rows = slice(start, start + SOLVE_CHUNK)
            solved = solve_states(gains[rows], patterns[rows], iota[rows], caps[rows],
                                  noise[rows], self.solver_params)
            verdicts += solved.verdicts
            totals[rows] = solved.totals
        feasible = np.array([verdict is SolutionStatus.FEASIBLE for verdict in verdicts],
                            dtype=bool)
        failures = {k: verdict for k, verdict in enumerate(verdicts)
                    if not isinstance(verdict, SolutionStatus)}
        return np.where(feasible, totals, 0.0), feasible, failures


# The feasibility model's score at and above which the surrogate counts a
# state as servable; below it, the state is unservable.
FEASIBILITY_THRESHOLD = 0.5


class SurrogateReward(_RewardSource):
    """Transmit power from the boosted-tree model; a companion model trained
    on solver feasibility labels (1 or 0) gates the infeasibility penalty at
    a score of `FEASIBILITY_THRESHOLD`."""

    def __init__(self, config: NetworkConfig, model: gbdt.GbdtModel,
                 feasibility_model: gbdt.GbdtModel):
        self.config = config
        self.model = model
        self.feasibility_model = feasibility_model

    def solve(self, gains, patterns, demands_mbps):
        """`ExactSolverReward.solve`'s answers from the models, which ignore
        the gains: one walk of both models over the batch, whose power
        prediction counts only for the states that pass the gate. Nothing
        fails."""
        check_states(self.config, gains, patterns, demands_mbps)
        features = np.concatenate([patterns, demands_mbps], axis=1, dtype=float)
        score, power = gbdt.predict_pair(self.feasibility_model, self.model, features)
        feasible = score >= FEASIBILITY_THRESHOLD
        # Leaf averages can dip below zero where targets do not support them.
        return np.where(feasible & (power > 0.0), power, 0.0), feasible, {}


class Slot(NamedTuple):
    """What one step charged each row, as (K,) arrays: the transmit,
    standby, mode-switch and total watts, the reward, and whether the row
    was servable and whether its episode ended."""

    transmit_w: np.ndarray
    state_w: np.ndarray
    transition_w: np.ndarray
    total_w: np.ndarray
    reward: np.ndarray
    feasible: np.ndarray
    terminal: np.ndarray


class Environment:
    """K envs of one cell, stepped in lockstep as arrays. Row k is an
    episode on the channel gains `gains[k]` (m, n), at the on/off pattern
    `patterns[k]` with the demands `demands[k]`, `slots[k]` slots in. Every
    row starts at slot 0 when the env is built, from `patterns` (K, m) and
    `demands` (K, n); after that, only `restart` starts rows. Rows may share
    one channel through an `np.broadcast_to` view. The rows share one demand
    generator and one reward source, whose `solve` checks the arrays' shapes
    against the cell at every step, before any row moves."""

    def __init__(self, config: NetworkConfig, gains, patterns, demands, reward_source,
                 rng: np.random.Generator, episode_length: int | None = None):
        shape = (len(gains), config.num_rrhs)
        patterns = np.array(patterns, dtype=bool)
        if patterns.shape != shape:
            raise ValueError(f"initial patterns {patterns.shape} do not fit {shape}")
        self.config = config
        self.gains = gains
        self.patterns = patterns
        self.demands = np.array(demands, dtype=float)
        self.reward_source = reward_source
        self.rng = rng
        self.episode_length = episode_length
        self.p_upper_bound_w = p_upper_bound(config)
        self.slots = np.zeros(shape[0], dtype=np.int64)

    def restart(self, rows, gains, patterns, demands):
        """Start a new episode in each of `rows`, in place: on its channel
        gains of `gains`, from its pattern and demands. The gains are written
        into `self.gains`, so an env that restarts rows must own a writable
        gains array, not a broadcast view."""
        self.gains[rows] = gains
        self.patterns[rows] = patterns
        self.demands[rows] = demands
        self.slots[rows] = 0

    def keep(self, rows):
        """Keep only `rows`, in their order; the others are dropped."""
        self.gains, self.patterns, self.demands, self.slots = (
            self.gains[rows], self.patterns[rows], self.demands[rows], self.slots[rows])

    def step(self, actions) -> Slot:
        """Step every row by its action: flip the patterns, answer all next
        states in one `solve` of the reward source, each on its row's
        gains, charge the slot's power, and draw every row's next demands
        at once. A bad action, or the first SolverFailure of any row, is
        raised before any row moves."""
        config = self.config
        patterns = apply_action(self.patterns, actions)
        tx_w, feasible, failures = self.reward_source.solve(
            self.gains, patterns, self.demands)
        if failures:
            raise failures[min(failures)]
        state_w, transition_w = state_and_transition_power(self.patterns, patterns, config)
        transmit_w = np.where(feasible, tx_w / config.amplifier_efficiency, 0.0)
        total_w = transmit_w + state_w + transition_w
        reward = np.where(feasible, self.p_upper_bound_w - total_w, -self.p_upper_bound_w)
        self.slots = self.slots + 1
        terminal = ~feasible
        if self.episode_length is not None:
            terminal |= self.slots >= self.episode_length
        self.patterns = patterns
        self.demands = sample_demands(config, self.rng, len(patterns))
        return Slot(transmit_w, state_w, transition_w, total_w, reward, feasible, terminal)
