"""The RRH on/off control environment.

One step: apply the chosen flip (or no-op) to the on/off pattern, obtain the
minimal transmit power needed to serve the current demands (from the exact
solver or the boosted-tree surrogate), account the full system power, emit
the reward P_UB - P_total, and resample demands for the next slot. An
unservable demand profile ends the episode with the reward -P_UB.

Each environment owns its channel. Both reward sources answer a batch of
states of their config's cell through one contract, `solve(channels,
channel_of, patterns, demands) -> (power, feasible, failures)`: the
channels and each state's index into them, patterns (B, m) and demands
(B, n) in; transmit powers (0 where not servable), feasible flags and
{state index: SolverFailure} out. Both refuse a batch that does not fit the
cell (`check_states`) before answering any state, and both answer one state
through the same batch-of-one `transmit_power`. `step_all` steps envs that
share one reward source in lockstep, like a vectorised environment: one
`solve` answers all their next states, each on its env's channel, and the
first SolverFailure is raised before any env moves. `Environment.step` is
`step_all` on one env: one step path.

The exact source reads every answer from the verdict and power arrays of
`beamform.solve_states`, with no solver problem or solution per state; it
is the only code outside `beamform` that poses states to the solver. The
surrogate makes one feasibility prediction of a batch and one power
prediction of the states that pass the gate, and never fails.

A step charges the slot's power in `Environment._finish`, where every
reported watt is summed: `netmodel.state_and_transition_power`'s standby and
mode-switch terms plus the transmit term, the source's transmit power over
the amplifier efficiency (0 for an unservable slot). So the two reward
sources can only differ in the transmit term.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ChannelRealization,
    NetworkConfig,
    PowerBreakdown,
    SystemState,
    sample_demands,
    state_and_transition_power,
)


def apply_action(pattern, action: int) -> np.ndarray:
    """Flip RRH `action`, or leave the pattern alone when action == m."""
    pattern = np.asarray(pattern, dtype=bool)
    if not 0 <= action <= pattern.size:
        raise ValueError(f"action {action} out of range [0, {pattern.size}]")
    out = pattern.copy()
    if action < pattern.size:
        out[action] = ~out[action]
    return out


def p_upper_bound(config: NetworkConfig) -> float:
    """Loosest single-slot system power: every RRH active, at full transmit
    power, and switching mode."""
    return config.num_rrhs * (
        config.active_power_w
        + config.max_tx_power_w / config.amplifier_efficiency
        + config.transition_power_w
    )


def encode_state(state: SystemState, config: NetworkConfig) -> np.ndarray:
    """Network input features: on/off bits as 0/1, demands scaled to [0, 1]."""
    scale = config.demand_max_mbps if config.demand_max_mbps > 0 else 1.0
    return np.concatenate([state.rrh_active.astype(float),
                           state.demands_mbps / scale])


def check_states(config: NetworkConfig, channels, channel_of, patterns,
                 demands_mbps):
    """Raise ValueError unless a batch posed as arrays fits the config's
    cell: every channel is m x n, `channel_of` (B,) indexes into `channels`,
    `patterns` is (B, m) and `demands_mbps` (B, n)."""
    m, n = config.num_rrhs, config.num_users
    for c, channel in enumerate(channels):
        if channel.gains.shape != (m, n):
            raise ValueError(f"channel {c} is {channel.gains.shape[0]}x"
                             f"{channel.gains.shape[1]}, not the {m}x{n} cell's")
    count = len(channel_of)
    if (patterns.shape, demands_mbps.shape) != ((count, m), (count, n)):
        raise ValueError(
            f"patterns {patterns.shape} and demands {demands_mbps.shape} do not "
            f"fit {count} states of the {m}x{n} cell")
    # A negative index would quietly pick a channel from the end.
    indices = channel_of.tolist()
    if indices and not 0 <= min(indices) <= max(indices) < len(channels):
        raise ValueError(f"channel indices {min(indices)}..{max(indices)} do not "
                         f"index {len(channels)} channels")


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
            [channel], np.zeros(1, dtype=np.intp), np.asarray(pattern, dtype=bool)[None],
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

    def solve(self, channels, channel_of, patterns, demands_mbps):
        """The minimal transmit powers, feasible flags and failures of a
        batch, as the module docstring sets them out. It builds the SINR
        targets, caps and noise of the batch and solves it `SOLVE_CHUNK`
        states at a time with `solve_states`. A state whose solve broke down
        counts as not feasible. Arrays that do not fit the cell, or a
        negative demand anywhere, raise ValueError before anything is
        solved."""
        check_states(self.config, channels, channel_of, patterns, demands_mbps)
        count = len(channel_of)
        gains = np.array([channel.gains for channel in channels])
        iota = sinr_targets(demands_mbps, self.config)[0]
        caps = np.full(patterns.shape, self.config.max_tx_power_w)
        noise = np.full(count, self.config.noise_power_w)
        verdicts, totals = [], np.zeros(count)
        for start in range(0, count, SOLVE_CHUNK):
            rows = slice(start, start + SOLVE_CHUNK)
            solved = solve_states(gains, channel_of[rows], patterns[rows], iota[rows],
                                  caps[rows], noise[rows], self.solver_params)
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

    def solve(self, channels, channel_of, patterns, demands_mbps):
        """`ExactSolverReward.solve`'s answers from the models, which ignore
        the channels: one walk of both models over the batch, whose power
        prediction counts only for the states that pass the gate. Nothing
        fails."""
        check_states(self.config, channels, channel_of, patterns, demands_mbps)
        features = np.concatenate([patterns, demands_mbps], axis=1, dtype=float)
        score, power = gbdt.predict_pair(self.feasibility_model, self.model, features)
        feasible = score >= FEASIBILITY_THRESHOLD
        # Leaf averages can dip below zero where targets do not support them.
        return np.where(feasible & (power > 0.0), power, 0.0), feasible, {}


@dataclass
class StepResult:
    next_state: SystemState
    reward: float
    power: PowerBreakdown
    feasible: bool
    terminal: bool


class Environment:
    """Single-threaded slot-by-slot simulation of the controlled cell."""

    def __init__(self, config: NetworkConfig, channel: ChannelRealization,
                 reward_source, rng: np.random.Generator,
                 episode_length: int | None = None):
        if channel.gains.shape != (config.num_rrhs, config.num_users):
            raise ValueError("channel dimensions do not match the config")
        self.config = config
        self.channel = channel
        self.reward_source = reward_source
        self.rng = rng
        self.episode_length = episode_length
        self.p_upper_bound_w = p_upper_bound(config)
        self.slot_counter = 0
        self.current = None

    def reset(self, initial_pattern=None) -> SystemState:
        """Start an episode: set the pattern, draw fresh demands, zero the
        slot counter."""
        if initial_pattern is None:
            pattern = np.ones(self.config.num_rrhs, dtype=bool)
        else:
            pattern = np.asarray(initial_pattern, dtype=bool).copy()
            if pattern.size != self.config.num_rrhs:
                raise ValueError("initial pattern length must equal num_rrhs")
        self.current = SystemState(rrh_active=pattern,
                                   demands_mbps=sample_demands(self.config, self.rng))
        self.slot_counter = 0
        return self.current

    def force_pattern(self, pattern):
        """Override the pattern without consuming demand draws (recovery after
        an infeasible slot in a continuous run)."""
        pattern = np.asarray(pattern, dtype=bool).copy()
        if pattern.size != self.config.num_rrhs:
            raise ValueError("pattern length must equal num_rrhs")
        self.current = SystemState(rrh_active=pattern,
                                   demands_mbps=self.current.demands_mbps)

    def step(self, action: int) -> StepResult:
        return step_all([self], [action])[0]

    def _finish(self, next_pattern, tx_w: float, feasible: bool) -> StepResult:
        """The rest of a step to `next_pattern` once the reward source's
        transmit power and feasible flag are known: power accounting,
        reward, the next slot's demands and the terminal flag."""
        prev_pattern = self.current.rrh_active
        state_w, transition_w = state_and_transition_power(
            prev_pattern, next_pattern, self.config)
        transmit_w = tx_w / self.config.amplifier_efficiency if feasible else 0.0
        total_w = transmit_w + state_w + transition_w
        reward = self.p_upper_bound_w - total_w if feasible else -self.p_upper_bound_w
        power = PowerBreakdown(transmit_w=transmit_w, state_w=state_w,
                               transition_w=transition_w, total_w=total_w)

        self.slot_counter += 1
        terminal = not feasible or (self.episode_length is not None
                                    and self.slot_counter >= self.episode_length)
        next_state = SystemState(
            rrh_active=next_pattern,
            demands_mbps=sample_demands(self.config, self.rng))
        self.current = next_state
        return StepResult(next_state=next_state, reward=reward, power=power,
                          feasible=feasible, terminal=terminal)


def step_all(envs, actions) -> list:
    """Step every env with its action, in order. The envs must share one
    reward source, which answers all their next states in one `solve`, one
    channel per env. A bad env or action, or the first SolverFailure of any
    env, is raised before any env moves on."""
    source = envs[0].reward_source
    for env in envs:
        if env.reward_source is not source:
            raise ValueError("step_all needs envs that share one reward source")
        if env.current is None:
            raise RuntimeError("environment must be reset before stepping")
    patterns = [apply_action(env.current.rrh_active, action)
                for env, action in zip(envs, actions)]
    power, feasible, failures = source.solve(
        [env.channel for env in envs], np.arange(len(envs)), np.array(patterns),
        np.array([env.current.demands_mbps for env in envs]))
    if failures:
        raise failures[min(failures)]
    return [env._finish(pattern, tx_w, ok) for env, pattern, tx_w, ok
            in zip(envs, patterns, power.tolist(), feasible.tolist())]
