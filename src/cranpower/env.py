"""The RRH on/off control environment.

One step: apply the chosen flip (or no-op) to the on/off pattern, obtain the
minimal transmit power needed to serve the current demands (from the exact
solver or the boosted-tree surrogate), account the full system power, emit
the reward P_UB - P_total, and resample demands for the next slot. An
unservable demand profile ends the episode with the reward -P_UB.

Each environment owns its channel, and a reward source answers (channel,
pattern, demands) states. `step_all` steps envs that share one reward source
in lockstep, like a vectorised environment: one `transmit_powers` call
answers all their next states, each on its env's channel, then each step
finishes. `Environment.step` is `step_all` on one env: one step path.

The exact source poses a batch as arrays (each distinct channel once, the
patterns, the SINR targets of all demands in one computation) and reads
every answer from the verdict and power arrays of `beamform.solve_states`;
it builds no solver problem or solution per state. Its `transmit_power` is
a batch of one.

Both reward sources share the exact standby/transition accounting; they can
only differ in the transmit term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gbdt
# Nothing here calls `solve_beamforming`; perfbench's tracer wraps it under
# this module's name, so the name stays.
from .beamform import (  # noqa: F401
    SolutionStatus,
    SolverFailure,
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


# States `ExactSolverReward.transmit_powers` solves in one batch. The
# states of a batch with the same number of served users share one stack,
# which holds about 3 KB a state at its peak. On the default cell (2 vCPUs),
# `gen-data` (20,000 rows) took 2.31 s in batches of 256, 2.12 s in batches
# of 512 and 2.07 s in batches of 1024 (medians of 8 runs, each within
# about 0.4 s of the others), at a peak RSS of 48.1-48.2, 48.2-48.4 and
# 49.3-49.4 MB.
SOLVE_CHUNK = 512


class ExactSolverReward:
    """Transmit power from the exact beamforming solver."""

    def __init__(self, config: NetworkConfig,
                 solver_params: SolverParams = SolverParams()):
        self.config = config
        self.solver_params = solver_params

    def transmit_power(self, channel, pattern, demands_mbps):
        """Returns (minimal transmit power in W, feasible flag): a batch of
        one, which raises its SolverFailure."""
        answer = self.transmit_powers([channel], [pattern], [demands_mbps])[0]
        if isinstance(answer, SolverFailure):
            raise answer
        return answer

    def transmit_powers(self, channels, patterns, demands_mbps) -> list:
        """One entry per state: its (power, feasible) pair or the
        SolverFailure solving it raised. The batch is posed as arrays and
        solved by `solve_states`, `SOLVE_CHUNK` states at a time. A state
        whose channel, pattern or demands do not fit the cell, or a negative
        demand anywhere, raises ValueError before anything is solved."""
        m, n = self.config.num_rrhs, self.config.num_users
        for k, (channel, pattern, demands) in enumerate(
                zip(channels, patterns, demands_mbps)):
            if (channel.gains.shape != (m, n) or len(pattern) != m
                    or len(demands) != n):
                raise ValueError(
                    f"state {k}: channel {channel.gains.shape[0]}x"
                    f"{channel.gains.shape[1]}, pattern of {len(pattern)} RRHs and "
                    f"demands of {len(demands)} users do not fit the {m}x{n} cell")
        if not len(patterns):
            return []
        # Each distinct channel once; states point at theirs.
        distinct = {id(channel): channel for channel in channels}
        slot = {key: c for c, key in enumerate(distinct)}
        gains = np.array([channel.gains for channel in distinct.values()])
        channel_of = np.array([slot[id(channel)] for channel in channels])
        active = np.array(patterns, dtype=bool)
        iota = sinr_targets(np.array(demands_mbps, dtype=float), self.config)[0]
        caps = np.full(active.shape, self.config.max_tx_power_w)
        noise = np.full(len(active), self.config.noise_power_w)
        answers = []
        for start in range(0, len(active), SOLVE_CHUNK):
            rows = slice(start, start + SOLVE_CHUNK)
            solved = solve_states(gains, channel_of[rows], active[rows], iota[rows],
                                  caps[rows], noise[rows], self.solver_params)
            answers += [
                (total, True) if verdict is SolutionStatus.FEASIBLE
                else verdict if isinstance(verdict, SolverFailure) else (0.0, False)
                for verdict, total in zip(solved.verdicts, solved.totals.tolist())]
        return answers


class SurrogateReward:
    """Transmit power from the boosted-tree model; a companion model trained
    on solver feasibility labels (1 or 0) gates the infeasibility penalty at
    a score of 0.5."""

    def __init__(self, model: gbdt.GbdtModel, feasibility_model: gbdt.GbdtModel):
        self.model = model
        self.feasibility_model = feasibility_model

    def transmit_power(self, channel, pattern, demands_mbps):
        """(power, feasible) of one state; the models ignore the channel."""
        features = np.concatenate([np.asarray(pattern, dtype=float),
                                   np.asarray(demands_mbps, dtype=float)])
        score = gbdt.predict(self.feasibility_model, features)
        if score < 0.5:
            return 0.0, False
        # Leaf averages can dip below zero where targets do not support them.
        return max(0.0, gbdt.predict(self.model, features)), True

    def transmit_powers(self, channels, patterns, demands_mbps) -> list:
        """`transmit_power` of each state in turn."""
        return [self.transmit_power(c, p, d)
                for c, p, d in zip(channels, patterns, demands_mbps)]


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

    def _finish(self, next_pattern, answer) -> StepResult:
        """The rest of a step to `next_pattern` once the reward source's
        (transmit power, feasible) answer is known: power accounting,
        reward, the next slot's demands and the terminal flag."""
        tx_w, feasible = answer
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
    reward source, which answers all their next states in one
    `transmit_powers` call. A bad env or action, or a SolverFailure in any
    env, is raised before any env moves on."""
    source = envs[0].reward_source
    for env in envs:
        if env.reward_source is not source:
            raise ValueError("step_all needs envs that share one reward source")
        if env.current is None:
            raise RuntimeError("environment must be reset before stepping")
    patterns = [apply_action(env.current.rrh_active, action)
                for env, action in zip(envs, actions)]
    answers = source.transmit_powers([env.channel for env in envs], patterns,
                                     [env.current.demands_mbps for env in envs])
    for answer in answers:
        if isinstance(answer, SolverFailure):
            raise answer
    return [env._finish(pattern, answer)
            for env, pattern, answer in zip(envs, patterns, answers)]
