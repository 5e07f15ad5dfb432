"""Orchestration of the whole workbench: dataset generation through the
exact solver, offline training of the boosted-tree surrogate and of the DQN
(its episodes the rows of one `env.Environment`, with one batched exact
solve a step), online greedy evaluation with regular tuning (one row stepped
slot by slot), the all-on / one-closed baselines (one step of a row a slot),
the timing benchmark, and the paired error-tolerance comparison.

A run's `EvalReport` holds its arrays, and `write_csv` writes every CSV
from columns.

Every command is a pure function of (config, seeds): rerunning it with the
same inputs reproduces every non-timing output byte for byte. Randomness is
split into three named seeds (data / train / eval), and derived streams are
spawned per purpose so the evaluation demand stream never depends on what
the policy does.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gbdt
from .beamform import SolverParams
from .dqn import (
    DqnParams,
    QNetwork,
    ReplayBuffer,
    load_checkpoint,
    save_checkpoint,
    select_action,
    sync_target,
    train_step,
)
from .env import (
    FEASIBILITY_THRESHOLD,
    SOLVE_CHUNK,
    Environment,
    ExactSolverReward,
    Slot,
    SurrogateReward,
    apply_action,
    encode_states,
    p_upper_bound,
)
from .netmodel import (
    ChannelRealization,
    ConfigError,
    NetworkConfig,
    config_from_dict,
    sample_channel,
    sample_demands,
)

SCHEME_DQN_GBDT = "DQN-GBDT"
SCHEME_DQN_SOCP = "DQN-SOCP"
SCHEME_AO = "AO"
SCHEME_OC = "OC"
DQN_SCHEMES = (SCHEME_DQN_GBDT, SCHEME_DQN_SOCP)

PATTERN_RANDOM = "random"
PATTERN_ALL_ON = "all-on"
PATTERN_ONE_OFF = "one-off"
PATTERN_MODES = (PATTERN_RANDOM, PATTERN_ALL_ON, PATTERN_ONE_OFF)

# Sub-stream ids hung off the named seeds; never reuse one for a new purpose.
_STREAM_DATASET = 0
_STREAM_SCATTER_ALL_ON = 1
_STREAM_SCATTER_ONE_OFF = 2
_STREAM_SCATTER_RANDOM = 3
_STREAM_TRAIN_NET = 0
_STREAM_TRAIN_ENV = 1
_STREAM_TRAIN_ACTIONS = 2
_STREAM_TRAIN_BUFFER = 3
_STREAM_TRAIN_CHANNELS = 4
_STREAM_EVAL_DEMANDS = 0
_STREAM_EVAL_TUNING = 1
_STREAM_EVAL_OC_PICK = 2
_STREAM_EVAL_BENCH = 3


@dataclass(frozen=True)
class Seeds:
    data: int = 1
    train: int = 2
    eval: int = 3

    def __post_init__(self):
        for name, seed in vars(self).items():
            if seed < 0:
                raise ValueError(f"seed '{name}' must be >= 0, got {seed}")


@dataclass
class RunConfig:
    network: NetworkConfig = field(default_factory=NetworkConfig)
    gbdt: gbdt.GbdtParams = field(default_factory=gbdt.GbdtParams)
    dqn: DqnParams = field(default_factory=DqnParams)
    solver: SolverParams = field(default_factory=SolverParams)
    dataset_size: int = 10_000
    eval_slots: int = 5_000
    seeds: Seeds = field(default_factory=Seeds)
    offline_episodes: int = 400
    holdout_fraction: float = 0.2
    r2_floor: float = 0.0
    fit_scatter_rows: int = 500
    redraw_channel: bool = False
    offline_envs: int = 1

    def __post_init__(self):
        if self.dataset_size < 1:
            raise ConfigError("dataset_size", "must be >= 1")
        if self.eval_slots < 0:
            raise ConfigError("eval_slots", "must be >= 0")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction", "must be in (0, 1)")
        if self.offline_episodes < 1:
            raise ConfigError("offline_episodes", "must be >= 1")
        if self.offline_envs < 1:
            raise ConfigError("offline_envs", "must be >= 1")
        if self.fit_scatter_rows < 0:
            raise ConfigError("fit_scatter_rows", "must be >= 0")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as f:
            return config_from_dict(cls, json.load(f))


def make_channel(config: RunConfig) -> ChannelRealization:
    """The run's fixed channel realization, derived from the data seed so
    every command reconstructs the identical channel."""
    return sample_channel(config.network, np.random.default_rng(config.seeds.data))


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_json(path, obj):
    """`obj` as JSON: sorted keys, two-space indent, a trailing newline."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_csv(path, header, columns):
    """A CSV of `header` and the rows of `columns`, equal-length arrays (read
    by `.tolist()`) or sequences, each value written by `_fmt`."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in zip(*columns):
            f.write(",".join(map(_fmt, row)) + "\n")


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

@dataclass
class DatasetRows:
    """Raw solver-labelled rows; infeasible rows keep the flag but carry no
    regression target."""

    features: np.ndarray      # (count, m+n) in state order [y_1..y_m, d_1..d_n]
    tx_power_w: np.ndarray    # nan where infeasible
    feasible: np.ndarray      # bool
    solver_failures: int = 0

    def __len__(self):
        return self.features.shape[0]

    def regression_view(self) -> gbdt.RegressionDataset:
        rows = self.feasible
        return gbdt.RegressionDataset(self.features[rows], self.tx_power_w[rows])

    def feasibility_view(self) -> gbdt.RegressionDataset:
        return gbdt.RegressionDataset(self.features, self.feasible.astype(float))


def _draw_states(network: NetworkConfig, mode: str, rng: np.random.Generator,
                 count: int):
    """`count` states drawn from `rng` in stream order: for each, its pattern
    code and then its demands. The code is nothing for all-on, the sleeping
    RRH for one-off, and for random the bits of an active set drawn
    uniformly from the 2^m - 1 non-empty ones. The codes are expanded into
    patterns in one array op, exact for up to 63 RRHs (`netmodel.MAX_RRHS`).

    Returns (patterns (count, m) bool, demands (count, n))."""
    m = network.num_rrhs
    code_range = {PATTERN_ONE_OFF: (0, m), PATTERN_RANDOM: (1, 2 ** m)}.get(mode)
    codes = np.zeros(count, dtype=np.int64)
    drawn = np.empty((count, network.num_users))
    for i in range(count):
        if code_range:
            codes[i] = rng.integers(*code_range)
        drawn[i] = sample_demands(network, rng)
    if mode == PATTERN_ALL_ON:
        patterns = np.ones((count, m), dtype=bool)
    elif mode == PATTERN_ONE_OFF:
        patterns = codes[:, None] != np.arange(m)
    else:
        patterns = ((codes[:, None] >> np.arange(m)) & 1).astype(bool)
    return patterns, drawn


def gen_dataset(config: RunConfig, count: int | None = None,
                pattern_mode: str = PATTERN_RANDOM,
                stream: int = _STREAM_DATASET) -> DatasetRows:
    """Label `count` random (pattern, demands) states with the exact solver.

    Each round draws the shortfall, `SOLVE_CHUNK` states at most, in stream
    order as arrays (`_draw_states`), poses them to the exact source's array
    entry `ExactSolverReward.solve` at once, and writes the kept rows with
    array ops. Rows on which the solver breaks down numerically are skipped
    (and counted) and made up by the next round, so the rows are those of
    skipping a failed state and drawing the next one state by state; the
    returned row count is always exactly `count`. A `pattern_mode` outside
    `PATTERN_MODES` raises ValueError before anything is drawn.
    """
    if pattern_mode not in PATTERN_MODES:
        raise ValueError(f"unknown pattern mode {pattern_mode!r}; expected one "
                         f"of {', '.join(PATTERN_MODES)}")
    count = config.dataset_size if count is None else count
    network = config.network
    channel = make_channel(config)
    rng = np.random.default_rng([config.seeds.data, stream])
    source = ExactSolverReward(network, config.solver)

    m = network.num_rrhs
    features = np.empty((count, m + network.num_users))
    tx_power = np.empty(count)
    feasible = np.empty(count, dtype=bool)
    failures = 0
    row = 0
    while row < count:
        patterns, demands = _draw_states(network, pattern_mode, rng,
                                         min(count - row, SOLVE_CHUNK))
        power, ok, failed = source.solve(
            np.broadcast_to(channel.gains, (len(patterns), *channel.gains.shape)),
            patterns, demands)
        if failed:
            kept = np.ones(len(patterns), dtype=bool)
            kept[list(failed)] = False
            patterns, demands, power, ok = (patterns[kept], demands[kept],
                                            power[kept], ok[kept])
            failures += len(failed)
        rows = slice(row, row + len(patterns))
        features[rows, :m] = patterns
        features[rows, m:] = demands
        tx_power[rows] = np.where(ok, power, np.nan)
        feasible[rows] = ok
        row = rows.stop
    return DatasetRows(features=features, tx_power_w=tx_power,
                       feasible=feasible, solver_failures=failures)


def dataset_header(m: int, n: int):
    return ([f"y_{i + 1}" for i in range(m)] + [f"d_{j + 1}" for j in range(n)]
            + ["p_tx_w", "feasible"])


def write_dataset_csv(rows: DatasetRows, path, config: RunConfig):
    m, n = config.network.num_rrhs, config.network.num_users
    write_csv(path, dataset_header(m, n),
              [*rows.features[:, :m].astype(int).T, *rows.features[:, m:].T,
               rows.tx_power_w, rows.feasible])


def read_dataset_csv(path, config: RunConfig) -> DatasetRows:
    m, n = config.network.num_rrhs, config.network.num_users
    expected = dataset_header(m, n)
    with open(path) as f:
        header = f.readline().strip().split(",")
        if header != expected:
            raise ConfigError("network", f"the dataset {path} is of another cell: "
                              f"its header is not the {m}x{n} cell's")
        raw = np.loadtxt(f, delimiter=",", ndmin=2)
    if raw.size == 0:
        raw = raw.reshape(0, m + n + 2)
    return DatasetRows(features=raw[:, :m + n], tx_power_w=raw[:, m + n],
                       feasible=raw[:, m + n + 1] > 0.5)


# ---------------------------------------------------------------------------
# Offline training
# ---------------------------------------------------------------------------

GBDT_MODEL_FILE = "gbdt_model.json"
FEASIBILITY_MODEL_FILE = "feasibility_model.json"
QNET_FILE = "qnet.ckpt"
REPLAY_FILE = "replay.ckpt"
TRAIN_LOG_FILE = "train_log.csv"
SUMMARY_FILE = "summary.json"
FIT_SCATTER_FILE = "fit_scatter.csv"


@dataclass
class Artifacts:
    gbdt_model: gbdt.GbdtModel
    feasibility_model: gbdt.GbdtModel
    qnet: QNetwork
    replay: ReplayBuffer

    def save(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        gbdt.save_model(self.gbdt_model, out_dir / GBDT_MODEL_FILE)
        gbdt.save_model(self.feasibility_model, out_dir / FEASIBILITY_MODEL_FILE)
        save_checkpoint(self.qnet, out_dir / QNET_FILE)
        self.replay.save(out_dir / REPLAY_FILE)

    @classmethod
    def load(cls, out_dir) -> "Artifacts":
        out_dir = Path(out_dir)
        return cls(
            gbdt_model=gbdt.load_model(out_dir / GBDT_MODEL_FILE),
            feasibility_model=gbdt.load_model(out_dir / FEASIBILITY_MODEL_FILE),
            qnet=load_checkpoint(out_dir / QNET_FILE),
            replay=ReplayBuffer.load(out_dir / REPLAY_FILE),
        )


def _fit_split(data: gbdt.RegressionDataset, config: RunConfig, stream: int):
    """A model fit on a random share of `data`, and the held-out rest (the
    config's holdout fraction, at least one row)."""
    perm = np.random.default_rng([config.seeds.train, stream]).permutation(len(data))
    cut = max(1, int(round(len(data) * config.holdout_fraction)))
    fit, held = perm[cut:], perm[:cut]
    model = gbdt.train(gbdt.RegressionDataset(data.features[fit], data.targets[fit]),
                       config.gbdt)
    return model, gbdt.RegressionDataset(data.features[held], data.targets[held])


class _Learner:
    """The DQN agent as it learns, in pre-training and in online tuning
    alike: its Q-network, fixed target and replay. Each transition learned
    is a step. Every `train_interval`-th step trains the net on a batch
    sampled with `rng`, once the replay holds one, and the target is synced
    at step 0 and after every `target_sync_interval`-th step."""

    def __init__(self, params: DqnParams, net: QNetwork, replay: ReplayBuffer,
                 rng: np.random.Generator):
        self.params = params
        self.net = net
        self.replay = replay
        self.rng = rng
        self.steps = 0
        self.loss = math.nan        # the loss of the latest training
        self._sync_when_due()

    def _sync_when_due(self):
        if self.steps % self.params.target_sync_interval == 0:
            self.target = sync_target(self.net)

    def learn(self, features, action: int, reward: float, next_features,
              terminal: bool) -> bool:
        """Learn from `action`, taken in the state encoded as `features`,
        its reward, the next state encoded as `next_features`, and whether
        it ended the episode. Returns whether it trained."""
        params = self.params
        self.replay.push(features, action, reward, next_features, terminal)
        self.steps += 1
        trained = (len(self.replay) >= params.batch_size
                   and self.steps % params.train_interval == 0)
        if trained:
            self.loss = train_step(self.net, self.target,
                                   self.replay.sample(params.batch_size, self.rng),
                                   params.gamma, params.learning_rate)
        self._sync_when_due()
        return trained


def train_offline(config: RunConfig, out_dir=None,
                  dataset: DatasetRows | None = None):
    """Fit the surrogate pair and pre-train the DQN with exact-solver rewards.

    The DQN runs `offline_episodes` episodes, up to `offline_envs` of them at
    once as the rows of one `Environment`, which gets their rewards in one
    exact batch a step, whatever their channels. The learner then takes each
    row's transition in row order, and the k-th row's action of a step uses
    the epsilon of the learner's step count + k, so with one row this is the
    plain one-episode-at-a-time loop.

    Returns (artifacts, summary). When `out_dir` is given, also persists the
    models, the Q-network checkpoint, the replay memory, the training log,
    and the fit-quality plot data.
    """
    if dataset is None:
        dataset = gen_dataset(config)
    m, n = config.network.num_rrhs, config.network.num_users
    if dataset.features.shape[1] != m + n:
        raise ValueError("dataset width does not match the configured cell")

    # --- surrogate pair -----------------------------------------------------
    t0 = time.perf_counter()
    model, holdout_set = _fit_split(dataset.regression_view(), config, 100)
    holdout_scores = gbdt.evaluate(model, holdout_set)
    if holdout_scores["r2"] < config.r2_floor:
        raise RuntimeError(
            f"held-out R^2 {holdout_scores['r2']:.4f} below the configured "
            f"floor {config.r2_floor}")

    flag_model, flag_holdout = _fit_split(dataset.feasibility_view(), config, 101)
    flag_preds = gbdt.predict_batch(flag_model, flag_holdout.features)
    flag_accuracy = float(np.mean((flag_preds >= FEASIBILITY_THRESHOLD)
                                  == flag_holdout.targets.astype(bool)))
    gbdt_seconds = time.perf_counter() - t0

    # --- DQN pre-training with exact rewards (the offline branch) -----------
    t0 = time.perf_counter()
    params = config.dqn
    rng_net, rng_env, rng_actions, rng_buffer, rng_channels = (
        np.random.default_rng([config.seeds.train, stream]) for stream in (
            _STREAM_TRAIN_NET, _STREAM_TRAIN_ENV, _STREAM_TRAIN_ACTIONS,
            _STREAM_TRAIN_BUFFER, _STREAM_TRAIN_CHANNELS))

    network = config.network
    fixed_channel = make_channel(config)
    learner = _Learner(params, QNetwork.initialize(
        [m + n] + list(params.hidden_sizes) + [m + 1], rng_net),
        ReplayBuffer(params.buffer_capacity), rng_buffer)
    log_rows = []
    last_return = math.nan
    started = 0

    def draw_episodes(count):
        """The channel gains (count, m, n), patterns and demands of the next
        `count` episodes, one episode after the other."""
        nonlocal started
        started += count
        gains = np.array([(sample_channel(network, rng_channels) if config.redraw_channel
                           else fixed_channel).gains for _ in range(count)])
        return (gains, *_draw_states(network, PATTERN_RANDOM, rng_env, count))

    # Up to `offline_envs` episodes run in lockstep, one a row of `env`. A
    # tick picks every row's action, steps all rows at once, then learns
    # from the transitions in row order as a one-env loop would. The rows'
    # next states are encoded at once and serve both their transitions and
    # the next tick's actions. A finished row starts the next episode in
    # place while episodes remain, and is dropped once none do.
    scale = network.demand_max_mbps
    gains, patterns, demands = draw_episodes(
        min(config.offline_envs, config.offline_episodes))
    env = Environment(network, gains, patterns, demands,
                      ExactSolverReward(network, config.solver), rng_env,
                      episode_length=params.episode_length)
    returns = np.zeros(len(gains))
    features = encode_states(env.patterns, env.demands, scale)
    while len(env.gains):
        epsilons = [params.epsilon_at(learner.steps + k) for k in range(len(features))]
        actions = [select_action(learner.net, f, epsilon, rng_actions)
                   for f, epsilon in zip(features, epsilons)]
        slot = env.step(actions)
        next_features = encode_states(env.patterns, env.demands, scale)
        returns += slot.reward
        for k, action in enumerate(actions):
            if learner.learn(features[k], action, slot.reward[k], next_features[k],
                             slot.terminal[k]):
                log_rows.append((learner.steps, learner.loss, epsilons[k], last_return))
            if slot.terminal[k]:
                last_return = float(returns[k])
        done = np.flatnonzero(slot.terminal)
        restarted = done[:config.offline_episodes - started]
        if len(restarted):
            gains, patterns, demands = draw_episodes(len(restarted))
            env.restart(restarted, gains, patterns, demands)
            returns[restarted] = 0.0
            next_features[restarted] = encode_states(patterns, demands, scale)
        if len(restarted) < len(done):
            kept = np.setdiff1d(np.arange(len(returns)), done[len(restarted):])
            env.keep(kept)
            returns, next_features = returns[kept], next_features[kept]
        features = next_features
    dqn_seconds = time.perf_counter() - t0

    artifacts = Artifacts(gbdt_model=model, feasibility_model=flag_model,
                          qnet=learner.net, replay=learner.replay)
    summary = {
        "dataset_rows": len(dataset),
        "dataset_feasible_rows": int(np.count_nonzero(dataset.feasible)),
        "solver_failures": dataset.solver_failures,
        "gbdt": {
            "rounds": len(model.trees),
            "train_mse_final": model.train_mse[-1],
            "holdout_mse": holdout_scores["mse"],
            "holdout_r2": holdout_scores["r2"],
        },
        "feasibility_model": {"holdout_accuracy": flag_accuracy},
        "dqn": {
            "episodes": config.offline_episodes,
            "steps": learner.steps,
            "final_loss": learner.loss,
            "final_epsilon": params.epsilon_at(learner.steps),
            "final_episode_return": last_return,
            "buffer_occupancy": len(learner.replay),
        },
    }
    timing = {"gbdt_fit_s": gbdt_seconds, "dqn_train_s": dqn_seconds}

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts.save(out_dir)
        write_csv(out_dir / TRAIN_LOG_FILE,
                  ["step", "loss", "epsilon", "episode_return"], zip(*log_rows))
        write_json(out_dir / SUMMARY_FILE, summary)
        if config.fit_scatter_rows > 0:
            _write_fit_scatter(config, artifacts, out_dir / FIT_SCATTER_FILE)
        write_json(out_dir / "train_timing.json", timing)
    summary["timing"] = timing
    return artifacts, summary


def _write_fit_scatter(config: RunConfig, artifacts: Artifacts, path):
    """Solver truth vs surrogate prediction under three pattern regimes,
    `fit_scatter_rows` states each."""
    regimes = [
        (PATTERN_ALL_ON, _STREAM_SCATTER_ALL_ON),
        (PATTERN_ONE_OFF, _STREAM_SCATTER_ONE_OFF),
        (PATTERN_RANDOM, _STREAM_SCATTER_RANDOM),
    ]
    data = [gen_dataset(config, count=config.fit_scatter_rows, pattern_mode=mode,
                        stream=stream) for mode, stream in regimes]
    write_csv(path, ["regime", "p_true_w", "p_pred_w", "feasible"],
              [np.repeat([mode for mode, _ in regimes], config.fit_scatter_rows),
               np.concatenate([d.tx_power_w for d in data]),
               gbdt.predict_batch(artifacts.gbdt_model,
                                  np.concatenate([d.features for d in data])),
               np.concatenate([d.feasible for d in data])])


# ---------------------------------------------------------------------------
# Online evaluation and baselines
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """A run of S slots: its actions (S,), the demands served (S, n), the
    patterns left (S, m), the Slot of (S,) arrays the controller charged
    (the surrogate's answers, for DQN-GBDT), and the ground truth
    `instant_w` and `feasible` (S,), unserved slots charged P_UB."""

    scheme: str
    actions: np.ndarray
    demands: np.ndarray
    patterns: np.ndarray
    charged: Slot
    instant_w: np.ndarray
    feasible: np.ndarray
    timing: dict

    @property
    def running_avg_w(self) -> np.ndarray:
        return np.cumsum(self.instant_w) / np.arange(1, len(self.instant_w) + 1)

    @property
    def average_power_w(self) -> float:
        return float(self.running_avg_w[-1]) if len(self.instant_w) else math.nan

    @property
    def infeasible_count(self) -> int:
        return int(np.count_nonzero(~self.feasible))

    def to_csv(self, path):
        """The ground truth of every slot, with the action taken."""
        write_csv(path, ["slot", "instant_w", "running_avg_w", "action", "feasible"],
                  [range(len(self.actions)), self.instant_w, self.running_avg_w,
                   self.actions, self.feasible])

    def trajectory_to_csv(self, path):
        """What the controller did and was charged, a row a slot."""
        users = [f"d_{j + 1}" for j in range(self.demands.shape[1])]
        texts = [row.tobytes().decode() for row in self.patterns.view(np.uint8) + ord("0")]
        write_csv(path, ["slot", "action", "pattern", *users, "transmit_w", "state_w",
                         "transition_w", "total_w", "reward", "feasible"],
                  # Every charged field but `terminal`.
                  [range(len(self.actions)), self.actions, texts, *self.demands.T,
                   *self.charged[:6]])


def _eval_env(config: RunConfig, channel, source, patterns) -> Environment:
    """The env of an evaluation run, started: one row a start pattern of
    `patterns` (S, m) on `channel`, with its first demands drawn from the
    eval demand stream, which then feeds every step; no episode end."""
    network = config.network
    rng = np.random.default_rng([config.seeds.eval, _STREAM_EVAL_DEMANDS])
    return Environment(network,
                       np.broadcast_to(channel.gains, (len(patterns), *channel.gains.shape)),
                       patterns, sample_demands(network, rng, len(patterns)), source, rng)


def _report(scheme: str, config: RunConfig, channel, actions, demands, charged: Slot,
            patterns, t_start, resolve: bool = False) -> EvalReport:
    """The `EvalReport` of a run of S slots, which keeps the arrays given. Its
    ground truth is what was `charged`, or with `resolve` the exact solver's
    re-solve of every slot's (pattern, demands) on `channel`: a slot's
    transmit term and feasibility are then the solver's, not the controller's."""
    network = config.network
    served, instants = charged.feasible, charged.total_w
    if resolve:
        # The ground truth never feeds back into control, so every slot is
        # re-solved in one batch after the run.
        true_tx, true_ok, failures = ExactSolverReward(network, config.solver).solve(
            np.broadcast_to(channel.gains, (len(actions), *channel.gains.shape)),
            patterns, demands)
        if failures:
            raise failures[min(failures)]
        served = served & true_ok
        instants = (charged.state_w + charged.transition_w
                    + true_tx / network.amplifier_efficiency)
    wall = time.perf_counter() - t_start
    timing = {"wall_s": wall, "s_per_slot": wall / len(actions) if len(actions) else math.nan}
    return EvalReport(scheme, actions, demands, patterns, charged,
                      np.where(served, instants, p_upper_bound(network)), served, timing)


def run_online(config: RunConfig, artifacts: Artifacts, slots: int,
               scheme: str = SCHEME_DQN_GBDT, tuning: bool = True,
               demand_scale_mbps: float | None = None) -> EvalReport:
    """Greedy online control for `slots` slots from the all-on pattern, with
    every RRH woken after a slot the controller finds unservable.

    Unless `tuning` is False, the pre-trained agent keeps learning on a copy
    of its network and replay, on the pre-training schedule with each slot a
    step: it trains every `train_interval`-th slot and syncs its target
    every `target_sync_interval`-th. With `tuning` False it never trains and
    copies nothing: it acts on the pre-trained network itself.

    The Q-network's demand features are scaled by `demand_scale_mbps`, the
    demand ceiling it was trained on, by default the config's.

    The reward source follows the scheme, but the reported instant power is
    always ground truth: the exact solver is re-run on the realized
    (pattern, demands) of every slot, and unserved slots are charged the
    upper bound.
    """
    if scheme not in DQN_SCHEMES:
        raise ValueError(f"run_online drives DQN schemes, not '{scheme}'")
    t_start = time.perf_counter()

    network = config.network
    scale = network.demand_max_mbps if demand_scale_mbps is None else demand_scale_mbps
    channel = make_channel(config)
    source = (SurrogateReward(network, artifacts.gbdt_model,
                              artifacts.feasibility_model)
              if scheme == SCHEME_DQN_GBDT
              else ExactSolverReward(network, config.solver))
    rng = np.random.default_rng([config.seeds.eval, _STREAM_EVAL_TUNING])
    learner = (_Learner(config.dqn, artifacts.qnet.copy(),
                        artifacts.replay.copy(config.dqn.buffer_capacity, slots), rng)
               if tuning else None)
    net = learner.net if tuning else artifacts.qnet
    env = _eval_env(config, channel, source, np.ones((1, network.num_rrhs), dtype=bool))
    actions = np.zeros(slots, dtype=int)
    demands = np.zeros((slots, network.num_users))
    patterns = np.zeros((slots, network.num_rrhs), dtype=bool)
    # Empty bool fields join any dtype unchanged, and are the Slot of no slots.
    charged = [Slot(*np.zeros((len(Slot._fields), 0), dtype=bool))]
    features = encode_states(env.patterns, env.demands, scale)[0]
    for k in range(slots):
        action = actions[k] = select_action(net, features, 0.0, rng)
        demands[k] = env.demands[0]
        slot = env.step([action])
        patterns[k] = env.patterns[0]
        charged.append(slot)
        next_features = encode_states(env.patterns, env.demands, scale)[0]
        if tuning:
            learner.learn(features, action, slot.reward[0], next_features,
                          slot.terminal[0])
        if slot.terminal[0]:
            # Recover by waking every RRH, without drawing demands.
            env.patterns = np.ones_like(env.patterns)
            next_features = encode_states(env.patterns, env.demands, scale)[0]
        features = next_features
    return _report(scheme, config, channel, actions, demands,
                   Slot(*map(np.concatenate, zip(*charged))), patterns, t_start,
                   resolve=scheme == SCHEME_DQN_GBDT)


def run_baseline(config: RunConfig, scheme: str, slots: int) -> EvalReport:
    """All-on (AO) or one-closed (OC) reference runs on the exact solver.

    OC picks its sleeper uniformly from the eval seed and pays one transition
    at slot 0; unserved slots are charged the upper bound, so both baselines
    stay comparable on the same demand stream. Neither looks at an outcome,
    so a run is open-loop: slot k is row k of one environment, from the
    pattern held before it, with its action and the k-th eval demand draw,
    and one step charges every slot with one solve.
    """
    if scheme not in (SCHEME_AO, SCHEME_OC):
        raise ValueError(f"run_baseline drives AO/OC, not '{scheme}'")
    t_start = time.perf_counter()
    m = config.network.num_rrhs
    channel = make_channel(config)
    pick_rng = np.random.default_rng([config.seeds.eval, _STREAM_EVAL_OC_PICK])
    actions = np.full(slots, m)
    actions[:1] = int(pick_rng.integers(m)) if scheme == SCHEME_OC else m
    starts = np.ones((slots, m), dtype=bool)
    starts[1:] = apply_action(starts[:1], actions[:1])
    env = _eval_env(config, channel, ExactSolverReward(config.network, config.solver), starts)
    demands = env.demands
    charged = env.step(actions)
    return _report(scheme, config, channel, actions, demands, charged, env.patterns,
                   t_start)


# ---------------------------------------------------------------------------
# Timing benchmark and error-tolerance comparison
# ---------------------------------------------------------------------------

# Inputs a block of `bench_timing`: each block times the surrogate and then
# the solver on the same inputs, so both see nearly the same host load.
BENCH_BLOCK = 50


def bench_timing(config: RunConfig, artifacts: Artifacts, inputs: int = 1000,
                 repeats: int = 3) -> dict:
    """Average per-input wall-clock of surrogate prediction vs exact solving
    over `inputs` random states, measured `repeats` times. The two alternate
    in blocks of `BENCH_BLOCK` inputs, and the speedup is the median of the
    blocks' solver-to-surrogate time ratios, which a load swing on a shared
    host moves less than a ratio of two whole-run times."""
    network = config.network
    m, n = network.num_rrhs, network.num_users
    channel = make_channel(config)
    rng = np.random.default_rng([config.seeds.eval, _STREAM_EVAL_BENCH])
    patterns, demands = _draw_states(network, PATTERN_RANDOM, rng, inputs)
    states = np.concatenate([patterns, demands], axis=1)

    model = artifacts.gbdt_model
    solver = ExactSolverReward(network, config.solver)

    gbdt_times, solver_times, ratios = [], [], []
    for _ in range(repeats):
        gbdt_s = solver_s = 0.0
        for start in range(0, inputs, BENCH_BLOCK):
            block = states[start:start + BENCH_BLOCK]
            t0 = time.perf_counter()
            for x in block:
                gbdt.predict(model, x)
            t1 = time.perf_counter()
            for x in block:
                solver.transmit_power(channel, x[:m] > 0.5, x[m:])
            t2 = time.perf_counter()
            gbdt_s += t1 - t0
            solver_s += t2 - t1
            ratios.append((t2 - t1) / (t1 - t0))
        gbdt_times.append(gbdt_s / inputs)
        solver_times.append(solver_s / inputs)

    return {
        "num_rrhs": m,
        "num_users": n,
        "inputs": inputs,
        "repeats": repeats,
        "gbdt_s_per_input": float(np.mean(gbdt_times)),
        "socp_s_per_input": float(np.mean(solver_times)),
        "speedup": float(np.median(ratios)),
        "gbdt_s_spread": [float(min(gbdt_times)), float(max(gbdt_times))],
        "socp_s_spread": [float(min(solver_times)), float(max(solver_times))],
    }


def write_timing_csv(rows, path):
    header = ["num_rrhs", "num_users", "gbdt_s_per_input", "socp_s_per_input",
              "speedup"]
    write_csv(path, header, [[r[key] for r in rows] for key in header])


@dataclass
class EteReport:
    report_a: EvalReport
    report_b: EvalReport
    average_gap_rel: float
    action_agreement: float

    def to_csv(self, path):
        a, b = self.report_a, self.report_b
        write_csv(path, ["slot", f"p_{a.scheme.lower()}_w", f"p_{b.scheme.lower()}_w",
                         "gap_w", f"action_{a.scheme.lower()}",
                         f"action_{b.scheme.lower()}", "agree"],
                  [range(len(a.actions)), a.instant_w, b.instant_w,
                   a.instant_w - b.instant_w, a.actions, b.actions,
                   a.actions == b.actions])


def ete_compare(config: RunConfig, artifacts: Artifacts, slots: int) -> EteReport:
    """Paired evaluation of DQN-GBDT against DQN-SOCP on identical seeds and
    demand streams; reports the relative average-power gap and the per-slot
    action agreement rate."""
    report_a = run_online(config, artifacts, slots, scheme=SCHEME_DQN_GBDT)
    report_b = run_online(config, artifacts, slots, scheme=SCHEME_DQN_SOCP)
    if slots > 0:
        ref = report_b.average_power_w
        gap = abs(report_a.average_power_w - ref) / ref
        agreement = float(np.mean(report_a.actions == report_b.actions))
    else:
        gap, agreement = 0.0, 1.0
    return EteReport(report_a=report_a, report_b=report_b,
                     average_gap_rel=gap, action_agreement=agreement)


def demand_sweep(configs, artifacts, slots: int, scheme: str,
                 demand_scale_mbps: float, tuning: bool = True) -> list:
    """Average power on each of `configs`, which differ in their demand
    ceiling (the demand-sweep figure). The Q-network's demand features keep
    `demand_scale_mbps`, the ceiling of the config it was trained on, and a
    DQN scheme tunes online unless `tuning` is False."""
    rows = []
    for swept in configs:
        if scheme in DQN_SCHEMES:
            report = run_online(swept, artifacts, slots, scheme=scheme, tuning=tuning,
                                demand_scale_mbps=demand_scale_mbps)
        else:
            report = run_baseline(swept, scheme, slots)
        rows.append((swept.network.demand_max_mbps, scheme, report.average_power_w,
                     report.infeasible_count))
    return rows
