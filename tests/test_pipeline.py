import dataclasses
import itertools
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranpower import cli, dqn, env, gbdt, pipeline
from cranpower.beamform import SolverFailure
from cranpower.env import ExactSolverReward
from cranpower.netmodel import (
    ConfigError,
    NetworkConfig,
    config_from_dict,
    sample_channel,
    sample_demands,
)
from test_dqn import Transition, stack, write_checkpoint_arrays
from test_env import ReferenceEnv, constant_model, encode_one

TINY = Path(__file__).resolve().parent.parent / "configs" / "tiny.json"
DEFAULT = Path(__file__).resolve().parent.parent / "configs" / "default.json"


@pytest.fixture(scope="module")
def tiny_run_config():
    return pipeline.RunConfig.from_file(TINY)


@pytest.fixture(scope="module")
def tiny_trained(tiny_run_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_artifacts")
    artifacts, summary = pipeline.train_offline(tiny_run_config, out_dir=out)
    return artifacts, summary, out


def zero_demand_run_config():
    network = NetworkConfig(demand_min_mbps=0.0, demand_max_mbps=0.0)
    return pipeline.RunConfig(network=network, dataset_size=50, eval_slots=10,
                              offline_episodes=1)


class TestRunConfig:
    def test_loads_tiny(self, tiny_run_config):
        assert tiny_run_config.network.num_rrhs == 2
        assert tiny_run_config.seeds.data == 5

    def test_unknown_key_reported(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(pipeline.RunConfig, {"datset_size": 100})
        assert "datset_size" in str(err.value)

    def test_unknown_section_key_reported(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(pipeline.RunConfig, {"dqn": {"gama": 0.9}})
        assert "dqn.gama" in str(err.value)


class TestGenDataset:
    def test_exact_count_and_reproducible(self, tiny_run_config):
        a = pipeline.gen_dataset(tiny_run_config, count=40)
        b = pipeline.gen_dataset(tiny_run_config, count=40)
        assert len(a) == 40
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.tx_power_w, b.tx_power_w, equal_nan=True)

    def test_zero_demand_rows_have_zero_target(self):
        config = zero_demand_run_config()
        rows = pipeline.gen_dataset(config, count=20, pattern_mode="all-on")
        assert np.all(rows.feasible)
        assert np.all(rows.tx_power_w == 0.0)

    def test_rows_resolve_to_identical_targets(self, tiny_run_config):
        rows = pipeline.gen_dataset(tiny_run_config, count=30)
        network = tiny_run_config.network
        channel = pipeline.make_channel(tiny_run_config)
        solver = ExactSolverReward(network, tiny_run_config.solver)
        m = network.num_rrhs
        picks = np.random.default_rng(0).choice(30, size=10, replace=False)
        for i in picks:
            tx, ok = solver.transmit_power(channel, rows.features[i, :m] > 0.5,
                                           rows.features[i, m:])
            assert ok == rows.feasible[i]
            if ok:
                assert tx == rows.tx_power_w[i]

    def test_pattern_modes(self, tiny_run_config):
        m = tiny_run_config.network.num_rrhs
        on = pipeline.gen_dataset(tiny_run_config, count=15, pattern_mode="all-on")
        assert np.all(on.features[:, :m] == 1)
        one = pipeline.gen_dataset(tiny_run_config, count=15, pattern_mode="one-off")
        assert np.all(one.features[:, :m].sum(axis=1) == m - 1)
        rnd = pipeline.gen_dataset(tiny_run_config, count=15)
        assert np.all(rnd.features[:, :m].sum(axis=1) >= 1)

    def test_unknown_pattern_mode_refused(self, tiny_run_config, monkeypatch):
        drawn = []
        for name in ("make_channel", "_draw_states", "sample_demands"):
            monkeypatch.setattr(pipeline, name,
                                lambda *args, name=name: drawn.append(name))
        with pytest.raises(ValueError) as err:
            pipeline.gen_dataset(tiny_run_config, count=5, pattern_mode="all_on")
        assert all(mode in str(err.value) for mode in pipeline.PATTERN_MODES)
        assert drawn == []

    def test_csv_round_trip(self, tiny_run_config, tmp_path):
        rows = pipeline.gen_dataset(tiny_run_config, count=25)
        path = tmp_path / "dataset.csv"
        pipeline.write_dataset_csv(rows, path, tiny_run_config)
        header = path.read_text().splitlines()[0]
        assert header == "y_1,y_2,d_1,p_tx_w,feasible"
        loaded = pipeline.read_dataset_csv(path, tiny_run_config)
        assert np.array_equal(loaded.features, rows.features)
        assert np.array_equal(loaded.tx_power_w, rows.tx_power_w, equal_nan=True)
        assert np.array_equal(loaded.feasible, rows.feasible)


def per_row_pattern(m, mode, rng):
    """One state's pattern drawn from `rng` as `gen_dataset` draws it, one
    RRH at a time: the reference for its pattern codes and their expansion."""
    if mode == pipeline.PATTERN_ALL_ON:
        return np.ones(m, dtype=bool)
    if mode == pipeline.PATTERN_ONE_OFF:
        pattern = np.ones(m, dtype=bool)
        pattern[int(rng.integers(m))] = False
        return pattern
    bits = int(rng.integers(1, 2 ** m))
    return np.array([(bits >> i) & 1 for i in range(m)], dtype=bool)


def per_row_dataset(config, count, mode=pipeline.PATTERN_RANDOM):
    """Rows of `gen_dataset` as a loop over single states that skips a state
    the solver fails on and draws another: the reference for its order."""
    network = config.network
    channel = pipeline.make_channel(config)
    source = ExactSolverReward(network, config.solver)
    rng = np.random.default_rng([config.seeds.data, pipeline._STREAM_DATASET])
    m = network.num_rrhs
    rows, failures = [], 0
    while len(rows) < count:
        pattern = per_row_pattern(m, mode, rng)
        demands = sample_demands(network, rng)
        try:
            tx, ok = source.transmit_power(channel, pattern, demands)
        except SolverFailure:
            failures += 1
            continue
        rows.append((np.concatenate([pattern, demands]), tx if ok else np.nan, ok))
    return rows, failures


class TestGenDatasetRedraw:
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_failed_draws_are_redrawn_in_stream_order(self, tiny_run_config,
                                                      monkeypatch, chunk):
        # In every pattern mode, draws 1, 2, 7, 30 and 31 fail among the
        # first 40, and draw 41 fails again among their replacements. A
        # small chunk splits the draws into many rounds and batches.
        if chunk is not None:
            monkeypatch.setattr(pipeline, "SOLVE_CHUNK", chunk)
            monkeypatch.setattr(env, "SOLVE_CHUNK", chunk)
        failing = {1, 2, 7, 30, 31, 41}
        solve_states = env.solve_states

        def failing_states(gains, active, iota, caps, noise, params):
            # Negative noise makes the fixed point oscillate at once.
            noise = np.where([next(calls) in failing for _ in noise], -noise, noise)
            return solve_states(gains, active, iota, caps, noise, params)

        monkeypatch.setattr(env, "solve_states", failing_states)
        for mode in pipeline.PATTERN_MODES:
            calls = itertools.count()
            rows = pipeline.gen_dataset(tiny_run_config, count=40, pattern_mode=mode)
            assert next(calls) == 40 + len(failing)
            calls = itertools.count()
            reference, failures = per_row_dataset(tiny_run_config, 40, mode)
            assert rows.solver_failures == failures == len(failing)
            assert np.array_equal(rows.features, np.array([r[0] for r in reference]))
            assert np.array_equal(rows.tx_power_w, np.array([r[1] for r in reference]),
                                  equal_nan=True)
            assert np.array_equal(rows.feasible, np.array([r[2] for r in reference]))

    @pytest.mark.parametrize("mode", pipeline.PATTERN_MODES)
    def test_patterns_exact_up_to_63_rrhs(self, mode):
        # The largest cell a config accepts: bit 62 is a pattern's last.
        network = NetworkConfig(num_rrhs=63, num_users=2)
        patterns, demands = pipeline._draw_states(
            network, mode, np.random.default_rng(11), 200)
        rng = np.random.default_rng(11)
        for pattern, row in zip(patterns, demands):
            assert np.array_equal(pattern, per_row_pattern(63, mode, rng))
            assert np.array_equal(row, sample_demands(network, rng))
        if mode == pipeline.PATTERN_RANDOM:
            assert patterns[:, 62].any() and not patterns[:, 62].all()


class TestTrainOffline:
    def test_toy_training_under_a_minute(self, tiny_run_config, tmp_path):
        t0 = time.time()
        artifacts, summary = pipeline.train_offline(tiny_run_config,
                                                    out_dir=tmp_path)
        assert time.time() - t0 < 60.0
        assert summary["gbdt"]["holdout_r2"] >= tiny_run_config.r2_floor
        assert summary["dqn"]["steps"] > 0
        assert len(artifacts.replay) == summary["dqn"]["buffer_occupancy"]

    def test_checkpoint_reloads_identically(self, tiny_trained, tiny_run_config):
        artifacts, _, out = tiny_trained
        reloaded = pipeline.Artifacts.load(out)
        rng = np.random.default_rng(1)
        m, n = tiny_run_config.network.num_rrhs, tiny_run_config.network.num_users
        for _ in range(5):
            probe = rng.uniform(size=m + n)
            assert np.array_equal(artifacts.qnet.forward(probe),
                                  reloaded.qnet.forward(probe))
            assert gbdt.predict(artifacts.gbdt_model, probe) == \
                gbdt.predict(reloaded.gbdt_model, probe)

    def test_model_files_save_back_to_the_same_bytes(self, tiny_trained, tmp_path):
        # The surrogate pair as `train` writes it: each tree's `left` is
        # right - 1 at a split and -1 at a leaf and its `max_depth` is the
        # params', and the file read and written again keeps its bytes.
        _, _, out = tiny_trained
        for name in (pipeline.GBDT_MODEL_FILE, pipeline.FEASIBILITY_MODEL_FILE):
            raw = json.loads((Path(out) / name).read_text())
            for tree in raw["trees"]:
                assert tree["left"] == [right - 1 if feature >= 0 else -1 for feature, right
                                        in zip(tree["split_feature"], tree["right"])]
                assert tree["max_depth"] == raw["params"]["max_depth"]
            gbdt.save_model(gbdt.load_model(Path(out) / name), tmp_path / name)
            assert (tmp_path / name).read_bytes() == (Path(out) / name).read_bytes(), name

    def test_r2_floor_enforced(self, tiny_run_config):
        strict = pipeline.RunConfig.from_file(TINY)
        strict.r2_floor = 0.99999999
        with pytest.raises(RuntimeError):
            pipeline.train_offline(strict)

    def test_summary_file_has_no_wall_clock(self, tiny_trained):
        _, _, out = tiny_trained
        summary = json.loads((Path(out) / "summary.json").read_text())
        assert "timing" not in summary

    def test_redraw_channel_flag(self, tiny_run_config):
        redraw = pipeline.RunConfig.from_file(TINY)
        redraw.redraw_channel = True
        redraw.offline_episodes = 5
        _, summary = pipeline.train_offline(redraw)
        fixed = pipeline.RunConfig.from_file(TINY)
        fixed.offline_episodes = 5
        _, summary_fixed = pipeline.train_offline(fixed)
        assert summary["dqn"]["steps"] > 0
        # Different channels per episode change the reward stream.
        assert summary["dqn"]["final_episode_return"] != \
            summary_fixed["dqn"]["final_episode_return"]


def reference_dqn_training(config):
    """The one-env offline DQN loop with a list replay buffer, as it was
    before lockstep environments and the array store: one episode at a
    time, each stepped by the scalar rules (`ReferenceEnv`), one exact solve
    a step. Returns (net, replay transitions oldest first, train log rows,
    the summary's dqn section)."""
    m, n = config.network.num_rrhs, config.network.num_users
    params = config.dqn
    seed = config.seeds.train
    rng_net = np.random.default_rng([seed, pipeline._STREAM_TRAIN_NET])
    rng_env = np.random.default_rng([seed, pipeline._STREAM_TRAIN_ENV])
    rng_actions = np.random.default_rng([seed, pipeline._STREAM_TRAIN_ACTIONS])
    rng_buffer = np.random.default_rng([seed, pipeline._STREAM_TRAIN_BUFFER])
    rng_channels = np.random.default_rng([seed, pipeline._STREAM_TRAIN_CHANNELS])
    fixed_channel = pipeline.make_channel(config)
    net = dqn.QNetwork.initialize([m + n] + list(params.hidden_sizes) + [m + 1],
                                  rng_net)
    target = dqn.sync_target(net)
    storage, oldest = [], 0
    log_rows = []
    global_step = 0
    last_loss = math.nan
    last_return = math.nan
    for _ in range(config.offline_episodes):
        channel = (sample_channel(config.network, rng_channels)
                   if config.redraw_channel else fixed_channel)
        environment = ReferenceEnv(
            config.network, channel, ExactSolverReward(config.network, config.solver),
            rng_env, per_row_pattern(m, pipeline.PATTERN_RANDOM, rng_env),
            episode_length=params.episode_length)
        episode_return = 0.0
        while True:
            epsilon = params.epsilon_at(global_step)
            features = environment.features()
            action = dqn.select_action(net, features, epsilon, rng_actions)
            result = environment.step(action)
            transition = Transition(features, action, result.reward,
                                    environment.features(), result.terminal)
            if len(storage) < params.buffer_capacity:
                storage.append(transition)
            else:
                storage[oldest] = transition
                oldest = (oldest + 1) % params.buffer_capacity
            episode_return += result.reward
            global_step += 1
            if (len(storage) >= params.batch_size
                    and global_step % params.train_interval == 0):
                idx = rng_buffer.choice(len(storage), size=params.batch_size,
                                        replace=False)
                last_loss = dqn.train_step(net, target, stack([storage[i] for i in idx]),
                                           params.gamma, params.learning_rate)
                log_rows.append((global_step, last_loss, epsilon, last_return))
            if global_step % params.target_sync_interval == 0:
                target = dqn.sync_target(net)
            if result.terminal:
                break
        last_return = episode_return
    summary = {"episodes": config.offline_episodes, "steps": global_step,
               "final_loss": last_loss, "final_epsilon": params.epsilon_at(global_step),
               "final_episode_return": last_return, "buffer_occupancy": len(storage)}
    return net, storage[oldest:] + storage[:oldest], log_rows, summary


def _short_default_config():
    config = pipeline.RunConfig.from_file(DEFAULT)
    return dataclasses.replace(config, offline_episodes=30, r2_floor=-math.inf,
                               gbdt=dataclasses.replace(config.gbdt, num_rounds=2),
                               fit_scatter_rows=0)


def _train(config, out, rows=200):
    return pipeline.train_offline(config, out_dir=out,
                                  dataset=pipeline.gen_dataset(config, count=rows))


def _non_timing_files(out):
    return {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())
            if "timing" not in path.name}


class TestLockstepTraining:
    @pytest.mark.parametrize("variant", ["tiny", "tiny-redraw", "default"])
    def test_one_env_equals_reference_loop(self, variant, tmp_path):
        config = (_short_default_config() if variant == "default"
                  else pipeline.RunConfig.from_file(TINY))
        config = dataclasses.replace(config, offline_envs=1,
                                     redraw_channel=variant == "tiny-redraw")
        artifacts, summary = _train(config, tmp_path)
        net, transitions, log_rows, dqn_summary = reference_dqn_training(config)
        for got, want in zip(artifacts.qnet.weights + artifacts.qnet.biases,
                             net.weights + net.biases):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(artifacts.replay.contents().arrays(),
                             stack(transitions).arrays()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        pipeline.write_csv(tmp_path / "reference_log.csv",
                           ["step", "loss", "epsilon", "episode_return"], zip(*log_rows))
        assert (tmp_path / pipeline.TRAIN_LOG_FILE).read_bytes() == \
            (tmp_path / "reference_log.csv").read_bytes()
        assert json.dumps(summary["dqn"], sort_keys=True) == \
            json.dumps(dqn_summary, sort_keys=True)
        assert dqn_summary["steps"] > config.dqn.batch_size

    @pytest.mark.parametrize("envs, redraw", [(3, False), (16, False), (4, True)])
    def test_lockstep_reproduces_itself(self, envs, redraw, tmp_path):
        config = dataclasses.replace(pipeline.RunConfig.from_file(TINY),
                                     offline_envs=envs, redraw_channel=redraw)
        _, first = _train(config, tmp_path / "a")
        _, again = _train(config, tmp_path / "b")
        assert first["dqn"] == again["dqn"]
        assert _non_timing_files(tmp_path / "a") == _non_timing_files(tmp_path / "b")
        # A logged step's epsilon is the one its transition's action used:
        # that of the global step before it.
        log = (tmp_path / "a" / pipeline.TRAIN_LOG_FILE).read_text().splitlines()[1:]
        assert log
        for line in log:
            step, _, epsilon, _ = line.split(",")
            assert float(epsilon) == config.dqn.epsilon_at(int(step) - 1)

    @pytest.mark.parametrize("envs, redraw", [(3, False), (7, False), (60, False),
                                              (4, True)])
    def test_every_episode_runs_once(self, envs, redraw, monkeypatch):
        config = dataclasses.replace(pipeline.RunConfig.from_file(TINY),
                                     offline_envs=envs, redraw_channel=redraw,
                                     offline_episodes=12)
        starts, pushes = [], []
        init, restart = env.Environment.__init__, env.Environment.restart
        push = dqn.ReplayBuffer.push
        monkeypatch.setattr(env.Environment, "__init__", lambda self, config, gains, *a, **kw:
                            starts.append(len(gains)) or init(self, config, gains, *a, **kw))
        monkeypatch.setattr(env.Environment, "restart", lambda self, rows, *a:
                            starts.append(len(rows)) or restart(self, rows, *a))
        monkeypatch.setattr(dqn.ReplayBuffer, "push",
                            lambda self, *fields: pushes.append(1) or push(self, *fields))
        artifacts, summary = pipeline.train_offline(
            config, dataset=pipeline.gen_dataset(config, count=100))
        steps = summary["dqn"]["steps"]
        assert starts[0] == min(envs, 12) and sum(starts) == 12
        assert steps == len(pushes) == len(artifacts.replay)
        # Every episode ends on exactly one terminal transition.
        assert int(np.count_nonzero(artifacts.replay.contents().terminals)) == 12

    def test_each_action_is_chosen_on_its_env_current_state(self, monkeypatch):
        # Four tiny envs run short episodes that often end on an infeasible
        # state, and a finished row starts a new episode in place mid-run.
        # In every tick, the features each action is chosen on must encode
        # that row's current state, also in the first tick of a new episode.
        config = dataclasses.replace(pipeline.RunConfig.from_file(TINY), offline_envs=4)
        dataset = pipeline.gen_dataset(config, count=100)
        chosen, ticks, restarted = [], [], []   # ticks: the rows' states encoded
        select, step = pipeline.select_action, env.Environment.step
        restart = env.Environment.restart

        def recording_select(net, features, epsilon, rng):
            chosen.append(np.array(features))
            return select(net, features, epsilon, rng)

        def recording_step(self, actions):
            ticks.append([encode_one(config.network, pattern, demands)
                          for pattern, demands in zip(self.patterns, self.demands)])
            return step(self, actions)

        def recording_restart(self, rows, *args):
            restarted.extend((len(ticks), row) for row in rows)
            return restart(self, rows, *args)

        monkeypatch.setattr(pipeline, "select_action", recording_select)
        monkeypatch.setattr(env.Environment, "step", recording_step)
        monkeypatch.setattr(env.Environment, "restart", recording_restart)
        _, summary = pipeline.train_offline(config, dataset=dataset)
        assert len(chosen) == sum(len(current) for current in ticks) == \
            summary["dqn"]["steps"]
        for got, want in zip(chosen, itertools.chain(*ticks)):
            assert got.tobytes() == want.tobytes()
        assert len(restarted) == config.offline_episodes - config.offline_envs
        # Each new episode is stepped next tick, in its finished row's place.
        assert all(tick < len(ticks) for tick, _ in restarted)

    def test_lockstep_differs_from_one_env(self, tmp_path):
        tiny = pipeline.RunConfig.from_file(TINY)
        _, one = _train(tiny, tmp_path / "one")
        _, four = _train(dataclasses.replace(tiny, offline_envs=4), tmp_path / "four")
        assert one["dqn"]["episodes"] == four["dqn"]["episodes"]
        assert _non_timing_files(tmp_path / "one")["qnet.ckpt"] != \
            _non_timing_files(tmp_path / "four")["qnet.ckpt"]

    def test_redraw_tick_is_one_batch(self, monkeypatch):
        # Rows on their own channels share one reward source, so each tick
        # asks it once and solves every posed problem in one batch.
        config = dataclasses.replace(pipeline.RunConfig.from_file(TINY), offline_envs=4,
                                     redraw_channel=True, offline_episodes=12)
        dataset = pipeline.gen_dataset(config, count=100)
        ticks, calls, batches = [], [], []
        step, solve = env.Environment.step, ExactSolverReward.solve
        solve_states = env.solve_states

        def counting_step(self, actions):
            ticks.append(len(self.gains))
            return step(self, actions)

        def counting_solve(source, gains, patterns, demands):
            calls.append((len(patterns), len(np.unique(gains.reshape(len(gains), -1),
                                                       axis=0))))
            return solve(source, gains, patterns, demands)

        monkeypatch.setattr(env.Environment, "step", counting_step)
        monkeypatch.setattr(ExactSolverReward, "solve", counting_solve)
        monkeypatch.setattr(env, "solve_states",
                            lambda *args: batches.append(1) or solve_states(*args))
        pipeline.train_offline(config, dataset=dataset)
        assert [size for size, _ in calls] == ticks
        assert len(batches) == len(ticks)
        assert max(channels for _, channels in calls) == 4

    def test_solver_failure_in_one_env_aborts(self, monkeypatch):
        config = dataclasses.replace(pipeline.RunConfig.from_file(TINY), offline_envs=4)
        dataset = pipeline.gen_dataset(config, count=100)
        solve_states = env.solve_states
        fired = []

        def failing(*args):
            solved = solve_states(*args)
            if len(solved.verdicts) >= 2 and not fired:
                fired.append(len(solved.verdicts))
                solved.verdicts[1] = SolverFailure("forced breakdown")
            return solved

        monkeypatch.setattr(env, "solve_states", failing)
        with pytest.raises(SolverFailure, match="forced breakdown"):
            pipeline.train_offline(config, dataset=dataset)
        assert fired


def trajectory_rows(report):
    """The rows of `report.trajectory_to_csv` as Python values, one tuple a
    slot: its index, action, pattern bitstring, demands, and the charged
    transmit, standby, mode-switch and total watts, reward and servability."""
    texts = ["".join("1" if on else "0" for on in row) for row in report.patterns]
    return list(zip(range(len(report.actions)), report.actions.tolist(), texts,
                    *report.demands.T.tolist(),
                    *(field.tolist() for field in report.charged[:6])))


def read_csv_columns(path):
    """The header of a CSV and its columns, each a list of the field texts."""
    header, *rows = (line.split(",") for line in Path(path).read_text().splitlines())
    return header, [list(column) for column in zip(*rows)]


def assert_column(texts, array):
    """`texts` read back to `array`, bit for bit: floats through their repr,
    bools as 1/0."""
    if array.dtype == bool:
        assert texts == ["1" if value else "0" for value in array.tolist()]
    else:
        got = np.array([array.dtype.type(text) for text in texts], dtype=array.dtype)
        assert got.tobytes() == np.ascontiguousarray(array).tobytes()


class TestRunOnline:
    def test_replay_copy_is_sized_once(self, monkeypatch):
        # A 30,000-row pre-trained replay and 5,000 slots: run_online copies
        # it once into a store sized for both, so no push grows it and there
        # is no gathered temporary of the rows. The run stops at its first
        # action, once the learner holds the copy.
        config = pipeline.RunConfig.from_file(DEFAULT)
        width = config.network.num_rrhs + config.network.num_users
        rng = np.random.default_rng(17)
        rows = 30_000
        replay = dqn.ReplayBuffer(config.dqn.buffer_capacity)
        replay.extend(dqn.Batch(rng.random((rows, width)),
                                rng.integers(0, 9, rows), rng.random(rows),
                                rng.random((rows, width)), rng.random(rows) < 0.1))
        qnet = dqn.QNetwork.initialize([width, 64, 64, 9], rng)
        artifacts = pipeline.Artifacts(None, None, qnet, replay)
        pushed = Transition(rng.random(width), 3, 1.0, rng.random(width), False)
        learners = []
        learner_class = pipeline._Learner

        class FirstAction(Exception):
            pass

        def first_action(*args):
            raise FirstAction

        def capture(*args):
            learners.append(learner_class(*args))
            return learners[-1]

        monkeypatch.setattr(pipeline, "_Learner", capture)
        monkeypatch.setattr(pipeline, "select_action", first_action)
        tracemalloc.start()
        try:
            with pytest.raises(FirstAction):
                pipeline.run_online(config, artifacts, 5_000,
                                    scheme=pipeline.SCHEME_DQN_SOCP)
            copy = learners[0].replay
            reserved = len(copy._store)
            for _ in range(5_000):
                copy.push(*pushed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert copy is not replay and len(replay) == rows
        assert len(copy) == 35_000
        assert reserved == len(copy._store) == 35_000
        assert peak <= 13.1 * 2 ** 20

    def test_tuning_syncs_on_the_pretraining_schedule(self, tiny_trained,
                                                       tiny_run_config, monkeypatch):
        # Training every 3rd slot and syncing every 5th: the target is copied
        # at the start and after slots 5, 10, ..., 60, training slot or not.
        artifacts, _, _ = tiny_trained
        config = dataclasses.replace(tiny_run_config, dqn=dataclasses.replace(
            tiny_run_config.dqn, train_interval=3, target_sync_interval=5))
        calls = {"sync_target": 0, "train_step": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(pipeline, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(pipeline, name, counted)
        pipeline.run_online(config, artifacts, 60, scheme=pipeline.SCHEME_DQN_SOCP)
        assert calls == {"sync_target": 13, "train_step": 20}
        calls.update(sync_target=0, train_step=0)
        pipeline.run_online(config, artifacts, 60, tuning=False)
        assert calls["train_step"] == 0

    def test_no_tune_copies_nothing(self, tiny_trained, tiny_run_config,
                                    monkeypatch):
        artifacts, _, _ = tiny_trained
        copies = []
        for owner in (dqn.ReplayBuffer, dqn.QNetwork):
            def counted(*args, owner=owner, fn=owner.copy):
                copies.append(owner.__name__)
                return fn(*args)
            monkeypatch.setattr(owner, "copy", counted)
        pipeline.run_online(tiny_run_config, artifacts, 30, tuning=False)
        assert copies == []
        pipeline.run_online(tiny_run_config, artifacts, 30)
        assert sorted(set(copies)) == ["QNetwork", "ReplayBuffer"]

    def test_zero_slots_empty_report(self, tiny_trained, tiny_run_config):
        artifacts, _, _ = tiny_trained
        report = pipeline.run_online(tiny_run_config, artifacts, 0)
        assert len(report.instant_w) == 0
        assert report.infeasible_count == 0

    def test_ground_truth_failure_raises_the_first(self, tiny_trained, tiny_run_config,
                                                   monkeypatch):
        # DQN-GBDT steps on the surrogate, so only the ground-truth re-solve
        # reaches the solver; slots 3 and 5 break down there.
        artifacts, _, _ = tiny_trained
        solve_states = env.solve_states

        def failing(*args):
            solved = solve_states(*args)
            for slot in (5, 3):
                solved.verdicts[slot] = SolverFailure(f"slot {slot}")
            return solved

        monkeypatch.setattr(env, "solve_states", failing)
        with pytest.raises(SolverFailure, match="slot 3"):
            pipeline.run_online(tiny_run_config, artifacts, 8)

    @pytest.mark.parametrize("scripted", [False, True])
    def test_recovery_wakes_every_rrh_without_a_demand_draw(
            self, tiny_trained, tiny_run_config, scripted, monkeypatch):
        # With a 200 Mbps ceiling most tuned slots of the tiny cell are
        # unservable. After each, every RRH is woken in place: no demand is
        # drawn, so slot k serves the k-th draw of the eval demand stream,
        # and the next slot's action is chosen on, and applied to, all-on.
        # The scripted policy cycles through the actions, so an unservable
        # slot can end with an RRH off and the wake-up shows in the pattern.
        artifacts, _, _ = tiny_trained
        network = dataclasses.replace(tiny_run_config.network, demand_max_mbps=200.0)
        config = dataclasses.replace(tiny_run_config, network=network)
        m, n, slots = network.num_rrhs, network.num_users, 40
        seen, stepped_from = [], []
        select, step = pipeline.select_action, env.Environment.step

        def recording_select(net, features, epsilon, rng):
            seen.append(features)
            action = select(net, features, epsilon, rng)
            return len(seen) % (m + 1) if scripted else action

        def recording_step(self, actions):
            stepped_from.append(self.patterns[0].copy())
            return step(self, actions)

        monkeypatch.setattr(pipeline, "select_action", recording_select)
        monkeypatch.setattr(env.Environment, "step", recording_step)
        report = pipeline.run_online(config, artifacts, slots,
                                     scheme=pipeline.SCHEME_DQN_SOCP)
        unservable = np.flatnonzero(~report.feasible)
        assert len(unservable) >= 1
        draws = np.random.default_rng([config.seeds.eval, pipeline._STREAM_EVAL_DEMANDS])
        trajectory = trajectory_rows(report)
        for row in trajectory:
            assert np.array_equal(row[3:3 + n], sample_demands(network, draws))
        all_on = np.ones(m, dtype=bool)
        # Each slot starts from all-on after an unservable slot and from
        # the previous slot's pattern after a servable one.
        assert len(stepped_from) == slots
        for k in range(1, slots):
            expected = all_on if k - 1 in unservable else np.array(
                [bit == "1" for bit in trajectory[k - 1][2]])
            assert np.array_equal(stepped_from[k], expected)
        woken = unservable[unservable < slots - 1] + 1
        assert len(woken) >= 1
        for k in woken:
            _, action, pattern = trajectory[k][:3]
            assert np.array_equal(seen[k], env.encode_states(
                all_on, np.asarray(trajectory[k][3:3 + n]),
                network.demand_max_mbps))
            assert pattern == "".join(
                "1" if on else "0" for on in env.apply_action(all_on, action))
        if scripted:
            # Some unservable slot left an RRH off, so waking it mattered.
            assert any("0" in trajectory[k - 1][2] for k in woken)

    @pytest.mark.parametrize("scheme", pipeline.DQN_SCHEMES)
    def test_tuning_at_the_oracle_rate_changes_actions(self, tiny_trained,
                                                       tiny_run_config, scheme):
        # The byte oracle's tune run: training every slot at a 0.01 learning
        # rate moves some greedy actions of the tiny artifacts within 60
        # slots, so that run sees what the tuner learns.
        artifacts, _, _ = tiny_trained
        config = dataclasses.replace(tiny_run_config, dqn=dataclasses.replace(
            tiny_run_config.dqn, learning_rate=0.01, train_interval=1))
        tuned = pipeline.run_online(config, artifacts, 60, scheme=scheme)
        fixed = pipeline.run_online(config, artifacts, 60, scheme=scheme, tuning=False)
        assert not np.array_equal(tuned.actions, fixed.actions)

    def test_no_tune_same_seed_identical(self, tiny_trained, tiny_run_config):
        artifacts, _, _ = tiny_trained
        a = pipeline.run_online(tiny_run_config, artifacts, 25, tuning=False)
        b = pipeline.run_online(tiny_run_config, artifacts, 25, tuning=False)
        assert np.array_equal(a.instant_w, b.instant_w)
        assert np.array_equal(a.actions, b.actions)

    def test_running_average_is_prefix_mean(self, tiny_trained, tiny_run_config):
        artifacts, _, _ = tiny_trained
        report = pipeline.run_online(tiny_run_config, artifacts, 30)
        expected = np.cumsum(report.instant_w) / np.arange(1, 31)
        assert np.array_equal(report.running_avg_w, expected)
        assert report.average_power_w == expected[-1]

    def test_report_csv_columns(self, tiny_trained, tiny_run_config, tmp_path):
        # Both CSVs read back to the report's arrays, bit for bit. A
        # surrogate gate that always passes, on a 200 Mbps ceiling: the
        # controller is charged every slot as servable, while the ground
        # truth finds some unservable, so the trajectory's `feasible` (what
        # was charged) and the eval file's (ground truth) differ.
        artifacts, _, _ = tiny_trained
        network = dataclasses.replace(tiny_run_config.network, demand_max_mbps=200.0)
        m, n = network.num_rrhs, network.num_users
        report = pipeline.run_online(
            dataclasses.replace(tiny_run_config, network=network),
            dataclasses.replace(artifacts, feasibility_model=constant_model(1.0, m + n)),
            40)
        assert report.charged.feasible.all() and not report.feasible.all()
        slots = np.arange(40)

        report.trajectory_to_csv(tmp_path / "trajectory.csv")
        header, columns = read_csv_columns(tmp_path / "trajectory.csv")
        assert header == ["slot", "action", "pattern", *(f"d_{j + 1}" for j in range(n)),
                          "transmit_w", "state_w", "transition_w", "total_w", "reward",
                          "feasible"]
        assert columns.pop(2) == ["".join("1" if on else "0" for on in row)
                                  for row in report.patterns]
        for texts, array in zip(columns, [slots, report.actions, *report.demands.T,
                                          *report.charged[:6]], strict=True):
            assert_column(texts, array)

        report.to_csv(tmp_path / "eval.csv")
        header, columns = read_csv_columns(tmp_path / "eval.csv")
        assert header == ["slot", "instant_w", "running_avg_w", "action", "feasible"]
        for texts, array in zip(columns, [slots, report.instant_w, report.running_avg_w,
                                          report.actions, report.feasible], strict=True):
            assert_column(texts, array)


def reference_baseline(config, scheme, slots):
    """The closed loop that `run_baseline` replaced: a one-row Environment
    stepped slot by slot. Returns the instant powers, actions, served flags
    and trajectory rows that its report would hold."""
    network = config.network
    m = network.num_rrhs
    pick = np.random.default_rng([config.seeds.eval, pipeline._STREAM_EVAL_OC_PICK])
    first = int(pick.integers(m)) if scheme == pipeline.SCHEME_OC else m
    rng = np.random.default_rng([config.seeds.eval, pipeline._STREAM_EVAL_DEMANDS])
    one = env.Environment(network, pipeline.make_channel(config).gains[None],
                          np.ones((1, m)), sample_demands(network, rng, 1),
                          ExactSolverReward(network, config.solver), rng)
    instants, actions, feasible, trajectory = [], [], [], []
    for k in range(slots):
        action = first if k == 0 else m
        demands = one.demands[0]
        slot = one.step([action])
        ok = bool(slot.feasible[0])
        instants.append(slot.total_w[0] if ok else env.p_upper_bound(network))
        actions.append(action)
        feasible.append(ok)
        trajectory.append((k, action, "".join("1" if on else "0" for on in one.patterns[0]),
                           *demands.tolist(), *(float(field[0]) for field in slot[:5]), ok))
    return (np.array(instants, dtype=float), np.array(actions, dtype=int),
            np.array(feasible, dtype=bool), trajectory)


def assert_baseline_equals_reference(config, scheme, slots):
    report = pipeline.run_baseline(config, scheme, slots)
    instants, actions, feasible, trajectory = reference_baseline(config, scheme, slots)
    assert report.instant_w.dtype == instants.dtype
    assert report.instant_w.tobytes() == instants.tobytes()
    assert report.actions.dtype == actions.dtype
    assert np.array_equal(report.actions, actions)
    assert report.feasible.dtype == feasible.dtype
    assert np.array_equal(report.feasible, feasible)
    assert trajectory_rows(report) == trajectory
    assert report.infeasible_count == np.count_nonzero(~feasible)


class TestBaselines:
    @pytest.mark.parametrize("scheme", [pipeline.SCHEME_AO, pipeline.SCHEME_OC])
    @pytest.mark.parametrize("slots", [0, 1, 2, 300])
    @pytest.mark.parametrize("cell", ["tiny", "zero-demand"])
    def test_equals_the_closed_loop(self, tiny_run_config, cell, slots, scheme):
        config = tiny_run_config if cell == "tiny" else zero_demand_run_config()
        assert_baseline_equals_reference(config, scheme, slots)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 4), n=st.integers(1, 3),
           demand_max=st.sampled_from([0.0, 40.0, 200.0]),
           data_seed=st.integers(0, 2 ** 16), eval_seed=st.integers(0, 2 ** 16),
           slots=st.integers(0, 40),
           scheme=st.sampled_from([pipeline.SCHEME_AO, pipeline.SCHEME_OC]))
    def test_small_cells_equal_the_closed_loop(self, m, n, demand_max, data_seed,
                                               eval_seed, slots, scheme):
        network = NetworkConfig(num_rrhs=m, num_users=n, demand_min_mbps=0.0,
                                demand_max_mbps=demand_max)
        config = pipeline.RunConfig(network=network, seeds=pipeline.Seeds(
            data=data_seed, eval=eval_seed))
        assert_baseline_equals_reference(config, scheme, slots)

    @pytest.mark.parametrize("slots", [1, 2, 300])
    def test_a_run_is_one_step(self, tiny_run_config, slots, monkeypatch):
        steps, step = [], env.Environment.step

        def counting_step(self, actions):
            steps.append(len(actions))
            return step(self, actions)

        monkeypatch.setattr(env.Environment, "step", counting_step)
        for scheme in (pipeline.SCHEME_AO, pipeline.SCHEME_OC):
            steps.clear()
            pipeline.run_baseline(tiny_run_config, scheme, slots)
            assert steps == [slots]

    def test_solver_failure_raises_the_first(self, tiny_run_config, monkeypatch):
        # Slots 5 and 3 break down; the run raises slot 3's failure.
        solve_states = env.solve_states

        def failing(*args):
            solved = solve_states(*args)
            for slot in (5, 3):
                solved.verdicts[slot] = SolverFailure(f"slot {slot}")
            return solved

        monkeypatch.setattr(env, "solve_states", failing)
        for scheme in (pipeline.SCHEME_AO, pipeline.SCHEME_OC):
            with pytest.raises(SolverFailure, match="slot 3"):
                pipeline.run_baseline(tiny_run_config, scheme, 8)

    def test_ao_zero_demand_instant_power(self):
        config = zero_demand_run_config()
        report = pipeline.run_baseline(config, "AO", 5)
        assert np.allclose(report.instant_w, 54.4, rtol=1e-12)
        transitions = [row[-4] for row in trajectory_rows(report)]
        assert all(t == 0.0 for t in transitions)

    def test_oc_zero_demand_instant_power(self):
        config = zero_demand_run_config()
        report = pipeline.run_baseline(config, "OC", 5)
        # Slot 0 pays the single mode switch; afterwards 7 active + 1 asleep.
        assert report.instant_w[0] == pytest.approx(51.9 + 2.0, rel=1e-12)
        assert np.allclose(report.instant_w[1:], 51.9, rtol=1e-12)
        transitions = [row[-4] for row in trajectory_rows(report)]
        assert transitions[0] == 2.0 and all(t == 0.0 for t in transitions[1:])

    def test_baselines_share_demand_stream(self, tiny_run_config):
        ao = pipeline.run_baseline(tiny_run_config, "AO", 10)
        oc = pipeline.run_baseline(tiny_run_config, "OC", 10)
        n = tiny_run_config.network.num_users
        d_ao = [row[3:3 + n] for row in trajectory_rows(ao)]
        d_oc = [row[3:3 + n] for row in trajectory_rows(oc)]
        assert d_ao == d_oc

    def test_wrong_scheme_rejected(self, tiny_run_config):
        with pytest.raises(ValueError):
            pipeline.run_baseline(tiny_run_config, "DQN-GBDT", 5)


class TestBenchAndEte:
    def test_bench_structure(self, tiny_trained, tiny_run_config):
        artifacts, _, _ = tiny_trained
        row = pipeline.bench_timing(tiny_run_config, artifacts, inputs=40,
                                    repeats=2)
        assert row["gbdt_s_per_input"] > 0
        assert row["socp_s_per_input"] > 0
        # One block a repeat: the speedup is the median of the repeats' ratios.
        (gbdt_low, gbdt_high), (socp_low, socp_high) = (row["gbdt_s_spread"],
                                                        row["socp_s_spread"])
        assert (socp_low / gbdt_high * (1 - 1e-9) <= row["speedup"]
                <= socp_high / gbdt_low * (1 + 1e-9))
        assert row["gbdt_s_spread"][0] <= row["gbdt_s_spread"][1]

    def test_bench_speedup_is_median_block_ratio(self, tiny_trained,
                                                 tiny_run_config, monkeypatch):
        # On a fake clock the surrogate takes 1 us an input, except 5 us in
        # the third block of 50 (a load swing), and the solver 12 us. The
        # block ratios are 12, 12, 2.4 and 12, so the speedup is 12, while
        # the mean times are 2 us and 12 us.
        artifacts, _, _ = tiny_trained
        clock = [0.0]
        calls = [0]

        def predict(model, x):
            calls[0] += 1
            clock[0] += 5e-6 if 100 < calls[0] <= 150 else 1e-6

        def transmit_power(source, channel, pattern, demands):
            clock[0] += 12e-6

        monkeypatch.setattr(pipeline.time, "perf_counter", lambda: clock[0])
        monkeypatch.setattr(pipeline.gbdt, "predict", predict)
        monkeypatch.setattr(ExactSolverReward, "transmit_power", transmit_power)
        row = pipeline.bench_timing(tiny_run_config, artifacts, inputs=200,
                                    repeats=1)
        assert row["speedup"] == pytest.approx(12.0)
        assert row["gbdt_s_per_input"] == pytest.approx(2e-6)
        assert row["socp_s_per_input"] == pytest.approx(12e-6)

    def test_bench_times_the_per_input_draws(self, tiny_trained, monkeypatch):
        # The states timed are those of drawing each input's pattern and
        # then its demands from the bench stream, one input at a time.
        artifacts, _, _ = tiny_trained
        config = pipeline.RunConfig.from_file(DEFAULT)
        network = config.network
        m = network.num_rrhs
        predicted, solved = [], []
        monkeypatch.setattr(pipeline.gbdt, "predict",
                            lambda model, x: predicted.append(x.copy()))
        monkeypatch.setattr(ExactSolverReward, "transmit_power",
                            lambda source, channel, pattern, demands:
                            solved.append((channel, pattern.copy(), demands.copy())))
        pipeline.bench_timing(config, artifacts, inputs=120, repeats=2)
        rng = np.random.default_rng([config.seeds.eval, pipeline._STREAM_EVAL_BENCH])
        expected = [np.concatenate([per_row_pattern(m, pipeline.PATTERN_RANDOM, rng),
                                    sample_demands(network, rng)])
                    for _ in range(120)] * 2
        channel = pipeline.make_channel(config)
        assert len(predicted) == len(solved) == len(expected)
        for x, (on, pattern, demands), state in zip(predicted, solved, expected):
            assert np.array_equal(x, state)
            assert np.array_equal(on.gains, channel.gains)
            assert pattern.dtype == bool
            assert np.array_equal(pattern, state[:m] > 0.5)
            assert np.array_equal(demands, state[m:])

    def test_ete_stub_identity(self, tiny_trained, tiny_run_config):
        # The exact reward source paired with itself: two tuned DQN-SOCP
        # runs on the same seeds read the same, bit for bit, so their gap
        # is zero and their actions all agree.
        artifacts, _, _ = tiny_trained
        a, b = (pipeline.run_online(tiny_run_config, artifacts, 20,
                                    scheme=pipeline.SCHEME_DQN_SOCP) for _ in range(2))
        assert a.instant_w.tobytes() == b.instant_w.tobytes()
        assert a.actions.tobytes() == b.actions.tobytes()
        assert trajectory_rows(a) == trajectory_rows(b)

    def test_ete_rates_in_range(self, tiny_trained, tiny_run_config):
        artifacts, _, _ = tiny_trained
        result = pipeline.ete_compare(tiny_run_config, artifacts, 15)
        assert 0.0 <= result.action_agreement <= 1.0
        assert result.average_gap_rel >= 0.0

    def test_demand_sweep_rows(self, tiny_trained, tiny_run_config):
        artifacts, _, _ = tiny_trained
        configs = [dataclasses.replace(tiny_run_config, network=dataclasses.replace(
            tiny_run_config.network, demand_max_mbps=dmax)) for dmax in (10.0, 15.0)]
        rows = pipeline.demand_sweep(configs, artifacts, 10, "DQN-GBDT",
                                     tiny_run_config.network.demand_max_mbps)
        assert [r[0] for r in rows] == [10.0, 15.0]
        assert all(r[2] > 0 for r in rows)

    @pytest.mark.parametrize("scheme", pipeline.DQN_SCHEMES)
    def test_demand_sweep_keeps_the_trained_feature_scale(self, tiny_trained,
                                                          tiny_run_config, scheme,
                                                          monkeypatch):
        # The tiny net learnt demands over its 15 Mbps ceiling. On a swept
        # ceiling of 10 or 200 it still sees them over 15: the first slot's
        # features are all-on and the first eval demands over 15.
        artifacts, _, _ = tiny_trained
        trained = tiny_run_config.network
        seen = []
        select = pipeline.select_action

        def recording_select(net, features, epsilon, rng):
            seen.append(np.array(features))
            return select(net, features, epsilon, rng)

        monkeypatch.setattr(pipeline, "select_action", recording_select)
        for dmax in (10.0, 200.0):
            network = dataclasses.replace(trained, demand_max_mbps=dmax)
            seen.clear()
            pipeline.demand_sweep([dataclasses.replace(tiny_run_config, network=network)],
                                  artifacts, 3, scheme, trained.demand_max_mbps)
            draws = np.random.default_rng([tiny_run_config.seeds.eval,
                                           pipeline._STREAM_EVAL_DEMANDS])
            first = sample_demands(network, draws)
            assert seen[0].tobytes() == np.concatenate(
                [np.ones(trained.num_rrhs), first / trained.demand_max_mbps]).tobytes()

    def test_sweep_tunes_as_the_run_it_sweeps(self, tiny_trained, tiny_run_config,
                                             tmp_path):
        # At the byte oracle's tune rate, tuning moves the greedy actions
        # within 60 slots, so tuned and untuned runs read apart. A sweep row
        # at the config's own ceiling repeats the evaluated run, with or
        # without --no-tune, and reads its average power.
        _, _, artifacts = tiny_trained
        raw = json.loads(TINY.read_text())
        raw["dqn"].update(learning_rate=0.01, train_interval=1)
        config = tmp_path / "tune.json"
        config.write_text(json.dumps(raw))
        ceiling = repr(tiny_run_config.network.demand_max_mbps)
        averages = []
        for flags in ([], ["--no-tune"]):
            out = tmp_path / ("no-tune" if flags else "tuned")
            assert cli.main(["evaluate", "--config", str(config), "--artifacts",
                             str(artifacts), "--out", str(out), "--slots", "60",
                             "--demand-max-sweep", ceiling, *flags]) == 0
            _, run = read_csv_columns(out / "eval_dqn_gbdt.csv")
            _, sweep = read_csv_columns(out / "sweep_dqn_gbdt.csv")
            assert sweep[0] == [ceiling] and sweep[2] == [run[2][-1]]
            averages.append(run[2][-1])
        assert averages[0] != averages[1]


def _replay_of_width(width):
    replay = dqn.ReplayBuffer(4)
    replay.push(np.zeros(width), 0, 0.0, np.zeros(width), False)
    return replay


class TestCliExitCodes:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "cranpower.cli", *args],
                              capture_output=True, text=True)

    def test_missing_config_is_config_error(self, tmp_path):
        proc = self._run("gen-data", "--config", "/nonexistent.json",
                         "--out", str(tmp_path))
        assert proc.returncode == 1

    def test_invalid_key_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dataset_sizee": 10}')
        proc = self._run("gen-data", "--config", str(bad), "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "dataset_sizee" in proc.stderr

    def test_missing_artifacts_is_runtime_failure(self, tmp_path):
        proc = self._run("evaluate", "--config", str(TINY),
                         "--out", str(tmp_path), "--slots", "5")
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--scheme", "DQN-GBDT", "--slots", "5"],
        ["evaluate", "--scheme", "DQN-SOCP", "--slots", "5"],
        ["bench", "--inputs", "5", "--repeats", "1"],
        ["ete", "--slots", "5"],
    ])
    def test_artifacts_of_another_cell_are_config_error(self, tiny_trained, tmp_path,
                                                        capsys, argv):
        # The tiny cell's artifacts read 3 features; the default cell has 12.
        _, _, artifacts = tiny_trained
        out = tmp_path / "out"
        code = cli.main([*argv, "--config", str(DEFAULT), "--artifacts", str(artifacts),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "Q-network input 3" in err
        assert not out.exists()

    @pytest.mark.parametrize("part, saved", [
        ("Q-network output 2", lambda path: dqn.save_checkpoint(
            dqn.QNetwork.initialize([3, 4, 2], np.random.default_rng(0)),
            path / pipeline.QNET_FILE)),
        ("power model input 4", lambda path: gbdt.save_model(
            gbdt.GbdtModel(0.0, [], gbdt.GbdtParams(num_rounds=1), 4),
            path / pipeline.GBDT_MODEL_FILE)),
        ("feasibility model input 2", lambda path: gbdt.save_model(
            gbdt.GbdtModel(1.0, [], gbdt.GbdtParams(num_rounds=1), 2),
            path / pipeline.FEASIBILITY_MODEL_FILE)),
        ("replay state 5", lambda path: _replay_of_width(5).save(
            path / pipeline.REPLAY_FILE)),
    ])
    def test_each_artifact_is_checked(self, tiny_trained, tmp_path, capsys, part, saved):
        artifacts, _, _ = tiny_trained
        artifacts.save(tmp_path / "artifacts")
        saved(tmp_path / "artifacts")
        code = cli.main(["evaluate", "--slots", "5", "--config", str(TINY),
                         "--artifacts", str(tmp_path / "artifacts"),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and part in err

    @pytest.mark.parametrize("doctor", ["max_depth", "back-pointing"])
    def test_doctored_power_model_is_runtime_failure(self, tiny_trained, tmp_path,
                                                     capsys, doctor):
        # A model file whose trees all claim depth 1, below their params'
        # and their own, refused when it is read; or one whose last split
        # points back at itself and the node before it, refused when it is
        # first walked. Unchecked, both answer wrong without an error.
        artifacts, _, _ = tiny_trained
        where = tmp_path / "artifacts"
        artifacts.save(where)
        raw = json.loads((where / pipeline.GBDT_MODEL_FILE).read_text())
        if doctor == "max_depth":
            for tree in raw["trees"]:
                tree["max_depth"] = 1
        else:
            tree = next(t for t in raw["trees"] if max(
                i for i, r in enumerate(t["right"]) if r >= 0) >= 2)
            split = max(i for i, r in enumerate(tree["right"]) if r >= 0)
            tree["left"][split], tree["right"][split] = split - 1, split
        (where / pipeline.GBDT_MODEL_FILE).write_text(json.dumps(raw))
        code = cli.main(["evaluate", "--slots", "5", "--config", str(TINY),
                         "--artifacts", str(where), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("runtime failure: tree ") and "Traceback" not in err

    def test_checkpoint_whose_layers_do_not_chain_is_runtime_failure(
            self, tiny_trained, tmp_path, capsys):
        # The tiny cell's 3-32-32-3 net with a second layer that takes 16
        # inputs: its layer sizes still read [3, 32, 32, 3].
        artifacts, _, _ = tiny_trained
        artifacts.save(tmp_path / "artifacts")
        write_checkpoint_arrays(tmp_path / "artifacts" / pipeline.QNET_FILE,
                                [3, 32, 32, 3], [(3, 32), (16, 32), (32, 3)])
        code = cli.main(["evaluate", "--slots", "5", "--config", str(TINY),
                         "--artifacts", str(tmp_path / "artifacts"),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.rstrip().endswith("layer 1: weight takes 16 inputs, but layer 0 "
                                     "gives 32")

    def test_dataset_of_another_cell_is_config_error(self, tiny_run_config, tmp_path,
                                                     capsys):
        dataset = tmp_path / "dataset.csv"
        pipeline.write_dataset_csv(pipeline.gen_dataset(tiny_run_config, count=10),
                                   dataset, tiny_run_config)
        out = tmp_path / "out"
        code = cli.main(["train", "--dataset", str(dataset), "--config", str(DEFAULT),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "dataset" in err
        assert not out.exists()

    def test_gen_data_succeeds(self, tmp_path):
        proc = self._run("gen-data", "--config", str(TINY),
                         "--out", str(tmp_path), "--count", "10")
        assert proc.returncode == 0
        assert (tmp_path / "dataset.csv").exists()


def _tiny_variant(tmp_path, section, key, value):
    raw = json.loads(TINY.read_text())
    (raw.setdefault(section, {}) if section else raw)[key] = value
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    return path


class TestStrictConfig:
    @pytest.mark.parametrize("section, key, value", [
        ("network", "num_rrhs", 2.9),
        ("network", "num_users", True),
        ("network", "max_tx_power_w", "1.0"),
        ("network", "noise_power_dbm", False),
        (None, "dataset_size", "100"),
        (None, "eval_slots", 40.5),
        (None, "redraw_channel", 1),
        (None, "holdout_fraction", math.nan),
        ("gbdt", "num_rounds", 60.5),
        ("dqn", "hidden_sizes", [32, True]),
        ("dqn", "hidden_sizes", 32),
        ("seeds", "data", "5"),
        ("solver", "tolerance", True),
        ("dqn", "train_interval", 0),
        ("dqn", "target_sync_interval", 0),
        ("dqn", "hidden_sizes", [-4]),
        ("dqn", "hidden_sizes", [0]),
        ("dqn", "episode_length", 0),
        ("dqn", "epsilon_decay_steps", -5),
        (None, "offline_envs", True),
        (None, "offline_envs", 2.5),
        (None, "offline_envs", "4"),
        (None, "offline_envs", 0),
        (None, "offline_envs", -3),
        # A random pattern is drawn as the bits of one int64.
        ("network", "num_rrhs", 64),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, section, key, value):
        path = _tiny_variant(tmp_path, section, key, value)
        code = cli.main(["gen-data", "--config", str(path), "--out",
                         str(tmp_path / "out"), "--count", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("argv, option", [
        (["gen-data", "--count", "0"], "--count"),
        (["gen-data", "--count", "-3"], "--count"),
        (["baseline", "--scheme", "AO", "--slots", "-5"], "--slots"),
        (["evaluate", "--slots", "-1"], "--slots"),
        (["ete", "--slots", "-2"], "--slots"),
        (["bench", "--inputs", "0"], "--inputs"),
        (["bench", "--repeats", "-1"], "--repeats"),
        (["baseline", "--scheme", "OC", "--slots", "3", "--demand-max-sweep", "10,abc"],
         "--demand-max-sweep"),
        (["baseline", "--scheme", "AO", "--slots", "3", "--demand-max-sweep", "-4"],
         "--demand-max-sweep"),
        (["evaluate", "--slots", "3", "--demand-max-sweep", "10,nan"],
         "--demand-max-sweep"),
    ])
    def test_bad_option_is_config_error_before_any_work(self, tmp_path, capsys, argv,
                                                        option):
        out = tmp_path / "out"
        code = cli.main([*argv, "--config", str(TINY), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and option in err
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ('{"network": 8}', "network"),
        ('{"dqn": [0.9]}', "dqn"),
        ("[1, 2]", "top level"),
    ])
    def test_section_must_be_a_mapping(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["gen-data", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("key, value, loaded", [
        ("max_tx_power_w", 1, 1.0),
        ("num_rrhs", 2.0, 2),
    ])
    def test_json_numbers_convert(self, tmp_path, key, value, loaded):
        path = _tiny_variant(tmp_path, "network", key, value)
        got = getattr(pipeline.RunConfig.from_file(path).network, key)
        assert got == loaded and type(got) is type(loaded)
        assert cli.main(["gen-data", "--config", str(path), "--out",
                         str(tmp_path / "out"), "--count", "5"]) == 0


README = Path(__file__).resolve().parent.parent / "README.md"


def _accepted_keys(cls, prefix=""):
    """Every key `config_from_dict` reads into `cls`, sections walked as
    `section.key`."""
    keys = set()
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            keys |= _accepted_keys(f.default_factory, f"{prefix}{f.name}.")
        else:
            keys.add(prefix + f.name)
    return keys


class TestConfigReader:
    @pytest.mark.parametrize("path", [DEFAULT, TINY], ids=["default", "tiny"])
    def test_round_trip(self, path):
        config = pipeline.RunConfig.from_file(path)
        raw = json.loads(json.dumps(dataclasses.asdict(config)))
        assert config_from_dict(pipeline.RunConfig, raw) == config

    @pytest.mark.parametrize("section, key, value", [
        ("network", "slot_duration_ms", 100.0),
        (None, "scheme", "DQN-GBDT"),
        (None, "online_tuning", True),
        (None, "initial_pattern_mode", "all-on"),
        (None, "train_initial_pattern_mode", "random"),
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, section, key, value):
        path = _tiny_variant(tmp_path, section, key, value)
        out = tmp_path / "out"
        code = cli.main(["gen-data", "--config", str(path), "--out", str(out),
                         "--count", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "unknown key" in err
        assert (f"{section}.{key}" if section else key) in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("network", "num_rrhs", 2.9),     # read as the field's type
        ("network", "num_rrhs", 0),       # the class's own check
        ("network", "demand_min_mbps", 50.0),
        ("dqn", "batch_size", "64"),
        ("seeds", "eval", True),
    ])
    def test_section_error_names_section_key(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            config_from_dict(pipeline.RunConfig, {section: {key: value}})
        assert err.value.key == f"{section}.{key}"
        assert f"'{section}.{key}'" in str(err.value)

    def test_class_check_names_section(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(pipeline.RunConfig, {"gbdt": {"num_rounds": 0}})
        assert err.value.key == "gbdt" and "num_rounds" in str(err.value)

    def test_readme_lists_the_accepted_keys(self):
        text = README.read_text()
        block = text[text.index("Supported keys, by section:"):]
        block = block[:block.index("\n\n", block.index("\n- "))]
        documented = set()
        for item in re.split(r"\n- ", block)[1:]:
            head, _, keys = item.partition(":")
            prefix = "" if head == "top level" else head.strip("`") + "."
            keys = re.sub(r"\([^)]*\)", "", keys)
            documented |= {prefix + key for key in re.findall(r"`([a-z0-9_]+)`", keys)}
        assert documented == _accepted_keys(pipeline.RunConfig) | {"network.noise_power_dbm"}


class TestRefusedValues:
    @pytest.mark.parametrize("key, value", [
        ("demand_max_mbps", math.inf),
        ("noise_power_dbm", math.nan),
        ("max_tx_power_w", math.inf),
    ])
    def test_non_finite_number(self, tmp_path, capsys, key, value):
        path = _tiny_variant(tmp_path, "network", key, value)
        assert ("Infinity" if value == math.inf else "NaN") in path.read_text()
        out = tmp_path / "out"
        code = cli.main(["baseline", "--scheme", "AO", "--slots", "3",
                         "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and f"network.{key}" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, seed", [
        (["gen-data", "--count", "3"], "data"),
        (["train"], "train"),
        (["evaluate", "--slots", "3"], "eval"),
    ])
    def test_negative_seed_option(self, tmp_path, capsys, argv, seed):
        out = tmp_path / "out"
        code = cli.main([*argv, "--seed", "-1", "--config", str(TINY), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and f"seed '{seed}'" in err
        assert not out.exists()

    def test_negative_seed_in_config(self, tmp_path, capsys):
        path = _tiny_variant(tmp_path, "seeds", "train", -2)
        out = tmp_path / "out"
        code = cli.main(["train", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "seed 'train'" in err
        assert not out.exists()

    def test_seed_override_leaves_other_seeds(self, tmp_path, monkeypatch):
        seen = {}
        monkeypatch.setitem(cli._COMMANDS, "gen-data",
                            lambda args, config, out: seen.update(seeds=config.seeds))
        assert cli.main(["gen-data", "--seed", "0", "--config", str(TINY),
                         "--out", str(tmp_path)]) == 0
        assert seen["seeds"] == pipeline.Seeds(data=0, train=6, eval=7)
