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


def per_row_dataset(config, count):
    """Rows of `gen_dataset` as a loop over single states that skips a state
    the solver fails on and draws another: the reference for its order."""
    network = config.network
    channel = pipeline.make_channel(config)
    source = ExactSolverReward(network, config.solver)
    rng = np.random.default_rng([config.seeds.data, pipeline._STREAM_DATASET])
    m = network.num_rrhs
    rows, failures = [], 0
    while len(rows) < count:
        pattern = pipeline._sample_pattern(m, pipeline.PATTERN_RANDOM, rng)
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
        # Draws 1, 2, 7, 30 and 31 fail among the first 40, and draw 41 fails
        # again among their replacements. A small chunk splits the draws
        # into many rounds and batches.
        if chunk is not None:
            monkeypatch.setattr(pipeline, "SOLVE_CHUNK", chunk)
            monkeypatch.setattr(env, "SOLVE_CHUNK", chunk)
        failing = {1, 2, 7, 30, 31, 41}
        calls = itertools.count()
        solve_states = env.solve_states

        def failing_states(gains, channel_of, active, iota, caps, noise, params):
            # Negative noise makes the fixed point oscillate at once.
            noise = np.where([next(calls) in failing for _ in noise], -noise, noise)
            return solve_states(gains, channel_of, active, iota, caps, noise, params)

        monkeypatch.setattr(env, "solve_states", failing_states)
        rows = pipeline.gen_dataset(tiny_run_config, count=40)
        assert next(calls) == 40 + len(failing)
        calls = itertools.count()
        reference, failures = per_row_dataset(tiny_run_config, 40)
        assert rows.solver_failures == failures == len(failing)
        assert np.array_equal(rows.features, np.array([r[0] for r in reference]))
        assert np.array_equal(rows.tx_power_w, np.array([r[1] for r in reference]),
                              equal_nan=True)
        assert np.array_equal(rows.feasible, np.array([r[2] for r in reference]))


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
    time, one exact solve a step. Returns (net, replay transitions oldest
    first, train log rows, the summary's dqn section)."""
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
        environment = env.Environment(
            config.network, channel,
            ExactSolverReward(config.network, config.solver),
            rng_env, episode_length=params.episode_length)
        state = environment.reset(pipeline._sample_pattern(
            m, pipeline.PATTERN_RANDOM, rng_env))
        episode_return = 0.0
        while True:
            epsilon = params.epsilon_at(global_step)
            features = env.encode_state(state, config.network)
            action = dqn.select_action(net, features, epsilon, rng_actions)
            result = environment.step(action)
            transition = dqn.Transition(features, action, result.reward,
                                        env.encode_state(result.next_state,
                                                         config.network),
                                        result.terminal)
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
                last_loss = dqn.train_step(net, target, [storage[i] for i in idx],
                                           params.gamma, params.learning_rate)
                log_rows.append((global_step, last_loss, epsilon, last_return))
            if global_step % params.target_sync_interval == 0:
                target = dqn.sync_target(net)
            if result.terminal:
                break
            state = result.next_state
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
                             dqn.Batch.of(transitions).arrays()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        pipeline._write_csv(tmp_path / "reference_log.csv",
                            ["step", "loss", "epsilon", "episode_return"], log_rows)
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
        resets, pushes = [], []
        reset, push = env.Environment.reset, dqn.ReplayBuffer.push
        monkeypatch.setattr(env.Environment, "reset",
                            lambda self, *a: resets.append(1) or reset(self, *a))
        monkeypatch.setattr(dqn.ReplayBuffer, "push",
                            lambda self, t: pushes.append(1) or push(self, t))
        artifacts, summary = pipeline.train_offline(
            config, dataset=pipeline.gen_dataset(config, count=100))
        steps = summary["dqn"]["steps"]
        assert len(resets) == 12
        assert steps == len(pushes) == len(artifacts.replay)
        # Every episode ends on exactly one terminal transition.
        assert int(np.count_nonzero(artifacts.replay.contents().terminals)) == 12

    def test_lockstep_differs_from_one_env(self, tmp_path):
        tiny = pipeline.RunConfig.from_file(TINY)
        _, one = _train(tiny, tmp_path / "one")
        _, four = _train(dataclasses.replace(tiny, offline_envs=4), tmp_path / "four")
        assert one["dqn"]["episodes"] == four["dqn"]["episodes"]
        assert _non_timing_files(tmp_path / "one")["qnet.ckpt"] != \
            _non_timing_files(tmp_path / "four")["qnet.ckpt"]

    def test_redraw_tick_is_one_batch(self, monkeypatch):
        # Envs on their own channels share one reward source, so each tick
        # asks it once and solves every posed problem in one batch.
        config = dataclasses.replace(pipeline.RunConfig.from_file(TINY), offline_envs=4,
                                     redraw_channel=True, offline_episodes=12)
        dataset = pipeline.gen_dataset(config, count=100)
        ticks, calls, batches = [], [], []
        step_all, transmit_powers = pipeline.step_all, ExactSolverReward.transmit_powers
        solve_states = env.solve_states

        def counting_step_all(envs, actions):
            ticks.append(len(envs))
            return step_all(envs, actions)

        def counting_transmit_powers(source, channels, patterns, demands):
            calls.append((len(patterns), len({id(c) for c in channels})))
            return transmit_powers(source, channels, patterns, demands)

        monkeypatch.setattr(pipeline, "step_all", counting_step_all)
        monkeypatch.setattr(ExactSolverReward, "transmit_powers",
                            counting_transmit_powers)
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


class TestRunOnline:
    def test_replay_copy_is_sized_once(self):
        # A 30,000-row pre-trained replay and 5,000 slots: the copy is
        # allocated once for both, so no push grows it and there is no
        # gathered temporary of the rows.
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
        pushed = dqn.Transition(rng.random(width), 3, 1.0, rng.random(width), False)
        tracemalloc.start()
        try:
            policy = pipeline._OnlinePolicy(config, artifacts, False, 5_000)
            reserved = len(policy.buffer._store)
            for _ in range(5_000):
                policy.buffer.push(pushed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(policy.buffer) == 35_000
        assert reserved == len(policy.buffer._store) == 35_000
        assert peak <= 13.1 * 2 ** 20

    def test_zero_slots_empty_report(self, tiny_trained, tiny_run_config):
        artifacts, _, _ = tiny_trained
        report = pipeline.run_online(tiny_run_config, artifacts, 0)
        assert len(report.instant_w) == 0
        assert report.infeasible_count == 0

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
        artifacts, _, _ = tiny_trained
        report = pipeline.run_online(tiny_run_config, artifacts, 5)
        path = tmp_path / "eval.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "slot,instant_w,running_avg_w,action,feasible"
        assert len(lines) == 6


class TestBaselines:
    def test_ao_zero_demand_instant_power(self):
        config = zero_demand_run_config()
        report = pipeline.run_baseline(config, "AO", 5)
        assert np.allclose(report.instant_w, 54.4, rtol=1e-12)
        transitions = [row[-4] for row in report.trajectory]
        assert all(t == 0.0 for t in transitions)

    def test_oc_zero_demand_instant_power(self):
        config = zero_demand_run_config()
        report = pipeline.run_baseline(config, "OC", 5)
        # Slot 0 pays the single mode switch; afterwards 7 active + 1 asleep.
        assert report.instant_w[0] == pytest.approx(51.9 + 2.0, rel=1e-12)
        assert np.allclose(report.instant_w[1:], 51.9, rtol=1e-12)
        transitions = [row[-4] for row in report.trajectory]
        assert transitions[0] == 2.0 and all(t == 0.0 for t in transitions[1:])

    def test_baselines_share_demand_stream(self, tiny_run_config):
        ao = pipeline.run_baseline(tiny_run_config, "AO", 10)
        oc = pipeline.run_baseline(tiny_run_config, "OC", 10)
        n = tiny_run_config.network.num_users
        d_ao = [row[3:3 + n] for row in ao.trajectory]
        d_oc = [row[3:3 + n] for row in oc.trajectory]
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

    def test_ete_stub_identity(self, tiny_trained, tiny_run_config):
        # An oracle surrogate that returns exact solver values is exactly the
        # exact reward source; pairing it with itself must give a zero gap.
        artifacts, _, _ = tiny_trained
        result = pipeline.ete_compare(tiny_run_config, artifacts, 20,
                                      schemes=("DQN-SOCP", "DQN-SOCP"))
        assert result.average_gap_rel == 0.0
        assert result.action_agreement == 1.0

    def test_ete_rates_in_range(self, tiny_trained, tiny_run_config):
        artifacts, _, _ = tiny_trained
        result = pipeline.ete_compare(tiny_run_config, artifacts, 15)
        assert 0.0 <= result.action_agreement <= 1.0
        assert result.average_gap_rel >= 0.0

    def test_demand_sweep_rows(self, tiny_trained, tiny_run_config):
        artifacts, _, _ = tiny_trained
        configs = [dataclasses.replace(tiny_run_config, network=dataclasses.replace(
            tiny_run_config.network, demand_max_mbps=dmax)) for dmax in (10.0, 15.0)]
        rows = pipeline.demand_sweep(configs, artifacts, 10, "DQN-GBDT")
        assert [r[0] for r in rows] == [10.0, 15.0]
        assert all(r[2] > 0 for r in rows)


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
        (None, "offline_envs", True),
        (None, "offline_envs", 2.5),
        (None, "offline_envs", "4"),
        (None, "offline_envs", 0),
        (None, "offline_envs", -3),
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
