import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranpower import env as env_module
from cranpower.beamform import SolverFailure
from cranpower.env import (
    FEASIBILITY_THRESHOLD,
    Environment,
    ExactSolverReward,
    Slot,
    SurrogateReward,
    apply_action,
    encode_states,
    p_upper_bound,
)
from cranpower import gbdt
from cranpower.gbdt import GbdtModel, GbdtParams, RegressionDataset
from cranpower.netmodel import (
    NetworkConfig,
    sample_channel,
    sample_demands,
    state_and_transition_power,
)


def constant_model(value, num_features):
    return GbdtModel(initial_prediction=float(value), trees=[],
                     params=GbdtParams(num_rounds=1), num_features=num_features)


def surrogate_answer(source, pattern, demands):
    """The surrogate's (power, feasible) answer of one state from per-row
    `gbdt.predict`: the gate, then the power model clamped at zero."""
    features = np.concatenate([np.asarray(pattern, dtype=float), demands])
    if gbdt.predict(source.feasibility_model, features) < FEASIBILITY_THRESHOLD:
        return 0.0, False
    return max(0.0, gbdt.predict(source.model, features)), True


def fitted_surrogate(config, seed):
    """A surrogate of the cell whose models are small fits to random rows,
    so that its answers vary: some states fail the gate, and some power
    predictions are negative and clamped."""
    rng = np.random.default_rng(seed)
    m, n = config.num_rrhs, config.num_users
    rows = np.concatenate([rng.random((60, m)) < 0.5,
                           rng.uniform(0.0, config.demand_max_mbps, (60, n))], axis=1)
    load = rows[:, m:].sum(axis=1) / config.demand_max_mbps - rows[:, :m].sum(axis=1) / m
    params = GbdtParams(num_rounds=8, max_depth=3, min_samples_leaf=2, step_length=0.5)
    return SurrogateReward(
        config, gbdt.train(RegressionDataset(rows, load), params),
        gbdt.train(RegressionDataset(rows, rng.random(60) < 0.6), params))


def make_env(config, reward_source=None, seed=0, pattern=None, **kwargs):
    """A one-row env on a channel drawn from `seed`, started from `pattern`
    (by default every RRH on) with demands drawn from its own generator."""
    channel = sample_channel(config, np.random.default_rng(seed))
    if reward_source is None:
        reward_source = ExactSolverReward(config)
    elif callable(reward_source):
        reward_source = reward_source(channel)
    if pattern is None:
        pattern = np.ones(config.num_rrhs, dtype=bool)
    rng = np.random.default_rng(seed + 1)
    return Environment(config, channel.gains[None], [pattern],
                       sample_demands(config, rng, 1), reward_source, rng, **kwargs)


def restart1(env):
    """Start a one-row env's next episode in place, from every RRH on with
    demands drawn from its generator."""
    env.restart([0], env.gains[0], True, sample_demands(env.config, env.rng, 1))


def step1(env, action):
    """Step a one-row env by `action`; its Slot with each field row 0's."""
    return Slot._make(field[0] for field in env.step([action]))


def encode_one(config, pattern, demands):
    """One state's network features, by the scalar rule: the on/off bits,
    then the demands over the ceiling (over 1 when it is 0)."""
    scale = config.demand_max_mbps or 1.0
    return np.concatenate([np.asarray(pattern, dtype=float), demands / scale])


class ReferenceEnv:
    """One env stepped by the scalar rules, without `Environment`: the flip,
    the source's `transmit_power` on the env's own channel (the surrogate's
    answer from per-row predictions), the scalar
    `state_and_transition_power`, the reward, and one `sample_demands` call
    for the next slot's demands."""

    def __init__(self, config, channel, source, rng, pattern, episode_length=None):
        self.config, self.channel, self.source, self.rng = config, channel, source, rng
        self.episode_length = episode_length
        self.pattern = np.array(pattern, dtype=bool)
        self.demands = sample_demands(config, rng)
        self.slot = 0

    def features(self):
        return encode_one(self.config, self.pattern, self.demands)

    def step(self, action) -> Slot:
        cfg = self.config
        pattern = self.pattern.copy()
        if action < cfg.num_rrhs:
            pattern[action] = not pattern[action]
        if isinstance(self.source, SurrogateReward):
            tx, ok = surrogate_answer(self.source, pattern, self.demands)
        else:
            tx, ok = self.source.transmit_power(self.channel, pattern, self.demands)
        state_w, transition_w = state_and_transition_power(self.pattern, pattern, cfg)
        transmit_w = tx / cfg.amplifier_efficiency if ok else 0.0
        total_w = transmit_w + state_w + transition_w
        p_ub = p_upper_bound(cfg)
        self.slot += 1
        terminal = not ok or (self.episode_length is not None
                              and self.slot >= self.episode_length)
        self.pattern, self.demands = pattern, sample_demands(cfg, self.rng)
        return Slot(transmit_w, state_w, transition_w, total_w,
                    p_ub - total_w if ok else -p_ub, ok, terminal)


class TestApplyAction:
    def test_flip(self):
        out = apply_action(np.array([1, 1, 0], dtype=bool), 2)
        assert np.array_equal(out, [True, True, True])

    def test_noop(self):
        pat = np.array([1, 1, 0], dtype=bool)
        assert np.array_equal(apply_action(pat, 3), pat)

    def test_involution(self):
        pat = np.array([0, 1, 0, 1], dtype=bool)
        assert np.array_equal(apply_action(apply_action(pat, 1), 1), pat)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_action(np.zeros(3, dtype=bool), 4)

    def test_input_not_mutated(self):
        pat = np.array([0, 0], dtype=bool)
        apply_action(pat, 0)
        assert not pat[0]


class TestUpperBound:
    def test_table_constants(self, table1_config):
        assert p_upper_bound(table1_config) == pytest.approx(102.4, rel=1e-12)

    def test_single_rrh(self):
        cfg = NetworkConfig(num_rrhs=1)
        assert p_upper_bound(cfg) == pytest.approx(12.8, rel=1e-12)

    def test_degenerate_bound(self):
        # No transmit headroom and free transitions leave only standby power.
        cfg = NetworkConfig(num_rrhs=4, max_tx_power_w=1e-300,
                            transition_power_w=1e-300)
        assert p_upper_bound(cfg) == pytest.approx(4 * 6.8, rel=1e-9)


def zero_demand_config(num_rrhs=8, num_users=4):
    return NetworkConfig(num_rrhs=num_rrhs, num_users=num_users,
                         demand_min_mbps=0.0, demand_max_mbps=0.0)


class TestStepExact:
    def test_all_sleeping_noop_reward(self):
        cfg = zero_demand_config()
        env = make_env(cfg, pattern=np.zeros(8, dtype=bool))
        result = step1(env, 8)  # no-op
        assert result.total_w == pytest.approx(34.4, rel=1e-12)
        assert result.reward == pytest.approx(102.4 - 34.4, rel=1e-12)
        assert result.feasible and not result.terminal

    def test_flip_costs_exactly_the_transition_power(self):
        # Same landing pattern, reached by a flip vs already being there:
        # the rewards differ by exactly the transition power.
        cfg = zero_demand_config()
        target = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
        env_a = make_env(cfg, seed=3, pattern=target)
        ra = step1(env_a, 8).reward            # no-op, already at target
        before = target.copy()
        before[2] = False
        env_b = make_env(cfg, seed=3, pattern=before)
        rb = step1(env_b, 2).reward            # flip RRH 2 to reach target
        assert ra - rb == pytest.approx(2.0, rel=1e-12)

    def test_unservable_demand_is_penalized_terminal(self):
        cfg = NetworkConfig(num_rrhs=2, num_users=2,
                            demand_min_mbps=20.0, demand_max_mbps=20.0)
        # One active single-antenna RRH cannot serve two users at iota = 3.
        env = make_env(cfg, seed=5, pattern=[True, False])
        result = step1(env, 2)
        assert not result.feasible
        assert result.terminal
        assert result.reward == -env.p_upper_bound_w

    def test_all_off_with_demand_infeasible(self):
        cfg = NetworkConfig(num_rrhs=2, num_users=1)
        env = make_env(cfg, seed=6, pattern=[True, False])
        result = step1(env, 0)  # switches the last active RRH off
        assert not result.feasible
        assert result.reward == -env.p_upper_bound_w

    def test_noop_never_pays_transition(self, table1_config):
        env = make_env(table1_config, seed=7)
        for _ in range(5):
            result = step1(env, table1_config.num_rrhs)
            assert result.transition_w == 0.0

    def test_reward_bounds_when_feasible(self, table1_config):
        env = make_env(table1_config, seed=8)
        rng = np.random.default_rng(9)
        ub = env.p_upper_bound_w
        for _ in range(30):
            result = step1(env, int(rng.integers(0, 9)))
            if result.feasible:
                assert -ub < result.reward <= ub - 8 * min(4.3, 6.8)
            else:
                restart1(env)

    def test_same_seed_reproducible(self, table1_config):
        def trajectory(seed):
            env = make_env(table1_config, seed=seed)
            rng = np.random.default_rng(99)
            out = []
            for _ in range(10):
                r = step1(env, int(rng.integers(0, 9)))
                out.append((r.reward, r.total_w, r.feasible))
                if r.terminal:
                    restart1(env)
            return out

        assert trajectory(11) == trajectory(11)


class TestReset:
    """An env starts every row when it is built."""

    @staticmethod
    def _build(config, patterns):
        channel = sample_channel(config, np.random.default_rng(12))
        return Environment(config, np.broadcast_to(channel.gains, (3, 8, 4)), patterns,
                           np.arange(12.0).reshape(3, 4), ExactSolverReward(config),
                           np.random.default_rng(13))

    def test_built_env_starts_every_row(self, table1_config):
        patterns = np.random.default_rng(14).random((3, 8)) < 0.5
        env = self._build(table1_config, patterns)
        assert env.patterns.tobytes() == patterns.tobytes()
        assert env.patterns is not patterns
        assert env.demands.tolist() == np.arange(12.0).reshape(3, 4).tolist()
        assert env.slots.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("shape", [(1,), (7,), (9,), (2, 8), (1, 1, 8), (8,)])
    def test_pattern_of_another_shape_rejected(self, table1_config, shape):
        # Three rows of eight RRHs take a (3, 8) pattern only; neither one
        # (8,) pattern nor a length-1 one is broadcast over the rows or RRHs.
        with pytest.raises(ValueError, match="initial patterns"):
            self._build(table1_config, np.ones(shape, dtype=bool))

    def test_same_seed_same_reset(self, table1_config):
        a, b = make_env(table1_config, seed=13), make_env(table1_config, seed=13)
        assert np.array_equal(a.demands, b.demands)


class TestSurrogateMode:
    def test_shares_standby_and_transition_accounting(self, table1_config):
        # Constant surrogate: the two modes must agree on everything except
        # the transmit term.
        m, n = table1_config.num_rrhs, table1_config.num_users
        surrogate = SurrogateReward(table1_config, constant_model(0.123, m + n),
                                    constant_model(1.0, m + n))
        exact = make_env(table1_config, seed=20)
        surro = make_env(table1_config,
                         reward_source=lambda ch: surrogate, seed=20)
        rng = np.random.default_rng(21)
        for _ in range(8):
            action = int(rng.integers(0, m + 1))
            re = step1(exact, action)
            rs = step1(surro, action)
            assert rs.state_w == re.state_w
            assert rs.transition_w == re.transition_w
            if re.feasible:
                assert rs.transmit_w == pytest.approx(
                    0.123 / table1_config.amplifier_efficiency, rel=1e-12)
            else:
                restart1(exact)
                restart1(surro)

    def test_feasibility_gate_fires_below_threshold(self, table1_config):
        m, n = table1_config.num_rrhs, table1_config.num_users
        below = np.nextafter(FEASIBILITY_THRESHOLD, 0.0)
        surrogate = SurrogateReward(table1_config, constant_model(0.1, m + n),
                                    constant_model(below, m + n))
        env = make_env(table1_config, reward_source=lambda ch: surrogate, seed=22)
        result = step1(env, m)
        assert not result.feasible
        assert result.terminal
        assert result.reward == -env.p_upper_bound_w
        surrogate.feasibility_model = constant_model(FEASIBILITY_THRESHOLD, m + n)
        assert step1(env, m).feasible

    def test_negative_prediction_clamped(self, table1_config):
        m, n = table1_config.num_rrhs, table1_config.num_users
        surrogate = SurrogateReward(table1_config, constant_model(-4.0, m + n),
                                    constant_model(1.0, m + n))
        env = make_env(table1_config, reward_source=lambda ch: surrogate, seed=23)
        assert step1(env, m).transmit_w == 0.0

    @pytest.mark.parametrize("passing", ["none", "some", "all"])
    def test_batch_matches_per_row_predict(self, table1_config, monkeypatch, passing):
        # One walk of both models over the batch, equal bit for bit to
        # `predict` on each row, with the power counted only past the gate.
        m, n = table1_config.num_rrhs, table1_config.num_users
        surrogate = fitted_surrogate(table1_config, 24)
        rng = np.random.default_rng(25)
        patterns = rng.random((60, m)) < 0.5
        demands = rng.uniform(0.0, table1_config.demand_max_mbps, (60, n))
        answers = [surrogate_answer(surrogate, p, d) for p, d in zip(patterns, demands)]
        gated = np.array([ok for _, ok in answers])
        rows = {"none": np.flatnonzero(~gated)[:7], "all": np.flatnonzero(gated)[:7],
                "some": np.arange(12)}[passing]
        assert gated[rows].any() == (passing != "none")
        assert gated[rows].all() == (passing == "all")
        calls = []
        predict_pair = gbdt.predict_pair

        def counting(first, second, features):
            calls.append((first, second, len(features)))
            return predict_pair(first, second, features)

        monkeypatch.setattr(gbdt, "predict_pair", counting)
        monkeypatch.setattr(gbdt, "predict_batch", None)
        monkeypatch.setattr(gbdt, "predict", None)
        channel = sample_channel(table1_config, rng)
        power, feasible, failures = surrogate.solve(
            np.broadcast_to(channel.gains, (len(rows), m, n)), patterns[rows], demands[rows])
        assert failures == {}
        assert feasible.tolist() == gated[rows].tolist()
        want = np.array([answers[k][0] for k in rows])
        assert power.tobytes() == want.tobytes()
        assert calls == [(surrogate.feasibility_model, surrogate.model, len(rows))]


class TestSharedChannel:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 4), n=st.integers(1, 3), count=st.integers(1, 8),
           seed=st.integers(0, 2 ** 16), surrogate=st.booleans())
    def test_broadcast_view_answers_as_a_copy_and_as_each_state(self, m, n, count, seed,
                                                                 surrogate):
        # States that share a channel through a zero-copy view read the
        # same bits as on a materialised copy of their gains, and as each
        # state alone through `transmit_power`.
        config = NetworkConfig(num_rrhs=m, num_users=n, demand_min_mbps=0.0)
        source = fitted_surrogate(config, seed) if surrogate else ExactSolverReward(config)
        rng = np.random.default_rng(seed)
        channel = sample_channel(config, rng)
        patterns = rng.random((count, m)) < 0.6
        demands = rng.uniform(0.0, config.demand_max_mbps, (count, n))
        shared = np.broadcast_to(channel.gains, (count, m, n))
        assert shared.strides[0] == 0
        power, feasible, failures = source.solve(shared, patterns, demands)
        copied = source.solve(shared.copy(), patterns, demands)
        assert power.tobytes() == copied[0].tobytes()
        assert feasible.tolist() == copied[1].tolist()
        assert {k: str(f) for k, f in failures.items()} == {
            k: str(f) for k, f in copied[2].items()}
        for k, (pattern, row) in enumerate(zip(patterns, demands)):
            if k in failures:
                with pytest.raises(SolverFailure, match=re.escape(str(failures[k]))):
                    source.transmit_power(channel, pattern, row)
                continue
            alone = source.transmit_power(channel, pattern, row)
            assert alone == (power[k], feasible[k])
            assert np.float64(alone[0]).tobytes() == power[k].tobytes()


class TestEncodeState:
    def test_scaling(self, table1_config):
        env = make_env(table1_config, seed=30)
        feats = encode_states(env.patterns, env.demands, table1_config.demand_max_mbps)
        assert feats.shape == (1, 12)
        assert np.all(feats[:, :8] == 1.0)
        # Demands 20-40 over 40.
        assert np.all((feats[:, 8:] >= 0.5) & (feats[:, 8:] <= 1.0))


class TestStepAll:
    """`Environment.step` on K rows, each on its own channel gains."""

    @staticmethod
    def _channels(config, seed, owners):
        """One channel per entry of `owners`; equal owners share a channel."""
        channels = {owner: sample_channel(config, np.random.default_rng([seed, owner]))
                    for owner in set(owners)}
        return [channels[owner] for owner in owners]

    @staticmethod
    def _gains(channels):
        """The (K, m, n) gains of K rows on `channels`, in a writable array."""
        return np.array([channel.gains for channel in channels])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 4), n=st.integers(1, 3),
           demand_max=st.sampled_from([5.0, 40.0, 200.0]),
           owners=st.lists(st.integers(0, 2), min_size=1, max_size=6),
           ticks=st.integers(1, 6), episode_length=st.sampled_from([None, 2]),
           seed=st.integers(0, 2 ** 16), surrogate=st.booleans())
    def test_equals_stepping_each_env_alone(self, m, n, demand_max, owners, ticks,
                                            episode_length, seed, surrogate):
        # K rows on one demand generator, against K envs stepped by the
        # scalar rules that take their draws from a twin generator in row
        # order. A finished row starts again from all-on in both.
        config = NetworkConfig(num_rrhs=m, num_users=n, demand_min_mbps=0.0,
                               demand_max_mbps=demand_max)
        source = fitted_surrogate(config, seed) if surrogate else ExactSolverReward(config)
        channels = self._channels(config, seed, owners)
        pick = np.random.default_rng(seed)
        patterns = pick.random((len(owners), m)) < 0.5
        rng = np.random.default_rng([seed, 1])
        rows = Environment(config, self._gains(channels), patterns,
                           sample_demands(config, rng, len(owners)), source, rng,
                           episode_length=episode_length)
        twin = np.random.default_rng([seed, 1])
        alone = [ReferenceEnv(config, channel, source, twin, pattern, episode_length)
                 for channel, pattern in zip(channels, patterns)]
        for _ in range(ticks):
            actions = pick.integers(0, m + 1, size=len(owners))
            got = rows.step(actions)
            for k, (ref, action) in enumerate(zip(alone, actions)):
                want = ref.step(int(action))
                for name, a, b in zip(Slot._fields, got, want):
                    assert a[k] == b, name
                assert rows.slots[k] == ref.slot
            assert rows.patterns.tobytes() == np.array([r.pattern for r in alone]).tobytes()
            assert rows.demands.tobytes() == np.array([r.demands for r in alone]).tobytes()
            done = np.flatnonzero(got.terminal)
            if len(done):
                rows.restart(done, self._gains(channels)[done], True,
                             sample_demands(config, rows.rng, len(done)))
                for k in done:
                    alone[k] = ReferenceEnv(config, channels[k], source, twin,
                                            np.ones(m, dtype=bool), episode_length)
        assert rows.rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 4), n=st.integers(1, 3), rows=st.integers(1, 7),
           ticks=st.integers(1, 5), episode_length=st.sampled_from([None, 1, 3]),
           seed=st.integers(0, 2 ** 16), surrogate=st.booleans())
    def test_k_rows_equal_k_single_row_steps(self, m, n, rows, ticks, episode_length,
                                             seed, surrogate):
        # K rows stepped at once on one generator, against K one-row envs
        # stepped one after the other in row order on a twin generator: the
        # same rewards, watts, flags and next demands, and the same generator
        # state after every tick.
        config = NetworkConfig(num_rrhs=m, num_users=n, demand_min_mbps=0.0,
                               demand_max_mbps=40.0)
        source = fitted_surrogate(config, seed) if surrogate else ExactSolverReward(config)
        channels = self._channels(config, seed, range(rows))
        pick = np.random.default_rng(seed)
        patterns = pick.random((rows, m)) < 0.5
        rng = np.random.default_rng(seed)
        together = Environment(config, self._gains(channels), patterns,
                               sample_demands(config, rng, rows), source, rng,
                               episode_length=episode_length)
        twin = np.random.default_rng(seed)
        single = [Environment(config, channel.gains[None], [pattern],
                              sample_demands(config, twin, 1), source, twin,
                              episode_length=episode_length)
                  for channel, pattern in zip(channels, patterns)]
        for _ in range(ticks):
            actions = pick.integers(0, m + 1, size=rows)
            got = together.step(actions)
            for k, (env, action) in enumerate(zip(single, actions)):
                want = env.step([action])
                for name, a, b in zip(Slot._fields, got, want):
                    assert a[k:k + 1].tobytes() == b.tobytes(), name
                assert together.demands[k].tobytes() == env.demands[0].tobytes()
                assert together.patterns[k].tobytes() == env.patterns[0].tobytes()
            assert together.slots.tolist() == [env.slots[0] for env in single]
            assert together.rng.bit_generator.state == twin.bit_generator.state

    def test_step_is_the_reference_step(self, table1_config):
        m, n = table1_config.num_rrhs, table1_config.num_users
        surrogate = SurrogateReward(table1_config, constant_model(0.5, m + n),
                                    constant_model(1.0, m + n))
        channel = self._channels(table1_config, 5, [0])[0]
        for source in (ExactSolverReward(table1_config), surrogate):
            rng = np.random.default_rng(6)
            env = Environment(table1_config, channel.gains[None], np.ones((1, m)),
                              sample_demands(table1_config, rng, 1), source, rng,
                              episode_length=3)
            ref = ReferenceEnv(table1_config, channel, source, np.random.default_rng(6),
                               np.ones(m, dtype=bool), episode_length=3)
            for action in [0, m, 3, 3, 1, m, 7]:
                result, want = step1(env, action), ref.step(action)
                assert result == want
                assert env.patterns[0].tobytes() == ref.pattern.tobytes()
                assert env.demands[0].tobytes() == ref.demands.tobytes()
                if result.terminal:
                    restart1(env)
                    ref = ReferenceEnv(table1_config, channel, source, ref.rng,
                                       np.ones(m, dtype=bool), episode_length=3)

    def test_one_batch_per_shared_source(self, table1_config, monkeypatch):
        calls = []
        original = ExactSolverReward.solve

        def counting(source, gains, patterns, demands):
            calls.append(gains)
            return original(source, gains, patterns, demands)

        monkeypatch.setattr(ExactSolverReward, "solve", counting)
        gains = self._gains(self._channels(table1_config, 3, [0, 0, 1, 0]))
        rng = np.random.default_rng(4)
        env = Environment(table1_config, gains, np.ones((4, 8)),
                          sample_demands(table1_config, rng, 4),
                          ExactSolverReward(table1_config), rng)
        env.step([0, 1, 2, table1_config.num_rrhs])
        assert len(calls) == 1 and calls[0] is gains

    @staticmethod
    def _rows(config, seed, rows):
        rng = np.random.default_rng(seed)
        return Environment(
            config, TestStepAll._gains(TestStepAll._channels(config, seed, range(rows))),
            np.ones((rows, config.num_rrhs)), sample_demands(config, rng, rows),
            ExactSolverReward(config), rng)

    @staticmethod
    def _state(env):
        return (env.patterns.tobytes(), env.demands.tobytes(), env.slots.tolist(),
                env.rng.bit_generator.state)

    @pytest.mark.parametrize("actions", [[0, 9, 2], [0, -1, 2], [0, 1], [0, 1, 2, 3],
                                         [0.0, 1.0, 2.0]],
                             ids=["over-m", "negative", "too-few", "too-many", "float"])
    def test_bad_action_rejected_before_any_row_moves(self, table1_config, actions):
        env = self._rows(table1_config, 6, 3)
        before = self._state(env)
        with pytest.raises(ValueError, match="action"):
            env.step(actions)
        assert self._state(env) == before

    def test_solver_failure_raised_before_any_env_moves(self, table1_config,
                                                        monkeypatch):
        solve_states = env_module.solve_states

        def failing(*args):
            # The first state solves; each later one fails with its index.
            solved = solve_states(*args)
            solved.verdicts[1:] = [SolverFailure(f"forced {k}")
                                   for k in range(1, len(solved.verdicts))]
            return solved

        monkeypatch.setattr(env_module, "solve_states", failing)
        env = self._rows(table1_config, 4, 3)
        before = self._state(env)
        with pytest.raises(SolverFailure, match="forced 1"):
            env.step([table1_config.num_rrhs] * 3)
        assert self._state(env) == before

    def test_restart_and_keep_rows_in_place(self, table1_config):
        env = self._rows(table1_config, 8, 4)
        env.step([0, 1, 2, 3])
        channel = sample_channel(table1_config, np.random.default_rng(9))
        gains, patterns, demands = env.gains.copy(), env.patterns.copy(), env.demands.copy()
        new_pattern = np.zeros((1, 8), dtype=bool)
        env.restart([2], channel.gains[None], new_pattern, [[1.0, 2.0, 3.0, 4.0]])
        assert np.array_equal(env.gains[2], channel.gains)
        assert np.array_equal(np.delete(env.gains, 2, axis=0), np.delete(gains, 2, axis=0))
        assert env.slots.tolist() == [1, 1, 0, 1]
        assert not env.patterns[2].any() and env.demands[2].tolist() == [1.0, 2.0, 3.0, 4.0]
        env.keep([0, 2])
        assert np.array_equal(env.gains, [gains[0], channel.gains])
        assert env.slots.tolist() == [1, 0]
        assert np.array_equal(env.patterns[0], patterns[0])
        assert np.array_equal(env.demands[0], demands[0])
        assert env.step([8, 8]).feasible.shape == (2,)
