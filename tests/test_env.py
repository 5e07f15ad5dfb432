import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranpower import env as env_module
from cranpower.beamform import SolverFailure
from cranpower.env import (
    Environment,
    ExactSolverReward,
    SurrogateReward,
    apply_action,
    encode_state,
    p_upper_bound,
    step_all,
)
from cranpower.gbdt import GbdtModel, GbdtParams
from cranpower.netmodel import NetworkConfig, sample_channel


def constant_model(value, num_features):
    return GbdtModel(initial_prediction=float(value), trees=[],
                     params=GbdtParams(num_rounds=1), num_features=num_features)


def make_env(config, reward_source=None, seed=0, **kwargs):
    channel = sample_channel(config, np.random.default_rng(seed))
    if reward_source is None:
        reward_source = ExactSolverReward(config)
    elif callable(reward_source):
        reward_source = reward_source(channel)
    return Environment(config, channel, reward_source,
                       np.random.default_rng(seed + 1), **kwargs)


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
        env = make_env(cfg)
        env.reset(np.zeros(8, dtype=bool))
        result = env.step(8)  # no-op
        assert result.power.total_w == pytest.approx(34.4, rel=1e-12)
        assert result.reward == pytest.approx(102.4 - 34.4, rel=1e-12)
        assert result.feasible and not result.terminal

    def test_flip_costs_exactly_the_transition_power(self):
        # Same landing pattern, reached by a flip vs already being there:
        # the rewards differ by exactly the transition power.
        cfg = zero_demand_config()
        env_a = make_env(cfg, seed=3)
        env_b = make_env(cfg, seed=3)
        target = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
        env_a.reset(target)
        ra = env_a.step(8).reward            # no-op, already at target
        before = target.copy()
        before[2] = False
        env_b.reset(before)
        rb = env_b.step(2).reward            # flip RRH 2 to reach target
        assert ra - rb == pytest.approx(2.0, rel=1e-12)

    def test_unservable_demand_is_penalized_terminal(self):
        cfg = NetworkConfig(num_rrhs=2, num_users=2,
                            demand_min_mbps=20.0, demand_max_mbps=20.0)
        env = make_env(cfg, seed=5)
        # One active single-antenna RRH cannot serve two users at iota = 3.
        env.reset(np.array([True, False]))
        result = env.step(2)
        assert not result.feasible
        assert result.terminal
        assert result.reward == -env.p_upper_bound_w

    def test_all_off_with_demand_infeasible(self):
        cfg = NetworkConfig(num_rrhs=2, num_users=1)
        env = make_env(cfg, seed=6)
        env.reset(np.array([True, False]))
        result = env.step(0)  # switches the last active RRH off
        assert not result.feasible
        assert result.reward == -env.p_upper_bound_w

    def test_noop_never_pays_transition(self, table1_config):
        env = make_env(table1_config, seed=7)
        env.reset()
        for _ in range(5):
            result = env.step(table1_config.num_rrhs)
            assert result.power.transition_w == 0.0

    def test_reward_bounds_when_feasible(self, table1_config):
        env = make_env(table1_config, seed=8)
        env.reset()
        rng = np.random.default_rng(9)
        ub = env.p_upper_bound_w
        floor = ub - table1_config.num_rrhs * table1_config.active_power_w
        for _ in range(30):
            result = env.step(int(rng.integers(0, 9)))
            if result.feasible:
                assert -ub < result.reward <= ub - 8 * min(4.3, 6.8)
            else:
                env.reset()

    def test_same_seed_reproducible(self, table1_config):
        def trajectory(seed):
            env = make_env(table1_config, seed=seed)
            env.reset()
            rng = np.random.default_rng(99)
            out = []
            for _ in range(10):
                r = env.step(int(rng.integers(0, 9)))
                out.append((r.reward, r.power.total_w, r.feasible))
                if r.terminal:
                    env.reset()
            return out

        assert trajectory(11) == trajectory(11)


class TestReset:
    def test_default_all_on(self, table1_config):
        env = make_env(table1_config, seed=12)
        state = env.reset()
        assert np.all(state.rrh_active)
        assert state.demands_mbps.shape == (4,)

    def test_same_seed_same_reset(self, table1_config):
        a = make_env(table1_config, seed=13).reset()
        b = make_env(table1_config, seed=13).reset()
        assert np.array_equal(a.demands_mbps, b.demands_mbps)

    def test_reset_clears_slot_counter(self, table1_config):
        env = make_env(table1_config, seed=14, episode_length=2)
        env.reset()
        env.step(8)
        result = env.step(8)
        assert result.terminal          # hit the episode length
        env.reset()
        assert env.slot_counter == 0
        assert not env.step(8).terminal


class TestSurrogateMode:
    def test_shares_standby_and_transition_accounting(self, table1_config):
        # Constant surrogate: the two modes must agree on everything except
        # the transmit term.
        m, n = table1_config.num_rrhs, table1_config.num_users
        surrogate = SurrogateReward(constant_model(0.123, m + n),
                                    constant_model(1.0, m + n))
        exact = make_env(table1_config, seed=20)
        surro = make_env(table1_config,
                         reward_source=lambda ch: surrogate, seed=20)
        exact.reset()
        surro.reset()
        rng = np.random.default_rng(21)
        for _ in range(8):
            action = int(rng.integers(0, m + 1))
            re = exact.step(action)
            rs = surro.step(action)
            assert rs.power.state_w == re.power.state_w
            assert rs.power.transition_w == re.power.transition_w
            if re.feasible:
                assert rs.power.transmit_w == pytest.approx(
                    0.123 / table1_config.amplifier_efficiency, rel=1e-12)
            else:
                exact.reset()
                surro.reset()

    def test_feasibility_gate_fires_below_threshold(self, table1_config):
        m, n = table1_config.num_rrhs, table1_config.num_users
        surrogate = SurrogateReward(constant_model(0.1, m + n),
                                    constant_model(0.2, m + n))
        env = make_env(table1_config, reward_source=lambda ch: surrogate, seed=22)
        env.reset()
        result = env.step(m)
        assert not result.feasible
        assert result.terminal
        assert result.reward == -env.p_upper_bound_w

    def test_negative_prediction_clamped(self, table1_config):
        m, n = table1_config.num_rrhs, table1_config.num_users
        surrogate = SurrogateReward(constant_model(-4.0, m + n),
                                    constant_model(1.0, m + n))
        env = make_env(table1_config, reward_source=lambda ch: surrogate, seed=23)
        env.reset()
        result = env.step(m)
        assert result.power.transmit_w == 0.0


class TestEncodeState:
    def test_scaling(self, table1_config):
        env = make_env(table1_config, seed=30)
        state = env.reset()
        feats = encode_state(state, table1_config)
        assert feats.shape == (12,)
        assert np.all(feats[:8] == 1.0)
        assert np.all((feats[8:] >= 0.5) & (feats[8:] <= 1.0))  # demands 20-40 over 40


def _same_result(a, b):
    assert a.reward == b.reward and a.feasible == b.feasible
    assert a.terminal == b.terminal and a.power == b.power
    assert a.next_state.rrh_active.tobytes() == b.next_state.rrh_active.tobytes()
    assert a.next_state.demands_mbps.tobytes() == b.next_state.demands_mbps.tobytes()


def reference_step(env, action):
    """The single-env step before it went through `step_all`: the flip, the
    reward source's answer for the env's own channel, then `_finish`."""
    if env.current is None:
        raise RuntimeError("environment must be reset before stepping")
    pattern = apply_action(env.current.rrh_active, action)
    return env._finish(pattern, env.reward_source.transmit_power(
        env.channel, pattern, env.current.demands_mbps))


class TestStepAll:
    @staticmethod
    def _envs(config, seed, owners, episode_length, source=None):
        """One env per entry of `owners`, all sharing one reward source;
        envs with the same owner share a channel. Each env has its own
        demand stream."""
        source = ExactSolverReward(config) if source is None else source
        channels = {owner: sample_channel(config, np.random.default_rng([seed, owner]))
                    for owner in set(owners)}
        return [Environment(config, channels[owner], source,
                            np.random.default_rng([seed, 100 + k]),
                            episode_length=episode_length)
                for k, owner in enumerate(owners)]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 4), n=st.integers(1, 3),
           demand_max=st.sampled_from([5.0, 40.0, 200.0]),
           owners=st.lists(st.integers(0, 2), min_size=1, max_size=6),
           ticks=st.integers(1, 6), episode_length=st.sampled_from([None, 2]),
           seed=st.integers(0, 2 ** 16))
    def test_equals_stepping_each_env_alone(self, m, n, demand_max, owners, ticks,
                                            episode_length, seed):
        config = NetworkConfig(num_rrhs=m, num_users=n, demand_min_mbps=0.0,
                               demand_max_mbps=demand_max)
        together = self._envs(config, seed, owners, episode_length)
        alone = self._envs(config, seed, owners, episode_length)
        pick = np.random.default_rng(seed)
        for env_a, env_b in zip(together, alone):
            pattern = pick.random(m) < 0.5
            env_a.reset(pattern)
            env_b.reset(pattern)
        for _ in range(ticks):
            actions = [int(a) for a in pick.integers(0, m + 1, size=len(owners))]
            results = step_all(together, actions)
            for env_a, env_b, action, result in zip(together, alone, actions, results):
                _same_result(result, reference_step(env_b, action))
                assert env_a.slot_counter == env_b.slot_counter
                if result.terminal:
                    env_a.reset()
                    env_b.reset()

    def test_step_is_the_reference_step(self, table1_config):
        m, n = table1_config.num_rrhs, table1_config.num_users
        surrogate = SurrogateReward(constant_model(0.5, m + n),
                                    constant_model(1.0, m + n))
        for source in (None, surrogate):
            env_a, env_b = (self._envs(table1_config, 5, [0], 3, source)[0]
                            for _ in range(2))
            env_a.reset()
            env_b.reset()
            for action in [0, m, 3, 3, 1, m, 7]:
                result = env_a.step(action)
                _same_result(result, reference_step(env_b, action))
                if result.terminal:
                    env_a.reset()
                    env_b.reset()

    def test_one_batch_per_shared_source(self, table1_config, monkeypatch):
        calls = []
        original = ExactSolverReward.transmit_powers

        def counting(source, channels, patterns, demands):
            calls.append(len(patterns))
            return original(source, channels, patterns, demands)

        monkeypatch.setattr(ExactSolverReward, "transmit_powers", counting)
        envs = self._envs(table1_config, 3, [0, 0, 1, 0], None)
        for env in envs:
            env.reset()
        step_all(envs, [0, 1, 2, table1_config.num_rrhs])
        assert calls == [4]

    @staticmethod
    def _assert_unmoved(envs, before):
        for env, state in zip(envs, before):
            if state is None:
                assert env.current is None
                continue
            assert env.slot_counter == 0
            assert np.array_equal(env.current.rrh_active, state.rrh_active)
            assert np.array_equal(env.current.demands_mbps, state.demands_mbps)

    def test_mixed_sources_rejected_before_any_env_moves(self, table1_config):
        envs = self._envs(table1_config, 6, [0, 1], None)
        envs.append(self._envs(table1_config, 6, [0], None)[0])
        before = [env.reset() for env in envs]
        with pytest.raises(ValueError, match="one reward source"):
            step_all(envs, [0, 1, 2])
        self._assert_unmoved(envs, before)

    def test_unreset_env_rejected_before_any_env_moves(self, table1_config):
        envs = self._envs(table1_config, 7, [0, 1, 0], None)
        before = [envs[0].reset(), None, envs[2].reset()]
        with pytest.raises(RuntimeError, match="reset"):
            step_all(envs, [0, 1, 2])
        self._assert_unmoved(envs, before)

    def test_solver_failure_raised_before_any_env_moves(self, table1_config,
                                                        monkeypatch):
        solve_states = env_module.solve_states

        def failing(*args):
            solved = solve_states(*args)
            solved.verdicts = [SolverFailure("forced")] * len(solved.verdicts)
            return solved

        monkeypatch.setattr(env_module, "solve_states", failing)
        envs = self._envs(table1_config, 4, [0, 1], None)
        before = [env.reset() for env in envs]
        with pytest.raises(SolverFailure):
            step_all(envs, [table1_config.num_rrhs] * 2)
        self._assert_unmoved(envs, before)
