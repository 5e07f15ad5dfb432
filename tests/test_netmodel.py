import math

import numpy as np
import pytest

from cranpower.beamform import BeamformingProblem, sinr_targets, solve_beamforming
from cranpower.env import Environment, Slot
from cranpower.netmodel import (
    ChannelRealization,
    ConfigError,
    NetworkConfig,
    channel_coefficient,
    compute_sinr,
    config_from_dict,
    dbm_to_w,
    path_loss_db,
    sample_channel,
    sample_demands,
    state_and_transition_power,
)


class TestPathLoss:
    def test_one_km(self):
        assert path_loss_db(1.0) == pytest.approx(148.1, abs=1e-12)

    def test_point_one_km(self):
        assert path_loss_db(0.1) == pytest.approx(110.5, abs=1e-9)

    def test_point_eight_km(self):
        expected = 148.1 + 37.6 * math.log10(0.8)
        assert expected == pytest.approx(144.456, abs=5e-4)
        assert path_loss_db(0.8) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0)
        with pytest.raises(ValueError):
            path_loss_db(-0.3)


class TestConfig:
    def test_noise_dbm_conversion(self):
        cfg = config_from_dict(NetworkConfig, {"noise_power_dbm": -102.0})
        assert cfg.noise_power_w == pytest.approx(10 ** -13.2, rel=1e-12)
        assert cfg.noise_power_w == pytest.approx(6.31e-14, rel=1e-3)

    def test_noise_given_both_ways_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(NetworkConfig, {"noise_power_dbm": -102.0, "noise_power_w": 1e-13})

    def test_unknown_key_reported(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(NetworkConfig, {"bandwith_hz": 1e7})
        assert "bandwith_hz" in str(err.value)

    def test_sleep_power_must_undercut_active(self):
        with pytest.raises(ConfigError) as err:
            NetworkConfig(sleep_power_w=7.0, active_power_w=6.8)
        assert err.value.key == "sleep_power_w"

    def test_demand_ordering_enforced(self):
        with pytest.raises(ConfigError) as err:
            NetworkConfig(demand_min_mbps=50.0, demand_max_mbps=40.0)
        assert err.value.key == "demand_min_mbps"

    def test_efficiency_range(self):
        with pytest.raises(ConfigError):
            NetworkConfig(amplifier_efficiency=0.0)
        with pytest.raises(ConfigError):
            NetworkConfig(amplifier_efficiency=1.2)


class TestChannel:
    def test_known_coefficient(self, table1_config):
        # d = 0.1 km, shadowing off, unit small-scale fading, 9 dBi gain.
        h = channel_coefficient(100.0, 0.0, 1.0, table1_config)
        expected = 10 ** (-110.5 / 20.0) * 10 ** (9.0 / 40.0 * 2)
        assert h == pytest.approx(expected, rel=1e-12)
        assert h == pytest.approx(8.41e-6, rel=1e-3)

    def test_same_seed_bitwise_identical(self, table1_config):
        a = sample_channel(table1_config, np.random.default_rng(7))
        b = sample_channel(table1_config, np.random.default_rng(7))
        assert np.array_equal(a.gains, b.gains)

    def test_different_seed_differs(self, table1_config):
        a = sample_channel(table1_config, np.random.default_rng(7))
        b = sample_channel(table1_config, np.random.default_rng(8))
        assert not np.array_equal(a.gains, b.gains)

    def test_mean_square_gain_matches_model(self, table1_config):
        # E|h|^2 = 10^(-L/10) * phi at fixed distance with shadowing off.
        rng = np.random.default_rng(42)
        n = 100_000
        g = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        h = channel_coefficient(np.full(n, 250.0), np.zeros(n), g, table1_config)
        expected = 10 ** (-path_loss_db(0.25) / 10.0) * table1_config.antenna_gain_linear
        assert np.mean(np.abs(h) ** 2) == pytest.approx(expected, rel=0.02)

    def test_distance_clamped_at_one_meter(self, table1_config):
        h_zero = channel_coefficient(0.0, 0.0, 1.0, table1_config)
        h_one = channel_coefficient(1.0, 0.0, 1.0, table1_config)
        assert h_zero == h_one
        assert np.isfinite(h_zero)

    def test_dimensions(self, table1_config):
        ch = sample_channel(table1_config, np.random.default_rng(0))
        assert ch.gains.shape == (8, 4)
        with pytest.raises(ValueError):
            ChannelRealization(gains=np.ones(3, dtype=complex))


class TestSinr:
    def test_single_user_unit_ratio(self, table1_config):
        noise = table1_config.noise_power_w
        h = np.array([[1.0 + 0j]])
        w = np.array([[math.sqrt(noise)]], dtype=complex)
        ch = ChannelRealization(gains=h)
        assert compute_sinr(w, ch, 0, noise) == pytest.approx(1.0, rel=1e-12)

    def test_zero_weights(self, table1_config):
        ch = ChannelRealization(gains=np.ones((2, 2), dtype=complex))
        w = np.zeros((2, 2), dtype=complex)
        assert compute_sinr(w, ch, 0, table1_config.noise_power_w) == 0.0

    def test_two_user_ratio(self):
        # |h1.w1|^2 = 4*sigma^2 and |h1.w2|^2 = sigma^2 gives SINR 2.
        noise = 1e-13
        ch = ChannelRealization(gains=np.array([[1.0 + 0j, 1.0 + 0j]]))
        w = np.array([[2 * math.sqrt(noise), math.sqrt(noise)]], dtype=complex)
        assert compute_sinr(w, ch, 0, noise) == pytest.approx(2.0, rel=1e-12)

    def test_scaling_weights_increases_sinr(self, rng):
        ch = ChannelRealization(
            gains=rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        w = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        noise = 1e-3
        base = compute_sinr(w, ch, 0, noise)
        scaled = compute_sinr(2.0 * w, ch, 0, noise)
        assert scaled > base

    def test_shape_mismatch(self):
        ch = ChannelRealization(gains=np.ones((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            compute_sinr(np.ones((3, 2), dtype=complex), ch, 0, 1.0)


def delivered_sinr(config, demands_mbps):
    """The SINR each user receives when every RRH of `config` serves
    `demands_mbps` through `sinr_targets` and the beamforming solver."""
    ch = sample_channel(config, np.random.default_rng(0))
    iota, _ = sinr_targets(demands_mbps, config)
    problem = BeamformingProblem.from_state(
        ch, np.ones(config.num_rrhs, dtype=bool), iota, config)
    sol = solve_beamforming(problem)
    assert sol.feasible
    return [compute_sinr(sol.weights, ch, i, config.noise_power_w)
            for i in range(config.num_users)]


class TestRate:
    """The rate model R = B log2(1 + SINR) as runs apply it: the SINR a
    served demand receives."""

    DEMANDS = [20.0, 40.0, 0.0, 20.0]

    def test_zero_sinr(self, table1_config):
        assert delivered_sinr(table1_config, self.DEMANDS)[2] == 0.0

    def test_twenty_mbps(self, table1_config):
        sinr = delivered_sinr(table1_config, self.DEMANDS)
        assert sinr[0] == pytest.approx(3.0, rel=1e-6)
        assert sinr[3] == pytest.approx(3.0, rel=1e-6)

    def test_forty_mbps(self, table1_config):
        assert delivered_sinr(table1_config, self.DEMANDS)[1] == pytest.approx(15.0, rel=1e-6)


def step_power(config, source, prev, action):
    """What one Environment step by `action` from the pattern `prev`
    charged, with the transmit power `source` answers: its Slot, each field
    the one row's."""
    rng = np.random.default_rng(0)
    env = Environment(config, sample_channel(config, np.random.default_rng(0)).gains[None],
                      [prev], sample_demands(config, rng, 1), source, rng)
    return Slot._make(field[0] for field in env.step([action]))


class TestPower:
    """A slot's power as runs charge it: the standby and mode-switch terms
    of `state_and_transition_power`, and one Environment step for the
    transmit term and the total."""

    def test_active_with_tx(self, fixed_answer):
        cfg = NetworkConfig(num_rrhs=1, num_users=1)
        fixed_answer.answer = (0.5, True)
        pb = step_power(cfg, fixed_answer, [True], 1)
        assert pb.total_w == pytest.approx(8.8, rel=1e-12)

    def test_sleeping(self):
        cfg = NetworkConfig(num_rrhs=1, num_users=1)
        assert state_and_transition_power([False], [False], cfg) == (4.3, 0.0)

    def test_active_idle(self):
        cfg = NetworkConfig(num_rrhs=1, num_users=1)
        assert state_and_transition_power([True], [True], cfg) == (6.8, 0.0)

    def test_all_sleeping(self, table1_config):
        off = np.zeros(8, dtype=bool)
        state_w, transition_w = state_and_transition_power(off, off, table1_config)
        assert state_w == pytest.approx(34.4, rel=1e-12)
        assert transition_w == 0.0

    def test_all_active(self, table1_config):
        on = np.ones(8, dtype=bool)
        state_w, _ = state_and_transition_power(on, on, table1_config)
        assert state_w == pytest.approx(54.4, rel=1e-12)

    def test_breakdown_example(self, fixed_answer):
        # RRH 1 wakes up; the solver's 0.25 W costs 1 W through the amplifier.
        cfg = NetworkConfig(num_rrhs=2, num_users=1)
        fixed_answer.answer = (0.25, True)
        pb = step_power(cfg, fixed_answer, [True, False], 1)
        assert pb.transmit_w == pytest.approx(1.0, rel=1e-12)
        assert pb.state_w == pytest.approx(13.6, rel=1e-12)
        assert pb.transition_w == pytest.approx(2.0, rel=1e-12)
        assert pb.total_w == pytest.approx(16.6, rel=1e-12)

    def test_total_is_exact_sum(self, table1_config, fixed_answer, rng):
        for _ in range(200):
            fixed_answer.answer = (float(rng.uniform(0, 8)), bool(rng.random() < 0.8))
            pb = step_power(table1_config, fixed_answer, rng.random(8) < 0.5,
                            int(rng.integers(9)))
            assert pb.total_w == pb.transmit_w + pb.state_w + pb.transition_w

    def test_no_change_no_transition(self, table1_config, rng):
        pat = rng.random(8) < 0.5
        assert state_and_transition_power(pat, pat, table1_config)[1] == 0.0

    def test_rows_equal_one_pattern_each(self, table1_config, rng):
        # Patterns (..., m) give one figure of each term per pattern, equal
        # bit for bit to the pattern's own.
        prev, nxt = rng.random((2, 3, 5, 8)) < 0.5
        state_w, transition_w = state_and_transition_power(prev, nxt, table1_config)
        assert state_w.shape == transition_w.shape == (3, 5)
        for index in np.ndindex(3, 5):
            assert (state_w[index], transition_w[index]) == state_and_transition_power(
                prev[index], nxt[index], table1_config)

    def test_length_mismatch(self, table1_config):
        with pytest.raises(ValueError):
            state_and_transition_power(np.ones(7, dtype=bool), np.ones(8, dtype=bool),
                                       table1_config)
        with pytest.raises(ValueError, match="num_rrhs"):
            state_and_transition_power(np.ones(7, dtype=bool), np.ones(7, dtype=bool),
                                       table1_config)


class TestDemands:
    def test_degenerate_range(self):
        cfg = NetworkConfig(demand_min_mbps=20.0, demand_max_mbps=20.0)
        d = sample_demands(cfg, np.random.default_rng(0))
        assert np.all(d == 20.0)

    def test_mean(self, table1_config):
        rng = np.random.default_rng(5)
        draws = np.concatenate(
            [sample_demands(table1_config, rng) for _ in range(25_000)])
        assert draws.mean() == pytest.approx(30.0, abs=0.2)

    def test_rows_are_draws_in_order(self, table1_config):
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        rows = sample_demands(table1_config, rng, 5)
        assert rows.shape == (5, 4)
        for row in rows:
            assert row.tobytes() == sample_demands(table1_config, twin).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_same_seed(self, table1_config):
        a = sample_demands(table1_config, np.random.default_rng(3))
        b = sample_demands(table1_config, np.random.default_rng(3))
        assert np.array_equal(a, b)
