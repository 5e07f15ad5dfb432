import math

import numpy as np
import pytest

from cranpower.netmodel import (
    ChannelRealization,
    ConfigError,
    NetworkConfig,
    channel_coefficient,
    compute_rate,
    compute_sinr,
    config_from_dict,
    dbm_to_w,
    path_loss_db,
    rrh_power,
    sample_channel,
    sample_demands,
    total_power,
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


class TestRate:
    def test_zero_sinr(self, table1_config):
        assert compute_rate(0.0, table1_config) == 0.0

    def test_twenty_mbps(self, table1_config):
        assert compute_rate(3.0, table1_config) == pytest.approx(20.0, rel=1e-12)

    def test_forty_mbps(self, table1_config):
        assert compute_rate(15.0, table1_config) == pytest.approx(40.0, rel=1e-12)

    def test_strictly_increasing(self, table1_config, rng):
        s = np.sort(rng.uniform(0, 100, 50))
        rates = [compute_rate(x, table1_config) for x in s]
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestPower:
    def test_active_with_tx(self, table1_config):
        assert rrh_power(True, 0.5, table1_config) == pytest.approx(8.8, rel=1e-12)

    def test_sleeping(self, table1_config):
        assert rrh_power(False, 0.0, table1_config) == 4.3

    def test_active_idle(self, table1_config):
        assert rrh_power(True, 0.0, table1_config) == 6.8

    def test_sleeping_with_tx_rejected(self, table1_config):
        with pytest.raises(ValueError):
            rrh_power(False, 0.1, table1_config)

    def test_all_sleeping(self, table1_config):
        off = np.zeros(8, dtype=bool)
        pb = total_power(off, off, np.zeros(8), table1_config)
        assert pb.total_w == pytest.approx(34.4, rel=1e-12)
        assert pb.transition_w == 0.0

    def test_all_active(self, table1_config):
        on = np.ones(8, dtype=bool)
        pb = total_power(on, on, np.zeros(8), table1_config)
        assert pb.total_w == pytest.approx(54.4, rel=1e-12)

    def test_breakdown_example(self):
        cfg = NetworkConfig(num_rrhs=2, num_users=1)
        prev = np.array([True, False])
        nxt = np.array([True, True])
        pb = total_power(prev, nxt, np.array([0.25, 0.0]), cfg)
        assert pb.transmit_w == pytest.approx(1.0, rel=1e-12)
        assert pb.state_w == pytest.approx(13.6, rel=1e-12)
        assert pb.transition_w == pytest.approx(2.0, rel=1e-12)
        assert pb.total_w == pytest.approx(16.6, rel=1e-12)

    def test_total_is_exact_sum(self, table1_config, rng):
        for _ in range(200):
            prev = rng.random(8) < 0.5
            nxt = rng.random(8) < 0.5
            tx = np.where(nxt, rng.uniform(0, 1, 8), 0.0)
            pb = total_power(prev, nxt, tx, table1_config)
            assert pb.total_w == pb.transmit_w + pb.state_w + pb.transition_w

    def test_no_change_no_transition(self, table1_config, rng):
        pat = rng.random(8) < 0.5
        tx = np.where(pat, rng.uniform(0, 1, 8), 0.0)
        assert total_power(pat, pat, tx, table1_config).transition_w == 0.0

    def test_length_mismatch(self, table1_config):
        with pytest.raises(ValueError):
            total_power(np.ones(7, dtype=bool), np.ones(8, dtype=bool),
                        np.zeros(8), table1_config)

    def test_sleeping_tx_rejected(self, table1_config):
        nxt = np.zeros(8, dtype=bool)
        tx = np.zeros(8)
        tx[3] = 0.2
        with pytest.raises(ValueError):
            total_power(nxt, nxt, tx, table1_config)


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

    def test_same_seed(self, table1_config):
        a = sample_demands(table1_config, np.random.default_rng(3))
        b = sample_demands(table1_config, np.random.default_rng(3))
        assert np.array_equal(a, b)
