"""Physical layer of the single-cell C-RAN: the config, channel
realizations, SINR, demands, and the standby and mode-switch terms of a
slot's power (`state_and_transition_power`). Demands and both power terms
come as arrays of many states at once. `env.Environment` adds the transmit
term and sums the three; `beamform.sinr_targets` holds the rate model, from
demands to SINR targets.

All physics runs in linear units (W, dimensionless ratios). dB/dBm inputs
are converted once, at config load time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending key."""

    def __init__(self, key, message):
        self.key, self.message = key, message
        super().__init__(f"config key '{key}': {message}")


def config_value(key, val, kind):
    """A config value read from JSON as `kind`: bool, int, float, dict for a
    section, or tuple for a list of ints.

    Numbers must be finite JSON numbers, not strings or booleans (JSON's
    `Infinity` and `NaN` are refused). An int field takes a float only when
    it is integral, and a float field takes an int.
    """
    if kind is tuple:
        if not isinstance(val, (list, tuple)):
            raise ConfigError(key, f"must be a list, got {val!r}")
        return tuple(config_value(f"{key}[{i}]", v, int) for i, v in enumerate(val))
    if kind in (bool, dict):
        if not isinstance(val, kind):
            raise ConfigError(key, f"must be a {kind.__name__}, got {val!r}")
        return val
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(key, f"must be a number, got {val!r}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(key, f"must be finite, got {val!r}")
    if kind is int:
        if isinstance(val, float) and not val.is_integer():
            raise ConfigError(key, f"must be an integer, got {val!r}")
        return int(val)
    return float(val)


def config_from_dict(cls, raw, section=""):
    """Build the config dataclass `cls` from its JSON mapping `raw`.

    Every key must name a field of `cls`, and its value is read with
    `config_value` as the type of the field's default. A field whose
    default comes from a factory is a section, read the same way into that
    factory's class. `noise_power_dbm` stands for `noise_power_w` in dBm.
    Errors name a key inside a section as `section.key`, and a ValueError
    from the class's own checks becomes a ConfigError on the section.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    prefix = f"{section}." if section else ""
    values = {}
    for key, val in config_value(section or "(top level)", raw, dict).items():
        name = prefix + key
        if key == "noise_power_dbm" and "noise_power_w" in fields:
            if "noise_power_w" in raw:
                raise ConfigError(name, "give noise as dBm or W, not both")
            values["noise_power_w"] = dbm_to_w(config_value(name, val, float))
        elif key not in fields:
            raise ConfigError(name, "unknown key")
        elif fields[key].default_factory is not dataclasses.MISSING:
            values[key] = config_from_dict(fields[key].default_factory, val, name)
        else:
            values[key] = config_value(name, val, type(fields[key].default))
    try:
        return cls(**values)
    except ConfigError as err:
        raise ConfigError(prefix + err.key, err.message) from None
    except ValueError as err:
        raise ConfigError(section, str(err)) from None


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# The most RRHs a cell may have: a random on/off pattern is drawn as the
# bits of one int64 below 2^num_rrhs.
MAX_RRHS = 63


@dataclass(frozen=True)
class NetworkConfig:
    """All physical constants of the cell plus topology sizes and demand ranges.

    Single source of truth: every other module takes its physics from here.
    """

    num_rrhs: int = 8
    num_users: int = 4
    bandwidth_hz: float = 10e6
    max_tx_power_w: float = 1.0
    active_power_w: float = 6.8
    sleep_power_w: float = 4.3
    transition_power_w: float = 2.0
    noise_power_w: float = dbm_to_w(-102.0)
    antenna_gain_db: float = 9.0
    shadowing_std_db: float = 8.0
    amplifier_efficiency: float = 0.25
    sinr_margin: float = 1.0
    demand_min_mbps: float = 20.0
    demand_max_mbps: float = 40.0
    cell_radius_m: float = 800.0

    def __post_init__(self):
        _validate_config(self)

    @property
    def antenna_gain_linear(self) -> float:
        return db_to_linear(self.antenna_gain_db)


def _validate_config(cfg: NetworkConfig):
    positive = [
        "bandwidth_hz", "max_tx_power_w", "active_power_w", "sleep_power_w",
        "transition_power_w", "noise_power_w", "cell_radius_m",
    ]
    for key in positive:
        if not getattr(cfg, key) > 0:
            raise ConfigError(key, "must be strictly positive")
    if cfg.num_rrhs < 1:
        raise ConfigError("num_rrhs", "need at least one RRH")
    if cfg.num_rrhs > MAX_RRHS:
        raise ConfigError("num_rrhs", f"must be <= {MAX_RRHS}")
    if cfg.num_users < 1:
        raise ConfigError("num_users", "need at least one user")
    if not 0 < cfg.amplifier_efficiency <= 1:
        raise ConfigError("amplifier_efficiency", "must be in (0, 1]")
    if cfg.sinr_margin < 1:
        raise ConfigError("sinr_margin", "must be >= 1")
    if cfg.shadowing_std_db < 0:
        raise ConfigError("shadowing_std_db", "must be >= 0")
    if cfg.demand_min_mbps < 0:
        raise ConfigError("demand_min_mbps", "must be >= 0")
    if cfg.demand_min_mbps > cfg.demand_max_mbps:
        raise ConfigError("demand_min_mbps", "must be <= demand_max_mbps")
    # Sleeping must actually save energy, otherwise the control problem is void.
    if not cfg.sleep_power_w < cfg.active_power_w:
        raise ConfigError("sleep_power_w", "must be < active_power_w")


@dataclass(frozen=True)
class ChannelRealization:
    """Complex gains indexed (rrh, user). Positions are not retained."""

    gains: np.ndarray

    def __post_init__(self):
        if self.gains.ndim != 2:
            raise ValueError("channel gains must be a 2-D (rrh, user) matrix")
        if not np.all(np.isfinite(self.gains.view(float))):
            raise ValueError("channel gains must be finite")


def path_loss_db(distance_km: float) -> float:
    """Macro-cell path loss, 148.1 + 37.6*log10(d[km])."""
    if np.any(np.asarray(distance_km) <= 0):
        raise ValueError("distance must be strictly positive")
    return 148.1 + 37.6 * np.log10(distance_km)


def channel_coefficient(distance_m, shadowing_db, small_scale, config: NetworkConfig):
    """Single channel coefficient h = 10^(-L/20) * sqrt(phi * s) * G.

    Vectorized; `distance_m` is clamped at 1 m to keep the path loss finite.
    """
    d_km = np.maximum(np.asarray(distance_m, dtype=float), 1.0) / 1000.0
    loss = path_loss_db(d_km)
    shadow_lin = db_to_linear(np.asarray(shadowing_db, dtype=float))
    amp = 10.0 ** (-loss / 20.0) * np.sqrt(config.antenna_gain_linear * shadow_lin)
    return amp * small_scale


def sample_channel(config: NetworkConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one full channel realization.

    Per (rrh, user) pair: distance uniform on [0, cell_radius_m] (min 1 m),
    log-normal shadowing, circularly-symmetric unit-variance small-scale fading.
    """
    shape = (config.num_rrhs, config.num_users)
    distance_m = rng.uniform(0.0, config.cell_radius_m, size=shape)
    shadowing_db = (
        rng.normal(0.0, config.shadowing_std_db, size=shape)
        if config.shadowing_std_db > 0 else np.zeros(shape)
    )
    small_scale = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    gains = channel_coefficient(distance_m, shadowing_db, small_scale, config)
    return ChannelRealization(gains=gains)


def compute_sinr(weights: np.ndarray, channel: ChannelRealization,
                 user_index: int, noise_w: float) -> float:
    """SINR of one user: |h_i^T w_i|^2 / (sum_{j != i} |h_i^T w_j|^2 + noise)."""
    if weights.shape != channel.gains.shape:
        raise ValueError(
            f"weights shape {weights.shape} != channel shape {channel.gains.shape}")
    if not noise_w > 0:
        raise ValueError("noise power must be strictly positive")
    h = channel.gains[:, user_index]
    received = np.abs(h @ weights) ** 2
    signal = received[user_index]
    interference = float(np.sum(received)) - float(signal)
    return float(signal / (interference + noise_w))


def state_and_transition_power(prev_pattern, next_pattern, config: NetworkConfig):
    """Standby power of `next_pattern` and the mode-switch cost from
    `prev_pattern`, for patterns of one shape (..., m): one figure of each
    per pattern, of the leading shape.

    Shared by the exact and surrogate reward paths so the two modes can only
    ever differ in the transmit term.
    """
    prev = np.asarray(prev_pattern, dtype=bool)
    nxt = np.asarray(next_pattern, dtype=bool)
    if prev.shape != nxt.shape or prev.ndim == 0:
        raise ValueError("patterns must be boolean arrays of one shape (..., m)")
    if prev.shape[-1] != config.num_rrhs:
        raise ValueError(f"pattern length {prev.shape[-1]} != num_rrhs {config.num_rrhs}")
    # The add ufunc counts a row's booleans about 4x faster than count_nonzero.
    n_active = np.add.reduce(nxt, axis=-1)
    state_w = (n_active * config.active_power_w
               + (config.num_rrhs - n_active) * config.sleep_power_w)
    transition_w = np.add.reduce(prev != nxt, axis=-1) * config.transition_power_w
    return state_w, transition_w


def sample_demands(config: NetworkConfig, rng: np.random.Generator,
                   rows: int | None = None) -> np.ndarray:
    """Per-user demands, continuous uniform on [demand_min, demand_max] Mbps:
    (n,), or (rows, n), which is `rows` draws of (n,) in order."""
    shape = config.num_users if rows is None else (rows, config.num_users)
    return rng.uniform(config.demand_min_mbps, config.demand_max_mbps, size=shape)
