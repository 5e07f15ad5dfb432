"""Walk through the physical model: path loss, channel draws, SINR, the
rate model as the solver uses it (demands to SINR targets), and the
three-part slot power as one environment step charges it.

Run:  python3 demos/01_channel_and_power_model.py
"""

import numpy as np

from cranpower.beamform import sinr_targets
from cranpower.env import Environment, ExactSolverReward
from cranpower.netmodel import (
    ChannelRealization,
    NetworkConfig,
    channel_coefficient,
    compute_sinr,
    path_loss_db,
    sample_channel,
    sample_demands,
    state_and_transition_power,
)

config = NetworkConfig()
print("=== Cell constants (8 RRHs, 4 users) ===")
print(f"bandwidth {config.bandwidth_hz / 1e6:.0f} MHz, noise "
      f"{config.noise_power_w:.3e} W, amplifier efficiency "
      f"{config.amplifier_efficiency:.0%}")
print(f"per-RRH power: active {config.active_power_w} W, sleep "
      f"{config.sleep_power_w} W, mode switch {config.transition_power_w} W, "
      f"transmit cap {config.max_tx_power_w} W")

print("\n=== Path loss, 148.1 + 37.6 log10(d_km) ===")
for d_km in (0.05, 0.1, 0.4, 0.8):
    print(f"  {d_km * 1000:5.0f} m -> {path_loss_db(d_km):7.2f} dB")

print("\n=== One channel draw ===")
rng = np.random.default_rng(7)
channel = sample_channel(config, rng)
mags = np.abs(channel.gains)
print(f"gain matrix {channel.gains.shape}, |h| median {np.median(mags):.3e}, "
      f"max {mags.max():.3e}")
print("Monte-Carlo check at a fixed 250 m distance, shadowing off:")
g = (rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)) / np.sqrt(2)
h = channel_coefficient(np.full(50_000, 250.0), np.zeros(50_000), g, config)
expected = 10 ** (-path_loss_db(0.25) / 10) * config.antenna_gain_linear
print(f"  mean |h|^2 = {np.mean(np.abs(h) ** 2):.4e}  "
      f"(model: {expected:.4e})")

print("\n=== SINR for hand-built weights ===")
noise = config.noise_power_w
toy = ChannelRealization(gains=np.array([[1.0 + 0j, 1.0 + 0j]]))
weights = np.array([[2 * np.sqrt(noise), np.sqrt(noise)]], dtype=complex)
sinr = compute_sinr(weights, toy, 0, noise)
print(f"user 0: signal 4x noise, interference 1x noise -> SINR {sinr:.2f}")

print("\n=== Rate model, from demand to SINR target: margin * (2^(R/B) - 1) ===")
demands = np.array([0.0, 20.0, 30.0, 40.0])
iota, _ = sinr_targets(demands, config)
for d, target in zip(demands, iota):
    print(f"  {d:4.0f} Mbps -> SINR target {target:6.3f}")

print("\n=== Standby and mode-switch terms ===")
on = np.ones(config.num_rrhs, dtype=bool)
off = np.zeros(config.num_rrhs, dtype=bool)
for name, prev, nxt in (("all on, staying on", on, on),
                        ("all asleep, staying asleep", off, off),
                        ("all on, all going to sleep", on, off)):
    state_w, transition_w = state_and_transition_power(prev, nxt, config)
    print(f"  {name:27s} standby {state_w:5.2f} W, transition {transition_w:5.2f} W")

print("\n=== One environment step of three envs at once, exact solver ===")
# One Environment holds K envs as rows, each with its channel gains (here
# three rows of one channel, without a copy), and starts them when it is
# built; one step solves all K next states.
env_rng = np.random.default_rng(0)
env = Environment(config, np.broadcast_to(channel.gains, (3, *channel.gains.shape)),
                  np.tile([1, 1, 1, 1, 1, 1, 0, 0], (3, 1)),
                  sample_demands(config, env_rng, 3), ExactSolverReward(config), env_rng)
print(f"demands of row 0 {np.round(env.demands[0], 1)} Mbps")
actions = [6, config.num_rrhs, 0]
slot = env.step(actions)
for k, action in enumerate(actions):
    what = "no-op" if action == config.num_rrhs else f"flip RRH {action}"
    print(f"row {k} ({what}): feasible {slot.feasible[k]}: transmit "
          f"{slot.transmit_w[k]:.2f} W (solver power / {config.amplifier_efficiency}) "
          f"+ standby {slot.state_w[k]:.2f} W + transition {slot.transition_w[k]:.2f} W "
          f"= {slot.total_w[k]:.2f} W")
print(f"reward of row 0: P_UB - total = {env.p_upper_bound_w:.2f} - "
      f"{slot.total_w[0]:.2f} = {slot.reward[0]:.2f} (an unservable slot earns -P_UB)")
