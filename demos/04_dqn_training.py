"""Train the Q-network on the RRH on/off control problem and watch the
greedy policy act.

Run:  python3 demos/04_dqn_training.py
"""

from pathlib import Path

import numpy as np

from cranpower import pipeline
from cranpower.dqn import select_action
from cranpower.env import Environment, ExactSolverReward, encode_states
from cranpower.netmodel import sample_demands

TINY = Path(__file__).resolve().parent.parent / "configs" / "tiny.json"
config = pipeline.RunConfig.from_file(TINY)
config.offline_episodes = 150

print("=== Offline pre-training (exact-solver rewards) ===")
artifacts, summary = pipeline.train_offline(config)
dqn_stats = summary["dqn"]
print(f"{dqn_stats['episodes']} episodes, {dqn_stats['steps']} environment "
      f"steps, final epsilon {dqn_stats['final_epsilon']:.3f}")
print(f"final training loss {dqn_stats['final_loss']:.1f}, last episode "
      f"return {dqn_stats['final_episode_return']:.1f}")
print(f"replay memory holds {dqn_stats['buffer_occupancy']} transitions")

print("\n=== Greedy rollout ===")
network = config.network
channel = pipeline.make_channel(config)
source = ExactSolverReward(network, config.solver)
env_rng = np.random.default_rng(99)


def start_env():
    """A one-row env from all-on, with fresh demands from the demo's stream."""
    return Environment(network, channel.gains[None], np.ones((1, network.num_rrhs)),
                       sample_demands(network, env_rng, 1), source, env_rng)


env = start_env()
net = artifacts.qnet
print(f"{'slot':>4}  {'pattern':>8}  {'action':>6}  {'power W':>8}  {'reward':>7}")
for slot in range(12):
    features = encode_states(env.patterns, env.demands, network.demand_max_mbps)[0]
    action = select_action(net, features, 0.0, np.random.default_rng(0))
    result = env.step([action])
    label = "no-op" if action == network.num_rrhs else f"flip {action}"
    pattern = "".join("1" if b else "0" for b in env.patterns[0])
    print(f"{slot:>4}  {pattern:>8}  {label:>6}  {result.total_w[0]:8.2f}  "
          f"{result.reward[0]:7.2f}")
    if result.terminal[0]:
        env = start_env()
        print("      (episode ended, reset)")

q = net.forward(encode_states(env.patterns, env.demands, network.demand_max_mbps)[0])
print("\nQ-values at the final state:", np.round(q, 1))
print("(one entry per action: flip RRH 0..m-1, or do nothing)")
