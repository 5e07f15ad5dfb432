"""End to end on a small cell: label data, train the surrogate and the
policy, then compare the policy against the all-on and one-closed baselines
and check the surrogate's error tolerance.

Run:  python3 demos/05_full_pipeline.py
"""

import time
from pathlib import Path

from cranpower import pipeline

TINY = Path(__file__).resolve().parent.parent / "configs" / "tiny.json"
config = pipeline.RunConfig.from_file(TINY)
config.offline_episodes = 150
slots = 300

print("=== Offline stage ===")
t0 = time.time()
artifacts, summary = pipeline.train_offline(config)
print(f"dataset {summary['dataset_rows']} rows "
      f"({summary['dataset_feasible_rows']} feasible); "
      f"surrogate held-out R^2 {summary['gbdt']['holdout_r2']:.4f}; "
      f"feasibility-flag accuracy "
      f"{summary['feasibility_model']['holdout_accuracy']:.3f}")
print(f"DQN: {summary['dqn']['steps']} steps in "
      f"{summary['timing']['dqn_train_s']:.1f}s")
print(f"offline stage total {time.time() - t0:.1f}s")

print(f"\n=== Online stage: {slots} slots per scheme ===")
reports = {}
reports["DQN-GBDT"] = pipeline.run_online(config, artifacts, slots,
                                          scheme="DQN-GBDT")
reports["DQN-SOCP"] = pipeline.run_online(config, artifacts, slots,
                                          scheme="DQN-SOCP")
reports["AO"] = pipeline.run_baseline(config, "AO", slots)
reports["OC"] = pipeline.run_baseline(config, "OC", slots)

print(f"{'scheme':>9}  {'avg power W':>11}  {'infeasible':>10}")
for name, report in reports.items():
    print(f"{name:>9}  {report.average_power_w:11.3f}  "
          f"{report.infeasible_count:>10}")

ao = reports["AO"].average_power_w
dqn = reports["DQN-GBDT"].average_power_w
print(f"\npolicy saves {ao - dqn:.3f} W per slot against all-on")

print("\n=== Error tolerance of the surrogate-reward policy ===")
ete = pipeline.ete_compare(config, artifacts, slots)
print(f"average-power gap {ete.average_gap_rel * 100:.3f}% "
      f"(surrogate vs exact rewards), action agreement "
      f"{ete.action_agreement * 100:.1f}%")

print("\n=== Surrogate vs solver timing ===")
bench = pipeline.bench_timing(config, artifacts, inputs=300, repeats=2)
print(f"{bench['gbdt_s_per_input'] * 1e6:.0f} us vs "
      f"{bench['socp_s_per_input'] * 1e6:.0f} us per input "
      f"-> {bench['speedup']:.1f}x")
