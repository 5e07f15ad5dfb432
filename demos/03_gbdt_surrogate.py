"""Learn the solver: boosted regression trees fit the minimal transmit power
as a function of (on/off pattern, demands), then answer far faster than the
solver itself.

Run:  python3 demos/03_gbdt_surrogate.py
"""

import time
from pathlib import Path

import numpy as np

from cranpower import gbdt, pipeline

TINY = Path(__file__).resolve().parent.parent / "configs" / "tiny.json"
config = pipeline.RunConfig.from_file(TINY)
config.dataset_size = 1500

print("=== Labelling random states with the exact solver ===")
t0 = time.time()
rows = pipeline.gen_dataset(config)
print(f"{len(rows)} rows in {time.time() - t0:.1f}s "
      f"({int(rows.feasible.sum())} feasible)")

regression = rows.regression_view()
split = np.random.default_rng(0).permutation(len(regression))
cut = len(regression) // 5
fit = gbdt.RegressionDataset(regression.features[split[cut:]],
                             regression.targets[split[cut:]])
hold = gbdt.RegressionDataset(regression.features[split[:cut]],
                              regression.targets[split[:cut]])

print("\n=== Boosting ===")
t0 = time.time()
model = gbdt.train(fit, config.gbdt)
scores = gbdt.evaluate(model, hold)
print(f"{len(model.trees)} trees in {time.time() - t0:.2f}s; training MSE "
      f"{model.train_mse[0]:.3e} -> {model.train_mse[-1]:.3e}")
print(f"held-out MSE {scores['mse']:.3e}, R^2 {scores['r2']:.4f}")

print("\nsample predictions (W):")
for i in range(5):
    x = hold.features[i]
    print(f"  truth {hold.targets[i]:.5f}  predicted "
          f"{gbdt.predict(model, x):.5f}")

print("\n=== Speed: surrogate vs solver ===")
from cranpower.env import ExactSolverReward

channel = pipeline.make_channel(config)
solver = ExactSolverReward(config.network, config.solver)
m = config.network.num_rrhs
probes = regression.features[:200]
t0 = time.time()
for row in probes:
    gbdt.predict(model, row)
t_gbdt = (time.time() - t0) / len(probes)
t0 = time.time()
for row in probes:
    solver.transmit_power(channel, row[:m] > 0.5, row[m:])
t_solver = (time.time() - t0) / len(probes)
print(f"surrogate {t_gbdt * 1e6:.0f} us/input vs solver "
      f"{t_solver * 1e6:.0f} us/input -> {t_solver / t_gbdt:.1f}x faster")
