"""Smoke check of the benchmark on the 2-RRH/1-user cell of configs/tiny.json.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that each run passes its output checks (a traced run's include the
nesting of its spans) and emits every metric that BENCHMARK.json names,
with its unit. Then it breaks one output of each workload on purpose and
checks that the run is reported as failed, and checks that badly nested
spans are caught. Prints what went wrong and exits 1 if anything did.
"""

import run  # first: pins the BLAS threads and puts the checkout's src on the path

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402

from cranpower import gbdt, pipeline  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = run.ROOT / "configs" / "tiny.json"
SECONDS = 0.2
SEED = 1
# Smaller surrogate sets keep the fits short.
SMALL_SURROGATE = {"regression_rows": 100, "flag_rows": 100, "holdout_rows": 20}
SIZES = {"fit": SMALL_SURROGATE, "online": SMALL_SURROGATE}
# Spans that nest badly, each with what `tracing.span_errors` must say:
# (id, parent, name, start, end).
BAD_SPANS = {
    "outside their parent": [(0, -1, "env.step", 0.0, 1.0),
                             (1, 0, "beamform.solve", 0.5, 1.5)],
    "previous sibling": [(0, -1, "env.step", 0.0, 1.0),
                         (1, 0, "dqn.push", 0.1, 0.6),
                         (2, 0, "dqn.sample", 0.5, 0.9)],
    "more than the traced wall time": [(0, -1, "env.step", 0.0, 3.0)],
}


def _mislabel(rows):
    feasible = np.flatnonzero(rows.feasible)
    if len(feasible):
        rows.tx_power_w[feasible[0]] *= 1 + 1e-6
    return rows


def _nan_loss(result):
    result[1]["dqn"]["final_loss"] = math.nan
    return result


def _drop_tree(model):
    model.trees.pop()
    return model


def _overshoot(report):
    report.instant_w[0] += 1e6
    return report


# Per workload: the library function whose output is spoiled, and how.
SABOTAGE = {
    "label": (pipeline, "gen_dataset", _mislabel),
    "pretrain": (pipeline, "train_offline", _nan_loss),
    "fit": (gbdt, "train", _drop_tree),
    "online": (pipeline, "run_online", _overshoot),
}


@contextmanager
def sabotaged(owner, attr, spoil):
    original = getattr(owner, attr)
    setattr(owner, attr, lambda *args, **kwargs: spoil(original(*args, **kwargs)))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def tiny_workload(name):
    work = workloads.WORKLOADS[name](TINY, SEED)
    for attr, value in SIZES.get(name, {}).items():
        setattr(work, attr, value)
    return work


def problems_of(name, trace, result, wanted):
    """What is wrong with a run that should have passed."""
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{name} trace={trace}: run failed: {result}")
    got = result["metrics"]
    for metric, unit in wanted.items():
        if metric not in got:
            problems.append(f"{name} trace={trace}: {metric} missing")
        elif got[metric]["unit"] != unit:
            problems.append(f"{name} trace={trace}: {metric} in "
                            f"{got[metric]['unit']}, not {unit}")
    return problems


def nesting_problems():
    """Badly nested spans that `tracing.span_errors` lets through."""
    problems = []
    for wanted, spans in BAD_SPANS.items():
        tracer = tracing.Tracer()
        tracer.spans = spans
        errors = tracing.span_errors(tracer, wall_s=2.0)
        if not any(wanted in error for error in errors):
            problems.append(f"spans {spans}: no error about '{wanted}', "
                            f"got {errors}")
    return problems


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for name in (w["name"] for w in bench["workloads"]):
        for trace in (False, True):
            result, _ = run.run(tiny_workload(name), SECONDS, trace)
            problems += problems_of(name, trace, result, wanted[trace])
        with sabotaged(*SABOTAGE[name]):
            result, lines = run.run(tiny_workload(name), SECONDS, False)
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{name}: spoiled output passed its check: {result}")
        else:
            print(f"{name}: spoiled output caught: "
                  f"{next(line for line in lines if line.startswith('check'))}")
    problems += nesting_problems()
    print("\n".join(problems) or "smoke check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
