"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload label --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
run with `--trace 1`. The lines before it repeat the metrics for a reader,
together with the machine record and the workload's own figures.
"""

import os
import sys
from pathlib import Path

# OpenBLAS and OpenMP read their thread counts when numpy loads its BLAS, so
# the pin has to be in the environment before anything imports numpy.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
SPANS_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(SOURCE))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

# Each run times this many set-ups; setup_s is their median plus the time of
# the workload's one-off preparation, if it has one.
SETUPS = 3
# A traced run traces this many passes, however fast they run, so that its
# per-layer totals are comparable from run to run.
TRACED_PASSES = 3
# Times are reported as if `reference_s()` took this long; see `timed`.
NOMINAL_REFERENCE_S = 0.020


def machine_record(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "seed": seed,
    }


def reference_s() -> float:
    """Wall time of a fixed loop of the kind of work the workloads do: small
    complex linear solves in numpy, then plain Python arithmetic on ints and
    a dict. It never changes with the program under test."""
    rng = np.random.default_rng(0)
    g = (rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))) * 0.3
    eye = np.eye(6)
    start = time.perf_counter()
    for _ in range(600):
        solved = np.linalg.solve(1e-3 * eye + (g * 0.5) @ g.conj().T, g)
        np.real(np.sum(np.conj(g) * solved, axis=0))
    total, table = 0, {}
    for i in range(60_000):
        total += i * 3 % 7
        table[i & 255] = total
    return time.perf_counter() - start


def timed(fn):
    """(fn(), wall seconds, wall seconds scaled to the nominal machine).

    The machine this benchmark was written on runs the same code up to twice
    as fast at one moment as a minute later, because other tenants share its
    cores. The reference loop slows by the same factor, so the reference
    time measured just before and after `fn` rescales its wall time to a
    machine that runs the reference in NOMINAL_REFERENCE_S."""
    before = reference_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    speed = NOMINAL_REFERENCE_S / ((before + reference_s()) / 2)
    return result, wall, wall * speed


def measure(work, done, seconds=None, passes=None):
    """Run passes of `work` for `seconds` (and at least `work.min_passes`),
    or exactly `passes` of them. Appends (ops, failed, wall_s, scaled_s)
    per pass to `done`, so a run that aborts keeps what it finished."""
    deadline = None if seconds is None else time.perf_counter() + seconds

    def more():
        if passes is not None:
            return len(done) < passes
        return len(done) < work.min_passes or time.perf_counter() < deadline

    while more():
        (ops, failed), wall, scaled = timed(work.run_pass)
        done.append((ops, failed, wall, scaled))


def run(work, seconds: float, trace: bool):
    """Set up, measure and check one workload.

    Returns (result, lines): `result` is the JSON object of the last output
    line, `lines` the readable report printed before it.
    """
    from cranpower.beamform import SolverFailure

    import tracing

    plain, passes, setups, prepared, errors = [], [], [], [], []
    tracer = tracing.Tracer()
    try:
        if work.prepare is not None:
            prepared.append(timed(work.prepare)[1:])
        for _ in range(1 if trace else SETUPS):
            setups.append(timed(work.setup)[1:])
        if trace:
            measure(work, plain, seconds=seconds / 2)
            traced_start = time.perf_counter()
            with tracing.patched(tracer):
                measure(work, passes, passes=TRACED_PASSES)
            errors = tracing.span_errors(tracer, sum(p[2] for p in passes))
        else:
            measure(work, passes, seconds=seconds)
        errors += work.check()
    except (SolverFailure, FloatingPointError) as err:
        errors = [f"run aborted: {type(err).__name__}: {err}"]

    attempted = max(1, sum(p[0] for p in passes))
    failed = attempted if errors else sum(p[1] for p in passes)
    machine = machine_record(work.name, work.seed)
    lines = [f"perfbench {work.name} seed={work.seed} seconds={seconds:g} "
             f"trace={int(trace)}",
             "machine " + json.dumps(machine),
             f"{len(passes)} passes of {passes[0][0] if passes else 0} {work.op}; "
             f"wall s {[round(p[2], 4) for p in passes]}; "
             f"scaled s {[round(p[3], 4) for p in passes]}; "
             f"set-up wall s {[round(s[0], 4) for s in setups]}; "
             f"preparation wall s {[round(s[0], 4) for s in prepared]}"]
    figures = {}
    if trace:
        # Spans only open inside passes, so the traced wall time is the time
        # of the traced passes, without the reference loops around them.
        overhead = (statistics.mean(p[3] for p in passes)
                    / statistics.mean(p[3] for p in plain) if passes else 0.0)
        metrics = tracing.layer_metrics(tracer, sum(p[2] for p in passes), overhead)
        if passes:
            path = SPANS_DIR / f"spans-{work.name}-seed{work.seed}.json"
            tracing.write_spans(tracer, path, machine, traced_start)
            lines.append(f"spans written to {path}")
    else:
        # Throughput over all passes: on the shared machine this was written
        # on, it spread less from run to run than the median pass did.
        ops = sum(p[0] for p in passes)
        setup_s = statistics.median(s[1] for s in setups) if setups else 0.0
        metrics = {
            "setup_s": (sum(s[1] for s in prepared) + setup_s, "s"),
            "ops_per_s": (ops / sum(p[3] for p in passes) if passes else 0.0, "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        figures["wall_ops_per_s"] = (
            ops / sum(p[2] for p in passes) if passes else 0.0, "1/s")
        figures["failed_frac"] = (failed / attempted, "1")
        if passes and not errors:
            figures.update(work.figures(statistics.mean(p[3] for p in passes)))
    lines += [f"{key:<36} {value!r} {unit}"
              for key, (value, unit) in {**metrics, **figures}.items()]
    lines += [f"check failed: {e}" for e in errors] or [f"check {work.name}: ok"]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    for needed in (SOURCE / "cranpower", DEFAULT_CONFIG):
        if not needed.exists():
            print(f"perfbench: {needed} is missing; run from the root of a "
                  "full checkout", file=sys.stderr)
            return 2
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = workloads.WORKLOADS[args.workload](DEFAULT_CONFIG, args.seed)
    result, lines = run(work, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
