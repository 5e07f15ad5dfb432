"""Solver oracle: solve the same beamforming states with this working tree's
`beamform.solve_batch` and with a git revision's, and compare the results.

    python3 tools/solver_oracle.py --against HEAD

The revision is unpacked with `git archive` into a temporary directory, as
`tools/byte_oracle.py` does. The states are drawn once, here, and each tree
solves them in a subprocess that imports that tree's `cranpower`:

- default: 10^4 states of the `configs/default.json` cell, on the channel
  its data seed draws, as `gen-data` labels them;
- 3x2, 2x1, 6x9, 4x6, 8x4 (RRHs x users): 2,000 states each, on cells with
  the default physics, where each state draws its own channel and each user
  demands nothing with probability 0.15.

Every state draws its demands and a non-empty on/off pattern, uniform over
the 2^m - 1 of them. Per cell, the oracle prints how many states differ in
verdict (feasible, SINR, cap, or the SolverFailure message), in iteration
count, and in transmit power by more than 1e-12 relative, and lists the
states whose verdicts or iteration counts differ. It exits 1 on any verdict
difference or any power difference above 1e-12, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CELLS = ((3, 2), (2, 1), (6, 9), (4, 6), (8, 4))  # off-default (RRHs, users)
DEFAULT_STATES = 10_000
CELL_STATES = 2000
ZERO_DEMAND = 0.15  # probability that an off-default cell's user demands nothing
POWER_RTOL = 1e-12
CHUNK = 512
VERDICTS = ("feasible", "infeasible_sinr", "infeasible_cap", "failure")


def draw_states(out: Path) -> list:
    """Write every cell's states to `out/<cell>.npz`; returns the cell names."""
    sys.path.insert(0, str(ROOT / "src"))
    from cranpower import beamform, netmodel, pipeline

    run = pipeline.RunConfig.from_file(ROOT / "configs" / "default.json")
    run_channel = pipeline.make_channel(run).gains
    cells = {"default": (run.network, DEFAULT_STATES, 0.0)}
    for m, n in CELLS:
        cells[f"{m}x{n}"] = (netmodel.NetworkConfig(num_rrhs=m, num_users=n),
                             CELL_STATES, ZERO_DEMAND)
    for seed, (name, (config, count, p_zero)) in enumerate(cells.items()):
        rng = np.random.default_rng([2026, seed])
        channels, patterns, targets = [], [], []
        for _ in range(count):
            channels.append(run_channel if name == "default"
                            else netmodel.sample_channel(config, rng).gains)
            bits = int(rng.integers(1, 2 ** config.num_rrhs))
            patterns.append(np.array([(bits >> i) & 1 for i in range(config.num_rrhs)],
                                     dtype=bool))
            demands = netmodel.sample_demands(config, rng)
            demands[rng.random(config.num_users) < p_zero] = 0.0
            targets.append(beamform.sinr_targets(demands, config)[0])
        np.savez(out / f"{name}.npz", channels=np.array(channels),
                 patterns=np.array(patterns), targets=np.array(targets),
                 cap_w=config.max_tx_power_w, noise_w=config.noise_power_w)
    return list(cells)


def solve_states(states: Path, out: Path) -> None:
    """Solve the states in `states` with the `cranpower` on the path and
    write each state's verdict, iteration count and transmit power."""
    from cranpower import beamform

    with np.load(states) as data:
        problems = [beamform.BeamformingProblem(
            active_set=np.flatnonzero(pattern), channel=gains[pattern],
            sinr_targets=iota, per_rrh_cap_w=float(data["cap_w"]),
            noise_w=float(data["noise_w"]))
            for gains, pattern, iota in zip(data["channels"], data["patterns"],
                                            data["targets"])]
    results = []
    for start in range(0, len(problems), CHUNK):
        results += beamform.solve_batch(problems[start:start + CHUNK])
    failed = [isinstance(r, beamform.SolverFailure) for r in results]
    np.savez(out,
             verdict=[f"failure: {r}" if bad else r.status.value
                      for r, bad in zip(results, failed)],
             iterations=[-1 if bad else r.iterations for r, bad in zip(results, failed)],
             power=[np.nan if bad else r.total_tx_w for r, bad in zip(results, failed)])


def run_tree(tree: Path, states: Path, cells: list, out: Path) -> dict:
    """Cell -> the results of `tree`'s solver on that cell's states."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    record = {}
    for cell in cells:
        subprocess.run([sys.executable, __file__, "--solve", str(states / f"{cell}.npz"),
                        str(out / f"{cell}.npz")], env=env, check=True)
        with np.load(out / f"{cell}.npz") as data:
            record[cell] = {key: data[key] for key in data.files}
    return record


def compare(ours: dict, theirs: dict) -> tuple:
    """Printable lines and the failing count of one cell's results."""
    verdict = ours["verdict"] != theirs["verdict"]
    both = ~verdict & np.isfinite(ours["power"]) & np.isfinite(theirs["power"])
    rel = np.zeros(len(verdict))
    scale = np.maximum(np.abs(theirs["power"][both]), np.finfo(float).tiny)
    rel[both] = np.abs(ours["power"][both] - theirs["power"][both]) / scale
    power = rel > POWER_RTOL
    iterations = ~verdict & (ours["iterations"] != theirs["iterations"])
    counts = {v: int(np.sum([str(x).startswith(v) for x in ours["verdict"]]))
              for v in VERDICTS}
    lines = [f"{len(verdict)} states ({', '.join(f'{v} {c}' for v, c in counts.items())}): "
             f"verdicts differ {int(verdict.sum())}, iterations differ "
             f"{int(iterations.sum())}, power differs {int(power.sum())} "
             f"(largest relative difference {rel.max():.2g})"]
    for k in np.flatnonzero(verdict):
        lines.append(f"  state {k}: verdict {theirs['verdict'][k]} -> {ours['verdict'][k]}")
    for k in np.flatnonzero(iterations):
        lines.append(f"  state {k}: iterations {theirs['iterations'][k]} -> "
                     f"{ours['iterations'][k]} ({ours['verdict'][k]})")
    return lines, int(verdict.sum() + power.sum())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision to compare with")
    parser.add_argument("--solve", nargs=2, metavar=("STATES", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.solve:
        solve_states(Path(args.solve[0]), Path(args.solve[1]))
        return 0
    if not args.against:
        parser.error("--against is required")
    sys.path.insert(0, str(ROOT / "tools"))
    from byte_oracle import unpack

    with tempfile.TemporaryDirectory(prefix="solver_oracle_") as tmp:
        tmp = Path(tmp)
        (tmp / "states").mkdir()
        cells = draw_states(tmp / "states")
        base = unpack(args.against, tmp / "rev")
        with ThreadPoolExecutor(2) as pool:
            theirs, ours = pool.map(
                lambda tree_out: run_tree(tree_out[0], tmp / "states", cells, tree_out[1]),
                [(base, tmp / "out-rev"), (ROOT, tmp / "out-tree")])
    print(f"solver results of the working tree against {args.against}")
    failing = 0
    for cell in cells:
        lines, bad = compare(ours[cell], theirs[cell])
        failing += bad
        print(f"{cell}: {lines[0]}")
        for line in lines[1:]:
            print(line)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
