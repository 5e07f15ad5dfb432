"""Solver oracle: solve the same beamforming states with this working tree's
solver and with a git revision's, and compare the results.

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
the 2^m - 1 of them. Each tree answers every state twice: as a
`BeamformingProblem` through `beamform.solve_batch`, and as a (channel,
pattern, demands) state through `env.ExactSolverReward.transmit_powers`,
the reward path of `gen-data`, training and evaluation. Per cell, the
oracle prints:

- for `solve_batch`, how many states differ from the revision's in verdict
  (feasible, SINR, cap, or the SolverFailure message), in iteration count,
  and in transmit power by more than 1e-12 relative, and lists the states
  whose verdicts or iteration counts differ;
- for the reward path, how many (power, feasible) answers (or failure
  messages) differ from the revision's, feasibility or power by more than
  1e-12 relative, and how many differ at all from the same tree's
  `solve_batch` verdicts and powers.

It exits 1 on any verdict or feasibility difference, any power difference
above 1e-12 between the trees, or any reward answer that is not its own
tree's `solve_batch` result, else 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
        channels, patterns, demands, targets = [], [], [], []
        for _ in range(count):
            # The default cell's states share its one channel.
            if name != "default" or not channels:
                channels.append(run_channel if name == "default"
                                else netmodel.sample_channel(config, rng).gains)
            bits = int(rng.integers(1, 2 ** config.num_rrhs))
            patterns.append(np.array([(bits >> i) & 1 for i in range(config.num_rrhs)],
                                     dtype=bool))
            demands.append(netmodel.sample_demands(config, rng))
            demands[-1][rng.random(config.num_users) < p_zero] = 0.0
            targets.append(beamform.sinr_targets(demands[-1], config)[0])
        np.savez(out / f"{name}.npz", channels=np.array(channels),
                 channel_of=np.arange(count) % len(channels),
                 patterns=np.array(patterns), demands=np.array(demands),
                 targets=np.array(targets),
                 config=json.dumps(dataclasses.asdict(config)))
    return list(cells)


def solve_states(states: Path, out: Path) -> None:
    """Solve the states in `states` with the `cranpower` on the path, through
    `solve_batch` and through the reward path, and write each state's
    verdict, iteration count and transmit power, and its reward answer."""
    from cranpower import beamform, env, netmodel

    with np.load(states) as data:
        config = netmodel.NetworkConfig(**json.loads(str(data["config"])))
        channels = [netmodel.ChannelRealization(gains=gains) for gains in data["channels"]]
        channels = [channels[c] for c in data["channel_of"]]
        patterns, demands, targets = data["patterns"], data["demands"], data["targets"]
    problems = [beamform.BeamformingProblem.from_state(channel, pattern, iota, config)
                for channel, pattern, iota in zip(channels, patterns, targets)]
    results = []
    for start in range(0, len(problems), CHUNK):
        results += beamform.solve_batch(problems[start:start + CHUNK])
    failed = [isinstance(r, beamform.SolverFailure) for r in results]
    answers = env.ExactSolverReward(config).transmit_powers(
        channels, list(patterns), list(demands))
    lost = [isinstance(a, beamform.SolverFailure) for a in answers]
    np.savez(out,
             verdict=[f"failure: {r}" if bad else r.status.value
                      for r, bad in zip(results, failed)],
             iterations=[-1 if bad else r.iterations for r, bad in zip(results, failed)],
             power=[np.nan if bad else r.total_tx_w for r, bad in zip(results, failed)],
             answer=[f"failure: {a}" if bad else "feasible" if a[1] else "infeasible"
                     for a, bad in zip(answers, lost)],
             answer_power=[np.nan if bad else a[0] for a, bad in zip(answers, lost)])


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


def relative_gap(ours, theirs, differ):
    """Relative power differences of the states that agree in verdict."""
    both = ~differ & np.isfinite(ours) & np.isfinite(theirs)
    rel = np.zeros(len(differ))
    scale = np.maximum(np.abs(theirs[both]), np.finfo(float).tiny)
    rel[both] = np.abs(ours[both] - theirs[both]) / scale
    return rel


def unlike_own_batch(record: dict) -> np.ndarray:
    """The states whose reward answer is not what the same tree's
    `solve_batch` result implies: feasible at its power, infeasible at 0,
    or its failure."""
    verdict = np.array([v if v.startswith("failure") else
                        "feasible" if v == "feasible" else "infeasible"
                        for v in record["verdict"]])
    power = np.where(verdict == "feasible", record["power"],
                     np.where(np.char.startswith(verdict, "failure"), np.nan, 0.0))
    same_power = (record["answer_power"] == power) | (
        np.isnan(record["answer_power"]) & np.isnan(power))
    return (record["answer"] != verdict) | ~same_power


def compare(ours: dict, theirs: dict) -> tuple:
    """Printable lines and the failing count of one cell's results."""
    verdict = ours["verdict"] != theirs["verdict"]
    rel = relative_gap(ours["power"], theirs["power"], verdict)
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
    answer = ours["answer"] != theirs["answer"]
    answer_rel = relative_gap(ours["answer_power"], theirs["answer_power"], answer)
    answer_power = answer_rel > POWER_RTOL
    own = {tree: unlike_own_batch(record)
           for tree, record in (("this tree", ours), ("the revision", theirs))}
    lines.append(f"  reward path: answers differ {int(answer.sum())}, power differs "
                 f"{int(answer_power.sum())} (largest relative difference "
                 f"{answer_rel.max():.2g}); unlike its own solve_batch: "
                 + ", ".join(f"{tree} {int(mask.sum())}" for tree, mask in own.items()))
    for k in np.flatnonzero(answer):
        lines.append(f"  state {k}: answer {theirs['answer'][k]} -> {ours['answer'][k]}")
    for (tree, mask), record in zip(own.items(), (ours, theirs)):
        for k in np.flatnonzero(mask):
            lines.append(f"  state {k} ({tree}): answer {record['answer'][k]} "
                         f"{record['answer_power'][k]!r}, solve_batch "
                         f"{record['verdict'][k]} {record['power'][k]!r}")
    return lines, int(verdict.sum() + power.sum() + answer.sum() + answer_power.sum()
                      + sum(mask.sum() for mask in own.values()))


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
