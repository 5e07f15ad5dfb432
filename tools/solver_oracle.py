"""Solver oracle: solve the same beamforming states with this working tree's
solver and with a git revision's, and compare the results.

    python3 tools/solver_oracle.py --against HEAD

The revision is unpacked with `git archive` into a temporary directory, as
`tools/byte_oracle.py` does. The states are drawn once, here, and each tree
solves them in a subprocess that runs that tree's own copy of this script
with `--solve`, so each tree poses the states through its own contract and
imports its own `cranpower`:

- default: 10^4 states of the `configs/default.json` cell, on the channel
  its data seed draws, as `gen-data` labels them;
- 3x2, 2x1, 6x9, 4x6, 8x4 (RRHs x users): 2,000 states each, on cells with
  the default physics, where each state draws its own channel and each user
  demands nothing with probability 0.15.

Every state draws its demands and a non-empty on/off pattern, uniform over
the 2^m - 1 of them. Each tree answers every state twice, both times posed
as arrays: with its SINR targets, caps and noise to `beamform.solve_states`,
and with its demands to `env.ExactSolverReward.solve`, the reward path of
`gen-data`, training and evaluation. Per cell, the oracle prints:

- for `solve_states`, how many states differ from the revision's in verdict
  (feasible, SINR, cap, or the SolverFailure message), in iteration count,
  and in transmit power by more than 1e-12 relative; the iteration
  differences counted per verdict, with how many of them this tree decided
  before any iteration; and the states whose verdicts or iteration counts
  differ;
- for the reward path, how many (power, feasible) answers (or failure
  messages) differ from the revision's, feasibility or power by more than
  1e-12 relative, and how many differ at all from the same tree's
  `solve_states` verdicts and powers.

Each list of differing states stops after its first 20 states and says how
many it left out.

It exits 1 on any verdict or feasibility difference, any power difference
above 1e-12 between the trees, or any reward answer that is not its own
tree's `solve_states` result, else 0.
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
LISTED = 20  # states listed per kind of difference


def draw_cell(config, count: int, p_zero: float, rng, channel=None) -> dict:
    """`count` states of the cell `config`: each on its own drawn channel, or
    all on `channel` when it is given. Returns the arrays of its states file."""
    from cranpower import beamform, netmodel

    channels, patterns, demands, targets = [], [], [], []
    for _ in range(count):
        if channel is None or not channels:
            channels.append(netmodel.sample_channel(config, rng).gains
                            if channel is None else channel)
        bits = int(rng.integers(1, 2 ** config.num_rrhs))
        patterns.append(np.array([(bits >> i) & 1 for i in range(config.num_rrhs)],
                                 dtype=bool))
        demands.append(netmodel.sample_demands(config, rng))
        demands[-1][rng.random(config.num_users) < p_zero] = 0.0
        targets.append(beamform.sinr_targets(demands[-1], config)[0])
    return dict(channels=np.array(channels), channel_of=np.arange(count) % len(channels),
                patterns=np.array(patterns), demands=np.array(demands),
                targets=np.array(targets), config=json.dumps(dataclasses.asdict(config)))


def draw_states(out: Path) -> list:
    """Write every cell's states to `out/<cell>.npz`; returns the cell names."""
    sys.path.insert(0, str(ROOT / "src"))
    from cranpower import netmodel, pipeline

    run = pipeline.RunConfig.from_file(ROOT / "configs" / "default.json")
    # The default cell's states share its one channel.
    cells = {"default": (run.network, DEFAULT_STATES, 0.0,
                         pipeline.make_channel(run).gains)}
    for m, n in CELLS:
        cells[f"{m}x{n}"] = (netmodel.NetworkConfig(num_rrhs=m, num_users=n),
                             CELL_STATES, ZERO_DEMAND, None)
    for seed, (name, (config, count, p_zero, channel)) in enumerate(cells.items()):
        rng = np.random.default_rng([2026, seed])
        np.savez(out / f"{name}.npz", **draw_cell(config, count, p_zero, rng, channel))
    return list(cells)


def solve(data) -> dict:
    """Solve the states of a states file's arrays with the `cranpower` on the
    path, through `solve_states` and through the reward path. Returns each
    state's verdict, iteration count and transmit power, and its reward
    answer."""
    from cranpower import beamform, env, netmodel

    config = netmodel.NetworkConfig(**json.loads(str(data["config"])))
    # The states file keeps a channel list and each state's index into it, so
    # that every revision can read it; this tree poses each state's gains.
    gains = data["channels"][data["channel_of"]]
    patterns, targets = data["patterns"], data["targets"]
    caps = np.full(patterns.shape, config.max_tx_power_w)
    noise = np.full(len(patterns), config.noise_power_w)
    verdicts, iterations, power = [], [], []
    for start in range(0, len(patterns), CHUNK):
        rows = slice(start, start + CHUNK)
        solved = beamform.solve_states(gains[rows], patterns[rows], targets[rows],
                                       caps[rows], noise[rows])
        failed = [isinstance(v, beamform.SolverFailure) for v in solved.verdicts]
        verdicts += [f"failure: {v}" if bad else v.value
                     for v, bad in zip(solved.verdicts, failed)]
        iterations += np.where(failed, -1, solved.iterations).tolist()
        power += np.where(failed, np.nan, solved.totals).tolist()
    answer_power, feasible, failures = env.ExactSolverReward(config).solve(
        gains, patterns, data["demands"])
    answer = np.where(feasible, "feasible", "infeasible").astype(object)
    for k, failure in failures.items():
        answer[k] = f"failure: {failure}"
        answer_power[k] = np.nan
    return dict(
        verdict=np.array(verdicts), iterations=np.array(iterations), power=np.array(power),
        answer=answer.astype(str), answer_power=answer_power)


def run_tree(tree: Path, states: Path, cells: list, out: Path) -> dict:
    """Cell -> the results of `tree`'s solver on that cell's states, solved
    by `tree`'s own `tools/solver_oracle.py --solve`."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    record = {}
    for cell in cells:
        subprocess.run([sys.executable, str(tree / "tools" / "solver_oracle.py"), "--solve",
                        str(states / f"{cell}.npz"), str(out / f"{cell}.npz")],
                       env=env, check=True)
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


def unlike_own_solve(record: dict) -> np.ndarray:
    """The states whose reward answer is not what the same tree's
    `solve_states` result implies: feasible at its power, infeasible at 0,
    or its failure."""
    verdict = np.array([v if v.startswith("failure") else
                        "feasible" if v == "feasible" else "infeasible"
                        for v in record["verdict"]])
    power = np.where(verdict == "feasible", record["power"],
                     np.where(np.char.startswith(verdict, "failure"), np.nan, 0.0))
    same_power = (record["answer_power"] == power) | (
        np.isnan(record["answer_power"]) & np.isnan(power))
    return (record["answer"] != verdict) | ~same_power


def listed(mask, line) -> list:
    """`line(k)` for the first LISTED states k of `mask`, and a count of the
    rest."""
    states = np.flatnonzero(mask)
    lines = [line(k) for k in states[:LISTED]]
    if len(states) > LISTED:
        lines.append(f"  ... and {len(states) - LISTED} more")
    return lines


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
    lines += listed(verdict, lambda k: f"  state {k}: verdict {theirs['verdict'][k]} -> "
                                       f"{ours['verdict'][k]}")
    if iterations.any():
        per_verdict = []
        for v in VERDICTS:
            of = iterations & np.char.startswith(ours["verdict"], v)
            if of.any():
                per_verdict.append(f"{v} {int(of.sum())} (now 0: "
                                   f"{int((of & (ours['iterations'] == 0)).sum())})")
        lines.append("  iterations differ by verdict: " + ", ".join(per_verdict))
    lines += listed(iterations, lambda k: f"  state {k}: iterations {theirs['iterations'][k]}"
                                          f" -> {ours['iterations'][k]} ({ours['verdict'][k]})")
    answer = ours["answer"] != theirs["answer"]
    answer_rel = relative_gap(ours["answer_power"], theirs["answer_power"], answer)
    answer_power = answer_rel > POWER_RTOL
    own = {tree: unlike_own_solve(record)
           for tree, record in (("this tree", ours), ("the revision", theirs))}
    lines.append(f"  reward path: answers differ {int(answer.sum())}, power differs "
                 f"{int(answer_power.sum())} (largest relative difference "
                 f"{answer_rel.max():.2g}); unlike its own solve_states: "
                 + ", ".join(f"{tree} {int(mask.sum())}" for tree, mask in own.items()))
    lines += listed(answer, lambda k: f"  state {k}: answer {theirs['answer'][k]} -> "
                                      f"{ours['answer'][k]}")
    for (tree, mask), record in zip(own.items(), (ours, theirs)):
        lines += listed(mask, lambda k: f"  state {k} ({tree}): answer {record['answer'][k]} "
                                        f"{record['answer_power'][k]!r}, solve_states "
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
        with np.load(args.solve[0]) as data:
            np.savez(args.solve[1], **solve(data))
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
