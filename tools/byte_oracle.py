"""Byte-identity oracle: run the same CLI sequences on this working tree and
on a git revision, and compare what they write.

    python3 tools/byte_oracle.py --against HEAD
    python3 tools/byte_oracle.py --against main --short-default

The revision is unpacked with `git archive` into a temporary directory, so
nothing is written to `.git`. On each tree, from its own `configs/`:

- c9: the criterion-9 sequence on `tiny.json` (gen-data, train, evaluate
  with both DQN schemes, both baselines, ete, bench);
- sweep: `evaluate` (both schemes) and both baselines with
  `--demand-max-sweep 10,15,200`, on the c9 artifacts;
- no-tune: `evaluate --no-tune` on the c9 artifacts;
- modes: `gen-data --pattern-mode all-on` and `--pattern-mode one-off`,
  each into its own subdirectory of the run's output;
- redraw-k1, redraw-k4: `train --seed 9 --redraw-channel` on the c9 dataset,
  with `offline_envs` 1 and 4;
- k64: `train` on the c9 dataset with `offline_envs` 64, more envs than
  tiny's 40 episodes: every episode starts in the first tick, and the
  lockstep envs only ever retire;
- interval: `train` on the c9 dataset with `dqn.train_interval` 3 and
  `dqn.target_sync_interval` 5, then `evaluate --slots 60` with both DQN
  schemes: a sync interval that the train interval does not divide;
- wrap: `train` on the c9 dataset with `dqn.buffer_capacity` 64, then
  `evaluate --slots 60` with both DQN schemes: pre-training wraps the replay
  ring, and each tuned run copies the full, wrapped ring and keeps wrapping
  it;
- gbdt: `train` on the c9 dataset with `gbdt.max_depth` 3,
  `gbdt.min_samples_leaf` 40 and `gbdt.lambda_leaf` 0.5, then
  `evaluate --slots 60` with both DQN schemes: most tree nodes are too
  small or too deep to be searched, and the leaves are regularized;
- tune: `evaluate --slots 60` with both DQN schemes on the c9 artifacts,
  with `dqn.learning_rate` 0.01 and `dqn.train_interval` 1, tuned and with
  `--no-tune`, each into its own subdirectory: at that rate the tuned
  greedy actions part from the untuned ones within the 60 slots, so a
  tuner that learns from other rows changes an output;
- with `--short-default`, also short-default and short-default-redraw: a
  `default.json` gen-data + train cut to 3000 rows, 100 rounds and 30
  episodes, without and with `--redraw-channel`; short-default then runs
  `evaluate --slots 300` with both DQN schemes on its artifacts, so the
  tuned online path runs on the default cell's net and 100-round forests,
  and `baseline --slots 300` with AO and OC on `default.json` itself, so a
  baseline's states are solved in stacks of the default cell.

Each tree also runs its own demos 01, 02 and 04 (`DEMOS`), which drive the
library API directly; demos 03 and 05 print wall times, so they are left
out.

Compared: every output file whose name does not contain "timing", each
command's and demo's exit code and stderr, and its stdout once the output
directory is masked and `bench`'s timing line dropped. Prints the
differences and exits 1 if there are any, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The demos whose output holds no wall time, so that two runs read alike.
DEMOS = ("01_*.py", "02_*.py", "04_*.py")


def _variant(tree: Path, name: str, path: Path, changes: dict) -> str:
    """Write to `path` the `configs/<name>` of `tree` with top-level and
    `section.key` values changed."""
    raw = json.loads((tree / "configs" / name).read_text())
    for key, value in changes.items():
        section, _, leaf = key.rpartition(".")
        (raw[section] if section else raw)[leaf] = value
    path.write_text(json.dumps(raw))
    return str(path)


def _sequences(tree: Path, work: Path, short_default: bool) -> dict:
    """Run name -> list of CLI argument lists; each run writes to `work/<run>`,
    or a command to the `--out` it names."""
    tiny = str(tree / "configs" / "tiny.json")
    c9 = str(work / "c9")
    k4 = _variant(tree, "tiny.json", work / "tiny-k4.json", {"offline_envs": 4})
    k64 = _variant(tree, "tiny.json", work / "tiny-k64.json", {"offline_envs": 64})
    sweep = ["--demand-max-sweep", "10,15,200"]
    runs = {
        "c9": [
            ["gen-data", "--config", tiny],
            ["train", "--config", tiny, "--dataset", f"{c9}/dataset.csv"],
            ["evaluate", "--config", tiny, "--slots", "30"],
            ["evaluate", "--config", tiny, "--slots", "30", "--scheme", "DQN-SOCP"],
            ["baseline", "--config", tiny, "--scheme", "AO", "--slots", "30"],
            ["baseline", "--config", tiny, "--scheme", "OC", "--slots", "30"],
            ["ete", "--config", tiny, "--slots", "30"],
            ["bench", "--config", tiny, "--inputs", "20", "--repeats", "1"],
        ],
        "sweep": [
            ["evaluate", "--config", tiny, "--slots", "30", "--artifacts", c9, *sweep],
            ["evaluate", "--config", tiny, "--slots", "30", "--artifacts", c9,
             "--scheme", "DQN-SOCP", *sweep],
            ["baseline", "--config", tiny, "--scheme", "AO", "--slots", "30", *sweep],
            ["baseline", "--config", tiny, "--scheme", "OC", "--slots", "30", *sweep],
        ],
        "no-tune": [
            ["evaluate", "--config", tiny, "--slots", "30", "--artifacts", c9,
             "--no-tune"],
        ],
        "modes": [
            ["gen-data", "--config", tiny, "--pattern-mode", mode,
             "--out", str(work / "modes" / mode)]
            for mode in ("all-on", "one-off")
        ],
    }
    for name, config in (("redraw-k1", tiny), ("redraw-k4", k4)):
        runs[name] = [["train", "--config", config, "--seed", "9", "--redraw-channel",
                       "--dataset", f"{c9}/dataset.csv"]]
    runs["k64"] = [["train", "--config", k64, "--dataset", f"{c9}/dataset.csv"]]
    for name, changes in (
            ("interval", {"dqn.train_interval": 3, "dqn.target_sync_interval": 5}),
            ("wrap", {"dqn.buffer_capacity": 64}),
            ("gbdt", {"gbdt.max_depth": 3, "gbdt.min_samples_leaf": 40,
                      "gbdt.lambda_leaf": 0.5})):
        config = _variant(tree, "tiny.json", work / f"tiny-{name}.json", changes)
        runs[name] = [
            ["train", "--config", config, "--dataset", f"{c9}/dataset.csv"],
            ["evaluate", "--config", config, "--slots", "60"],
            ["evaluate", "--config", config, "--slots", "60", "--scheme", "DQN-SOCP"],
        ]
    tune = _variant(tree, "tiny.json", work / "tiny-tune.json", {
        "dqn.learning_rate": 0.01, "dqn.train_interval": 1})
    runs["tune"] = [
        ["evaluate", "--config", tune, "--slots", "60", "--artifacts", c9, *scheme,
         *flags, "--out", str(work / "tune" / sub)]
        for scheme in ([], ["--scheme", "DQN-SOCP"])
        for sub, flags in (("tuned", []), ("no-tune", ["--no-tune"]))]
    if short_default:
        default = str(tree / "configs" / "default.json")
        short = _variant(tree, "default.json", work / "default-short.json", {
            "dataset_size": 3000, "gbdt.num_rounds": 100, "offline_episodes": 30})
        runs["short-default"] = [["gen-data", "--config", short],
                                 ["train", "--config", short, "--dataset",
                                  f"{work}/short-default/dataset.csv"],
                                 ["evaluate", "--config", short, "--slots", "300"],
                                 ["evaluate", "--config", short, "--slots", "300",
                                  "--scheme", "DQN-SOCP"],
                                 *(["baseline", "--config", default, "--scheme", scheme,
                                    "--slots", "300"] for scheme in ("AO", "OC"))]
        runs["short-default-redraw"] = [["train", "--config", short,
                                         "--redraw-channel", "--dataset",
                                         f"{work}/short-default/dataset.csv"]]
    return runs


def _demos(tree: Path) -> list:
    """The paths of `tree`'s demos that `DEMOS` names, in its order."""
    return [path for pattern in DEMOS for path in sorted((tree / "demos").glob(pattern))]


def run_tree(tree: Path, work: Path, short_default: bool) -> dict:
    """Key -> bytes of everything the sequences and demos on `tree` produce."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    record = {}
    for run, commands in _sequences(tree, work, short_default).items():
        out = work / run
        for k, argv in enumerate(commands):
            if "--out" not in argv:
                argv = [*argv, "--out", str(out)]
            proc = subprocess.run([sys.executable, "-m", "cranpower.cli", *argv],
                                  capture_output=True, env=env, cwd=work)
            stdout = proc.stdout.replace(str(work).encode(), b"<work>")
            if argv[0] == "bench":
                stdout = b""
            tag = f"{run}/{k}:{argv[0]}"
            record[f"{tag} exit"] = str(proc.returncode).encode()
            record[f"{tag} stdout"] = stdout
            record[f"{tag} stderr"] = proc.stderr.replace(str(work).encode(), b"<work>")
        for path in sorted(out.rglob("*")):
            if path.is_file() and "timing" not in path.name:
                record[f"{run}/{path.relative_to(out).as_posix()}"] = path.read_bytes()
    for demo in _demos(tree):
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env,
                              cwd=work)
        tag = f"demos/{demo.name}"
        record[f"{tag} exit"] = str(proc.returncode).encode()
        record[f"{tag} stdout"] = proc.stdout
        record[f"{tag} stderr"] = proc.stderr.replace(str(tree).encode(), b"<tree>")
    return record


def unpack(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--short-default", action="store_true",
                        help="also run the short default.json gen-data + train")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="byte_oracle_") as tmp:
        tmp = Path(tmp)
        base = unpack(args.against, tmp / "rev")
        with ThreadPoolExecutor(2) as pool:
            theirs, ours = pool.map(
                lambda tw: run_tree(tw[0], tw[1], args.short_default),
                [(base, tmp / "work-rev"), (ROOT, tmp / "work-tree")])
    differ = sorted(key for key in theirs.keys() | ours.keys()
                    if theirs.get(key) != ours.get(key))
    files = sum(" " not in key for key in ours)
    print(f"compared {len(theirs.keys() | ours.keys())} outputs ({files} files) "
          f"of the working tree with {args.against}")
    for key in differ:
        print(f"DIFFERS: {key}" + ("" if key in ours else " (only at the revision)")
              + ("" if key in theirs else " (only in the working tree)"))
    failed = [key for key in ours if key.endswith(" exit") and ours[key] != b"0"]
    for key in failed:
        print(f"note: {key} is {ours[key].decode()} in the working tree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
