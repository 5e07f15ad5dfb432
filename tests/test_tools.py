"""The oracle scripts under tools/ stay runnable: what they ask of the CLI
parses, and the solver oracle's solve step agrees with itself."""

import json
import sys
from pathlib import Path

import numpy as np

from cranpower import cli
from cranpower.netmodel import NetworkConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import byte_oracle  # noqa: E402
import solver_oracle  # noqa: E402


def test_byte_oracle_sequences_parse(tmp_path):
    runs = byte_oracle._sequences(ROOT, tmp_path, short_default=True)
    assert {"c9", "sweep", "no-tune", "modes", "interval", "wrap", "gbdt", "tune",
            "k64", "short-default"} <= runs.keys()
    # More lockstep envs than tiny's episodes, so rows only retire.
    assert json.loads((tmp_path / "tiny-k64.json").read_text())["offline_envs"] == 64
    assert json.loads((ROOT / "configs" / "tiny.json").read_text())[
        "offline_episodes"] < 64
    assert json.loads((tmp_path / "tiny-gbdt.json").read_text())["gbdt"] == {
        "num_rounds": 60, "max_depth": 3, "min_samples_leaf": 40, "lambda_leaf": 0.5}
    assert [argv[argv.index("--pattern-mode") + 1] for argv in runs["modes"]] == [
        "all-on", "one-off"]
    # Each mode's dataset goes to its own directory, so neither overwrites;
    # so do the tuned and untuned evaluations of the tune run.
    assert len({argv[argv.index("--out") + 1] for argv in runs["modes"]}) == 2
    assert len({argv[argv.index("--out") + 1] for argv in runs["tune"]}) == 2
    parser = cli.build_parser()
    parsed = {}
    for run, commands in runs.items():
        parsed[run] = [parser.parse_args([*argv, "--out", str(tmp_path / run)])
                       for argv in commands]
        assert [args.command for args in parsed[run]] == [argv[0] for argv in commands]
    assert [(args.scheme, args.slots, args.no_tune) for args in parsed["tune"]] == [
        ("DQN-GBDT", 60, False), ("DQN-GBDT", 60, True),
        ("DQN-SOCP", 60, False), ("DQN-SOCP", 60, True)]
    # After its train, the short default run tunes online on its own
    # artifacts with both DQN schemes, then runs both baselines on the
    # default cell itself.
    short = parsed["short-default"]
    assert [args.command for args in short] == ["gen-data", "train", "evaluate",
                                                "evaluate", "baseline", "baseline"]
    assert [(args.scheme, args.slots, args.artifacts, args.no_tune)
            for args in short[2:4]] == [("DQN-GBDT", 300, None, False),
                                        ("DQN-SOCP", 300, None, False)]
    assert [(args.scheme, args.slots, Path(args.config))
            for args in short[4:]] == [("AO", 300, ROOT / "configs" / "default.json"),
                                       ("OC", 300, ROOT / "configs" / "default.json")]


def test_byte_oracle_runs_the_demos_without_wall_times():
    # Demos 03 and 05 print wall times, so two runs of them differ.
    assert [demo.name[:3] for demo in byte_oracle._demos(ROOT)] == ["01_", "02_", "04_"]


def test_solver_oracle_reward_answers_match_its_solves():
    states = solver_oracle.draw_cell(NetworkConfig(num_rrhs=3, num_users=2), 50,
                                     solver_oracle.ZERO_DEMAND, np.random.default_rng(7))
    record = solver_oracle.solve(states)
    assert len(record["verdict"]) == len(record["answer"]) == 50
    assert (record["verdict"] == "feasible").any()
    assert (record["verdict"] != "feasible").any()
    assert not solver_oracle.unlike_own_solve(record).any()
