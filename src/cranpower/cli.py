"""Command line front end.

Subcommands: gen-data, train, evaluate, baseline, bench, ete. Each takes
--config <path>, an optional --seed override (applied to the seed the
command consumes: data for gen-data, train for train, eval otherwise) and
--out <dir>. Exit codes: 0 success, 1 configuration error (artifacts or a
dataset of another cell included), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .netmodel import ConfigError


def _add_common(parser):
    parser.add_argument("--config", required=True, help="run config JSON")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed this command consumes")
    parser.add_argument("--out", default="out", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cranpower",
        description="C-RAN power workbench: exact beamforming, a boosted-tree "
                    "surrogate, and a DQN sleep-mode policy.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="label random states with the exact solver")
    _add_common(p)
    p.add_argument("--count", type=int, default=None, help="row count override")
    p.add_argument("--pattern-mode", default=pipeline.PATTERN_RANDOM,
                   choices=pipeline.PATTERN_MODES)

    p = sub.add_parser("train", help="fit the surrogate pair and pre-train the DQN")
    _add_common(p)
    p.add_argument("--dataset", default=None,
                   help="existing dataset CSV (default: regenerate)")
    p.add_argument("--redraw-channel", action="store_true",
                   help="draw a fresh channel per training episode")

    p = sub.add_parser("evaluate", help="greedy online run with regular tuning")
    _add_common(p)
    p.add_argument("--scheme", default=pipeline.SCHEME_DQN_GBDT,
                   choices=list(pipeline.DQN_SCHEMES))
    p.add_argument("--slots", type=int, default=None)
    p.add_argument("--artifacts", default=None,
                   help="artifacts directory (default: --out)")
    p.add_argument("--no-tune", action="store_true",
                   help="disable online fine-tuning")
    p.add_argument("--demand-max-sweep", default=None,
                   help="comma-separated demand ceilings for the sweep file")

    p = sub.add_parser("baseline", help="all-on or one-closed reference run")
    _add_common(p)
    p.add_argument("--scheme", required=True,
                   choices=[pipeline.SCHEME_AO, pipeline.SCHEME_OC])
    p.add_argument("--slots", type=int, default=None)
    p.add_argument("--demand-max-sweep", default=None)

    p = sub.add_parser("bench", help="surrogate vs solver timing")
    _add_common(p)
    p.add_argument("--inputs", type=int, default=1000)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--artifacts", default=None)

    p = sub.add_parser("ete", help="paired surrogate-vs-solver policy comparison")
    _add_common(p)
    p.add_argument("--slots", type=int, default=None)
    p.add_argument("--artifacts", default=None)
    return parser


def _load_config(args) -> pipeline.RunConfig:
    """The config file with the command line's overrides, checked as the
    file's own values are."""
    config = pipeline.RunConfig.from_file(args.config)
    changes = {}
    if args.seed is not None:
        seed = {"gen-data": "data", "train": "train"}.get(args.command, "eval")
        changes["seeds"] = replace(config.seeds, **{seed: args.seed})
    if getattr(args, "redraw_channel", False):
        changes["redraw_channel"] = True
    return replace(config, **changes)


# Numeric options and their least allowed value.
_OPTION_FLOORS = (("count", 1), ("slots", 0), ("inputs", 1), ("repeats", 1))


def _check_options(args, config):
    """Reject bad numeric options before any work runs or any file is
    written; an unset --slots is the config's `eval_slots`. Builds the config
    of each --demand-max-sweep ceiling into `args.swept`, so that the
    network checks every ceiling up front."""
    for option, least in _OPTION_FLOORS:
        value = getattr(args, option, None)
        if value is not None and value < least:
            raise ValueError(f"--{option} must be >= {least}, got {value}")
    if getattr(args, "slots", 0) is None:
        args.slots = config.eval_slots
    args.swept = []
    for entry in (getattr(args, "demand_max_sweep", None) or "").split(","):
        if not entry.strip():
            continue
        try:
            dmax = float(entry)
        except ValueError:
            dmax = math.nan
        if not math.isfinite(dmax):
            raise ValueError(f"--demand-max-sweep entry {entry!r} is not a finite number")
        try:
            args.swept.append(replace(config, network=replace(
                config.network, demand_max_mbps=dmax)))
        except ConfigError as err:
            raise ValueError(f"--demand-max-sweep entry {entry!r}: {err}") from None


def _read_given(args, config):
    """What the command reads besides its config, which `main` keeps in
    `args.given`: the artifacts of evaluate, bench and ete (from
    --artifacts, default --out), the --dataset of train, or None. Inputs
    made for a cell other than the config's raise ConfigError."""
    if args.command == "train":
        return pipeline.read_dataset_csv(args.dataset, config) if args.dataset else None
    if args.command not in ("evaluate", "bench", "ete"):
        return None
    where = Path(args.artifacts or args.out)
    artifacts = pipeline.Artifacts.load(where)
    m, n = config.network.num_rrhs, config.network.num_users
    checks = [("Q-network input", artifacts.qnet.layer_sizes[0], m + n),
              ("Q-network output", artifacts.qnet.layer_sizes[-1], m + 1),
              ("power model input", artifacts.gbdt_model.num_features, m + n),
              ("feasibility model input", artifacts.feasibility_model.num_features, m + n)]
    if len(artifacts.replay):
        checks.append(("replay state", artifacts.replay.contents().states.shape[1], m + n))
    for what, got, want in checks:
        if got != want:
            raise ConfigError("network", f"the artifacts in {where} are of another "
                              f"cell: {what} {got}, the {m}x{n} cell needs {want}")
    return artifacts


def _write_run(args, config, out, report, artifacts, prefix, tag):
    """A run's report and trajectory files, its summary line, and the
    --demand-max-sweep file when the flag is given; the swept runs tune
    online unless --no-tune is given."""
    slots = len(report.instant_w)
    report.to_csv(out / f"{prefix}_{tag}.csv")
    report.trajectory_to_csv(out / f"trajectory_{tag}.csv")
    print(f"{report.scheme}: average power {report.average_power_w!r} W over "
          f"{slots} slots, {report.infeasible_count} infeasible")
    if args.demand_max_sweep:
        rows = pipeline.demand_sweep(args.swept, artifacts, slots, report.scheme,
                                     config.network.demand_max_mbps,
                                     tuning=not getattr(args, "no_tune", False))
        pipeline.write_csv(out / f"sweep_{tag}.csv",
                           ["demand_max_mbps", "scheme", "average_power_w",
                            "infeasible_count"], zip(*rows))


def _cmd_gen_data(args, config, out):
    rows = pipeline.gen_dataset(config, count=args.count, pattern_mode=args.pattern_mode)
    path = out / "dataset.csv"
    pipeline.write_dataset_csv(rows, path, config)
    print(f"wrote {len(rows)} rows to {path} "
          f"({int(rows.feasible.sum())} feasible, "
          f"{rows.solver_failures} solver failures skipped)")


def _cmd_train(args, config, out):
    _, summary = pipeline.train_offline(config, out_dir=out, dataset=args.given)
    print(json.dumps({k: v for k, v in summary.items() if k != "timing"},
                     indent=2, sort_keys=True))
    print(f"artifacts saved under {out}")


def _cmd_evaluate(args, config, out):
    report = pipeline.run_online(config, args.given, args.slots, scheme=args.scheme,
                                 tuning=not args.no_tune)
    tag = args.scheme.lower().replace("-", "_")
    pipeline.write_json(out / f"eval_{tag}_timing.json", report.timing)
    _write_run(args, config, out, report, args.given, "eval", tag)


def _cmd_baseline(args, config, out):
    report = pipeline.run_baseline(config, args.scheme, args.slots)
    _write_run(args, config, out, report, None, "baseline", args.scheme.lower())


def _cmd_bench(args, config, out):
    row = pipeline.bench_timing(config, args.given, inputs=args.inputs,
                                repeats=args.repeats)
    pipeline.write_timing_csv([row], out / "timing.csv")
    print(f"{row['num_rrhs']} RRHs / {row['num_users']} users: "
          f"surrogate {row['gbdt_s_per_input']:.6f} s, "
          f"solver {row['socp_s_per_input']:.6f} s per input "
          f"({row['speedup']:.1f}x)")


def _cmd_ete(args, config, out):
    result = pipeline.ete_compare(config, args.given, args.slots)
    result.to_csv(out / "ete.csv")
    print(f"average-power gap {result.average_gap_rel * 100:.3f}%, "
          f"action agreement {result.action_agreement * 100:.2f}% "
          f"over {args.slots} paired slots")


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "baseline": _cmd_baseline,
    "bench": _cmd_bench,
    "ete": _cmd_ete,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        _check_options(args, config)
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    out = Path(args.out)
    try:
        args.given = _read_given(args, config)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](args, config, out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
