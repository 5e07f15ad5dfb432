"""Spans around the calls into each cranpower layer, for the traced run.

`patched(tracer)` swaps each traced function for a wrapper at the binding
its caller actually uses, and puts the originals back on exit. A wrapper
records one span (id, parent id, name, start, end) per call in memory; the
parent is the span open when the call started. `layer_metrics` derives the
per-layer metrics from the spans, and `write_spans` writes them out.

Self time is a span's duration minus the durations of its direct children.
The layers' self times then add up to the time of the top-level spans, so
with `pipeline.self_s` (the traced wall time no span covers) they add up to
the traced wall time by definition. What can go wrong is the nesting:
`span_errors` checks that children lie inside their parents, that siblings
do not overlap, and that the top-level spans fit in the traced wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from cranpower import dqn, env, gbdt, pipeline

LAYERS = ("beamform", "gbdt", "dqn", "env", "netmodel")
MAX_ACTIVE = 8
VERDICTS = ("feasible", "infeasible_sinr", "infeasible_cap")


class Tracer:
    def __init__(self):
        self.spans = []     # (id, parent id or -1, name, start, end)
        self.notes = {}     # span id -> what the call did
        self._open = []

    def wrap(self, name, fn, note=None):
        """`fn` recording a span named `name` per call; `note(args, result)`
        may describe a call that returned."""
        spans, notes, open_spans = self.spans, self.notes, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                notes[sid] = {"error": type(err).__name__}
                raise
            finally:
                end = clock()
                open_spans.pop()
                spans[sid] = (sid, parent, name, start, end)
            if note is not None:
                notes[sid] = note(args, result)
            return result

        return traced


def _solve_note(args, solution):
    return {"active": len(args[0].active_set), "verdict": solution.status.value,
            "iterations": solution.iterations}


# (owner, attribute, span name, note). Each owner is where the caller looks
# the name up: env and pipeline import these functions by name, gbdt's are
# reached as module attributes, and methods live on their classes.
TARGETS = (
    (env, "solve_beamforming", "beamform.solve", _solve_note),
    (gbdt, "train", "gbdt.fit", lambda args, model: {"trees": len(model.trees)}),
    (gbdt, "predict", "gbdt.predict", None),
    (gbdt, "predict_batch", "gbdt.predict_batch",
     lambda args, preds: {"rows": len(preds)}),
    (pipeline, "train_step", "dqn.train_step", None),
    (pipeline, "select_action", "dqn.select_action", None),
    (pipeline, "sync_target", "dqn.sync_target", None),
    (dqn.ReplayBuffer, "sample", "dqn.sample", None),
    (dqn.ReplayBuffer, "push", "dqn.push", None),
    (env.Environment, "step", "env.step", None),
    (env.ExactSolverReward, "transmit_power", "env.transmit_power", None),
    (env.SurrogateReward, "transmit_power", "env.transmit_power", None),
    (env, "sample_demands", "netmodel.sample_demands", None),
    (env, "state_and_transition_power", "netmodel.state_power", None),
)


@contextmanager
def patched(tracer: Tracer):
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, fn), (_, _, name, note) in zip(originals, TARGETS):
            setattr(owner, attr, tracer.wrap(name, fn, note))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def _us_percentiles(prefix, durations):
    """`<prefix>_us_p50` and `<prefix>_us_p99` of span durations in seconds."""
    p50, p99 = (np.percentile(durations * 1e6, [50, 99]) if len(durations)
                else (0.0, 0.0))
    return {f"{prefix}_us_p50": (float(p50), "us"),
            f"{prefix}_us_p99": (float(p99), "us")}


def layer_metrics(tracer: Tracer, wall_s: float, overhead_ratio: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from the spans of a traced
    phase that took `wall_s` and `overhead_ratio` times as long as the same
    work untraced."""
    spans, notes = tracer.spans, tracer.notes
    count = len(spans)
    parent = np.array([s[1] for s in spans], dtype=np.int64)
    dur = np.array([s[4] - s[3] for s in spans])
    names = np.array([s[2] for s in spans], dtype=object)
    layer = np.array([n.split(".")[0] for n in names], dtype=object)
    nested = parent >= 0
    children = np.zeros(count)
    np.add.at(children, parent[nested], dur[nested])
    self_s = dur - children
    # Span ids grow in start order, so a parent's flag is set before its
    # children's are read.
    in_step = np.zeros(count, dtype=bool)
    for i in range(count):
        in_step[i] = names[i] == "env.step" or (nested[i] and in_step[parent[i]])

    def ids(name):
        return np.flatnonzero(names == name)

    def busy(name):
        return float(dur[ids(name)].sum())

    solves = ids("beamform.solve")
    solved = [notes[i] for i in solves if "verdict" in notes.get(i, {})]
    iterations = [n["iterations"] for n in solved]
    verdicts = {v: sum(n["verdict"] == v for n in solved) for v in VERDICTS}
    predicts = ids("gbdt.predict")
    train_steps = ids("dqn.train_step")
    top_level_s = float(dur[~nested].sum())

    out = {
        "beamform.calls": (len(solves), "count"),
        "beamform.busy_s": (busy("beamform.solve"), "s"),
        **_us_percentiles("beamform.call", dur[solves]),
        "beamform.iterations_mean": (
            float(np.mean(iterations)) if iterations else 0.0, "count"),
        "beamform.iterations_max": (max(iterations, default=0), "count"),
    }
    out.update({f"beamform.verdict.{v}": (verdicts[v], "count") for v in VERDICTS})
    out["beamform.failures"] = (len(solves) - len(solved), "count")
    out["beamform.useful_ratio"] = (
        verdicts["feasible"] / len(solves) if len(solves) else 0.0, "ratio")
    for active in range(1, MAX_ACTIVE + 1):
        picked = [i for i in solves if notes.get(i, {}).get("active") == active]
        out[f"beamform.busy_s.active{active}"] = (float(dur[picked].sum()), "s")
    out.update({
        "gbdt.fit_calls": (len(ids("gbdt.fit")), "count"),
        "gbdt.fit_busy_s": (busy("gbdt.fit"), "s"),
        "gbdt.trees": (sum(notes[i]["trees"] for i in ids("gbdt.fit")
                           if "trees" in notes.get(i, {})), "count"),
        "gbdt.predict_calls": (len(predicts), "count"),
        "gbdt.predict_busy_s": (busy("gbdt.predict"), "s"),
        **_us_percentiles("gbdt.predict", dur[predicts]),
        "gbdt.predict_batch_rows": (
            sum(notes[i]["rows"] for i in ids("gbdt.predict_batch")
                if "rows" in notes.get(i, {})), "count"),
        "gbdt.predict_batch_busy_s": (busy("gbdt.predict_batch"), "s"),
        "dqn.train_step_calls": (len(train_steps), "count"),
        "dqn.train_step_busy_s": (busy("dqn.train_step"), "s"),
        **_us_percentiles("dqn.train_step", dur[train_steps]),
        "dqn.sample_busy_s": (busy("dqn.sample"), "s"),
        "dqn.push_busy_s": (busy("dqn.push"), "s"),
        "dqn.select_action_calls": (len(ids("dqn.select_action")), "count"),
        "dqn.select_action_busy_s": (busy("dqn.select_action"), "s"),
        "env.step_calls": (len(ids("env.step")), "count"),
        "env.step_busy_s": (busy("env.step"), "s"),
        "env.step_self_s": (float(self_s[in_step & (layer == "env")].sum()), "s"),
        "env.transmit_power_busy_s": (busy("env.transmit_power"), "s"),
        "netmodel.busy_s": (float(dur[layer == "netmodel"].sum()), "s"),
    })
    out.update({f"{name}.self_s": (float(self_s[layer == name].sum()), "s")
                for name in LAYERS})
    out.update({
        "pipeline.self_s": (wall_s - top_level_s, "s"),
        "pipeline.self_ratio": (
            (wall_s - top_level_s) / wall_s if wall_s else 0.0, "ratio"),
        "trace.wall_s": (wall_s, "s"),
        "trace.spans": (count, "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return out


def span_errors(tracer: Tracer, wall_s: float) -> list:
    """What is wrong with the nesting of the spans of a traced phase that
    took `wall_s`: a child that sticks out of its parent, siblings or
    top-level spans that overlap, or top-level spans that add up to more
    than the phase. Any of these would make a self time wrong."""
    spans = tracer.spans
    if not spans:
        return []
    parent = np.array([s[1] for s in spans], dtype=np.int64)
    start = np.array([s[3] for s in spans])
    end = np.array([s[4] for s in spans])
    errors = []
    nested = np.flatnonzero(parent >= 0)
    outside = nested[(start[nested] < start[parent[nested]])
                     | (end[nested] > end[parent[nested]])]
    if len(outside):
        errors.append(f"{len(outside)} spans lie outside their parent, "
                      f"the first {spans[outside[0]]}")
    order = np.lexsort((start, parent))
    same = parent[order[1:]] == parent[order[:-1]]
    overlap = order[1:][same & (start[order[1:]] < end[order[:-1]])]
    if len(overlap):
        errors.append(f"{len(overlap)} spans start before their previous "
                      f"sibling ends, the first {spans[overlap[0]]}")
    top_level_s = float((end - start)[parent < 0].sum())
    if top_level_s > wall_s:
        errors.append(f"top-level spans cover {top_level_s!r} s, more than the "
                      f"traced wall time {wall_s!r} s")
    return errors


def write_spans(tracer: Tracer, path, machine: dict, origin: float) -> Path:
    """Write the spans, with times in seconds from `origin`, as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "machine": machine,
        "columns": ["id", "parent", "name", "start_s", "end_s"],
        "spans": [[sid, parent, name, start - origin, end - origin]
                  for sid, parent, name, start, end in tracer.spans],
        "notes": {str(sid): note for sid, note in tracer.notes.items()},
    }
    with open(path, "w") as f:
        json.dump(record, f)
    return path
