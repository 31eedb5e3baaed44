"""Traced in-process run of the fedfraud CLI, and the per-layer metrics
computed from its spans.

Usage: PYTHONPATH=src python3 perfbench/traced.py SPANS_JSON CLI_ARG...

Wraps the public functions of each fedfraud module with span recorders,
then calls fedfraud.cli.main(argv) in this process. Each name is patched
where its caller looks it up: `federated` binds `aggregate` and
`sgd_epoch` by `from ... import`, so those are patched on `federated`
too, and `experiments` reaches `models.mlp_forward` through a proxy of
the `models` module so that the per-batch calls inside `models` stay
unwrapped. Per-batch functions are never wrapped; SGD step counts come
from the arguments of `sgd_epoch`.

Spans (id, name, start, end, parent, attributes) are kept in memory and
written to SPANS_JSON when the run ends, together with every patch target
that no longer exists. The file is written even when the run fails.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
import types


class Recorder:
    """Span recorder. Parents come from a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1] if stack else None}
            self.spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result
        return traced


def _sgd_steps(args, kwargs, result):
    ds, hp = args[1], args[2]
    return {"steps": math.ceil(ds.n_samples / hp.batch_size)}


def _aggregate_bytes(args, kwargs, result):
    return {"bytes_in": sum(8 * len(vec) for vec, _ in args[0])}


def _load_rows(args, kwargs, result):
    return {"rows": result.n_samples}


def _shard_skew(args, kwargs, result):
    sizes = [shard.data.n_samples for shard in result]
    return {"max_over_mean": max(sizes) / (sum(sizes) / len(sizes))}


def install(rec: Recorder) -> list[str]:
    """Patch every traced name; returns the targets that no longer exist."""
    from fedfraud import data, experiments, federated, kernels, metrics, models

    missing = []

    def patch(owner, attr, name, attrs=None, source=None):
        fn = getattr(source or owner, attr, None)
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, rec.wrap(name, fn, attrs))

    for attr in ("run_benchmark", "run_sweep", "run_fed_vs_central"):
        patch(experiments, attr, "experiments.run")
    patch(experiments, "train_model", "experiments.train_model")
    patch(experiments, "prepare_splits", "data.prepare_splits")
    for attr in ("_write_common", "write_rows_csv", "write_report_txt",
                 "write_rounds_csv"):
        patch(experiments, attr, "experiments.write_reports")

    # experiments reaches models through the module name `models`; give it
    # a proxy whose mlp_forward is traced, leaving models' own calls alone.
    proxy = types.ModuleType(models.__name__, models.__doc__)
    proxy.__dict__.update(vars(models))
    patch(proxy, "mlp_forward", "models.predict")
    patch(proxy, "save_checkpoint", "experiments.write_reports")
    experiments.models = proxy

    patch(data, "load_csv", "data.load_csv", _load_rows)
    patch(data, "make_synthetic", "data.make_synthetic")
    patch(data, "partition", "data.partition", _shard_skew)

    patch(models, "sgd_epoch", "models.sgd_epoch", _sgd_steps)
    patch(federated, "sgd_epoch", "models.sgd_epoch", _sgd_steps)
    # LogisticRegression inherits fit; give it its own traced copy first.
    patch(models.LogisticRegression, "fit", "models.lr_fit",
          source=models.MlpClassifier)
    patch(models.MlpClassifier, "fit", "models.mlp_fit")
    patch(models.DecisionTree, "fit", "models.dt_fit")
    patch(models.MlpClassifier, "predict_proba", "models.predict")
    patch(models.DecisionTree, "predict_proba", "models.predict")
    patch(kernels, "best_split", "kernels.best_split")

    patch(federated, "run_training", "federated.run_training")
    patch(federated, "run_round", "federated.run_round")
    patch(federated, "local_update", "federated.local_update")
    patch(federated, "aggregate", "aggregation.aggregate", _aggregate_bytes)
    patch(metrics, "summarize", "metrics.summarize")
    return missing


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    rec = Recorder()
    missing = install(rec)
    from fedfraud import cli

    try:
        return rec.wrap("cli.main", cli.main)(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"missing": missing, "spans": rec.spans}, fh)


# --- per-layer metrics ------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail(values):
    """(percentile, value, samples beyond it) for the highest percentile in
    TAIL_PERCENTILES with at least ten samples beyond it; None if there is
    none. Nearest-rank percentiles."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(n * pct / 100.0)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


class SpanIndex:
    def __init__(self, spans):
        self.by_id = {s["id"]: s for s in spans}
        self.by_name: dict[str, list[dict]] = {}
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            s["dur"] = s["end"] - s["start"]
            self.by_name.setdefault(s["name"], []).append(s)
            self.children.setdefault(s["parent"], []).append(s)

    def outer(self, name):
        """Spans of `name` not nested in a span of the same name."""
        return [s for s in self.by_name.get(name, [])
                if s["parent"] is None or self.by_id[s["parent"]]["name"] != name]

    def total(self, name):
        return sum(s["dur"] for s in self.outer(name))

    def count(self, name):
        return len(self.outer(name))

    def self_time(self, name, only=None):
        """Duration of `name` minus its direct children (all of them, or
        only those whose name is in `only`)."""
        out = 0.0
        for s in self.outer(name):
            kids = self.children.get(s["id"], [])
            out += s["dur"] - sum(k["dur"] for k in kids
                                  if only is None or k["name"] in only)
        return out


# Spans whose total time is reported as <span>_s, and those whose call
# count is reported too, under the given metric name.
TIMED_SPANS = ("data.load_csv", "data.make_synthetic", "data.prepare_splits",
               "data.partition", "models.lr_fit", "models.dt_fit",
               "models.mlp_fit", "models.predict", "models.sgd_epoch",
               "kernels.best_split", "federated.run_training",
               "aggregation.aggregate", "metrics.summarize",
               "experiments.write_reports")
COUNTED_SPANS = {"data.prepare_splits": "data.prepare_splits_calls",
                 "kernels.best_split": "kernels.best_split_calls",
                 "aggregation.aggregate": "aggregation.calls",
                 "metrics.summarize": "metrics.summarize_calls"}


def layer_metrics(spans):
    """Per-layer metrics from the spans of one traced run.

    Returns (metrics, notes): metrics maps name -> (value, unit) and holds
    only metrics whose spans recorded calls; notes says what a tail metric
    rests on, or why it is absent.
    """
    ix = SpanIndex(spans)
    out: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}

    for span in TIMED_SPANS:
        if ix.count(span):
            out[f"{span}_s"] = (ix.total(span), "s")
    for span, metric in COUNTED_SPANS.items():
        if ix.count(span):
            out[metric] = (ix.count(span), "count")

    def attr_sum(span, key):
        return sum(s[key] for s in ix.outer(span))

    if ix.count("data.load_csv"):
        out["data.load_csv_rows_per_s"] = (
            attr_sum("data.load_csv", "rows") / out["data.load_csv_s"][0], "1/s")
    if ix.count("data.partition"):
        out["data.shard_rows_max_over_mean"] = (
            max(s["max_over_mean"] for s in ix.outer("data.partition")), "ratio")
    if ix.count("models.sgd_epoch"):
        steps = attr_sum("models.sgd_epoch", "steps")
        out["models.sgd_steps"] = (steps, "count")
        out["models.sgd_step_us"] = (out["models.sgd_epoch_s"][0] / steps * 1e6, "us")
    if ix.count("aggregation.aggregate"):
        out["aggregation.bytes_in"] = (attr_sum("aggregation.aggregate", "bytes_in"), "B")

    rounds = ix.outer("federated.run_round")
    if rounds:
        durs = [s["dur"] for s in rounds]
        out["federated.round_p50_s"] = (statistics.median(durs), "s")
        _tail_metric(out, notes, "federated.round_tail", durs, "rounds")
        # The slowest client of each round bounds any parallel client scheme.
        out["federated.round_critical_path_s"] = (sum(
            max((k["dur"] for k in ix.children.get(s["id"], [])
                 if k["name"] == "federated.local_update"), default=0.0)
            for s in rounds), "s")
        out["federated.round_self_s"] = (ix.self_time(
            "federated.run_round",
            only={"federated.local_update", "aggregation.aggregate"}), "s")
    updates = [s["dur"] for s in ix.outer("federated.local_update")]
    if updates:
        out["federated.local_updates"] = (len(updates), "count")
        out["federated.local_update_p50_s"] = (statistics.median(updates), "s")
        _tail_metric(out, notes, "federated.local_update_tail", updates,
                     "local updates")

    cells = [s["dur"] for s in ix.outer("experiments.train_model")]
    if cells:
        out["experiments.train_model_p50_s"] = (statistics.median(cells), "s")
        out["experiments.cells"] = (len(cells), "count")
    if ix.count("experiments.run"):
        out["experiments.self_s"] = (ix.self_time("experiments.run"), "s")
    if ix.count("cli.main"):
        out["cli.self_s"] = (ix.self_time("cli.main"), "s")
    return out, notes


def _tail_metric(out, notes, prefix, durs, what):
    found = tail(durs)
    if found is None:
        notes[f"{prefix}_s"] = notes[f"{prefix}_pctl"] = (
            f"{len(durs)} {what}; a tail needs at least 11")
        return
    pct, value, beyond = found
    out[f"{prefix}_s"] = (value, "s")
    out[f"{prefix}_pctl"] = (pct, "%")
    notes[f"{prefix}_s"] = f"p{pct:g} of {len(durs)} {what}, {beyond} beyond it"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
