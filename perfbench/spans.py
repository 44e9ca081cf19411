"""Span tracing of the program's modules from outside its source tree.

The tracer replaces a function at every ``sdae_ivs`` module attribute that
is bound to it, which is where callers look it up (``from .numerics import
sigmoid`` in dae.py binds ``sdae_ivs.dae.sigmoid``). Each call becomes a
span: name, parent span, start and end. Spans stay in flat arrays in memory
and are written out once, when the process ends. A few spans also carry a
count taken from the call's arguments or result (epochs run, bytes written).

The analysis half turns the span files of one ``run`` and its ``eval`` into
per-module metrics. A layer's self time is its span's duration minus the
time its direct child spans cover.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) pairs wrapped by the traced run. Private runner
# writers are included because together they are the export phase.
TRACED = (
    ("config", "load_config"),
    ("runner", "load_splits"),
    ("runner", "_write_report"),
    ("runner", "_write_ivs_artifacts"),
    ("runner", "_write_reconstruction"),
    ("runner", "_write_patterns"),
    ("data", "compact_dataset"),
    ("numerics", "sigmoid"),
    ("mlr", "train_mlr"),
    ("mlr", "evaluate"),
    ("ivs", "run_ivs"),
    ("ivs", "task_importance"),
    ("dae", "train_dae"),
    ("dae", "loss"),
    ("dae", "encode_dataset"),
    ("stack", "pretrain"),
    ("stack", "fine_tune"),
    ("stack", "predict_labels"),
    ("stack", "select_extractors"),
    ("serialize", "save_stack"),
    ("serialize", "load_stack"),
    ("pgm", "write_pgm"),
)

EXPORT_WRITERS = ("runner._write_report", "runner._write_ivs_artifacts",
                  "runner._write_reconstruction", "runner._write_patterns")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, list] = {}
        self._open = [-1]

    def wrap(self, label: str, fn, count=None):
        """Traced stand-in for fn. count(args, kwargs, result) returns
        (result for the caller, count to keep with the span)."""
        ident = len(self.names)
        self.names.append(label)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_spans, counts, clock = self._open, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(ident)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
            if count is not None:
                result, counts[idx] = count(args, kwargs, result)
            return result

        return traced

    def save(self, path: Path) -> None:
        np.savez(path,
                 names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 counts=np.array(json.dumps(self.counts)))


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _counters(originals: dict):
    """Per-function count hooks, keyed by label."""

    def load_splits(args, kwargs, result):
        cfg = _bound(originals["runner.load_splits"], args, kwargs)["cfg"]
        files = (cfg.amat_train, cfg.amat_valid, cfg.amat_test) \
            if cfg.source == "amat" else ()
        return result, sum(os.path.getsize(f) for f in files if f is not None)

    def train_mlr(args, kwargs, result):
        model, history = result
        errors = [err for _, err in history]
        kept = errors.index(min(errors))  # ties keep the earlier epoch
        return model, [len(history) - 1, kept]

    def run_ivs(args, kwargs, result):
        m = result.mask.m
        widths = [m] + [item.kept for item in result.history[:-1]]
        return result, [len(result.history), sum(widths), m * len(widths)]

    def train_dae(args, kwargs, result):
        bound = _bound(originals["dae.train_dae"], args, kwargs)
        return result, bound["cfg"].epochs * bound["train"].n

    def fine_tune(args, kwargs, result):
        return result, _bound(originals["stack.fine_tune"], args, kwargs)["train"].n

    def save_stack(args, kwargs, result):
        path = _bound(originals["serialize.save_stack"], args, kwargs)["path"]
        return result, os.path.getsize(path)

    return {"runner.load_splits": load_splits, "mlr.train_mlr": train_mlr,
            "ivs.run_ivs": run_ivs, "dae.train_dae": train_dae,
            "stack.fine_tune": fine_tune, "serialize.save_stack": save_stack}


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function at each sdae_ivs attribute bound to it."""
    import sdae_ivs.cli  # noqa: F401 - imports every module of the program

    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "sdae_ivs" or name.startswith("sdae_ivs.")]
    originals = {f"{mod}.{attr}": getattr(sys.modules[f"sdae_ivs.{mod}"], attr)
                 for mod, attr in TRACED}
    counters = _counters(originals)
    for label, fn in originals.items():
        call = fn
        if label == "mlr.train_mlr":
            # The trainer builds its curve either way; ask for it to count
            # epochs, and hand callers the model alone as they expect.
            def call(*args, _fn=fn, **kwargs):
                return _fn(*args, return_history=True, **kwargs)
        traced = tracer.wrap(label, call, counters.get(label))
        attr = label.split(".", 1)[1]
        for mod in modules:
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, traced)


# ---------------------------------------------------------------- analysis

class SpanTable:
    """One process's spans with self times."""

    def __init__(self, path: Path):
        with np.load(path) as z:
            self.names = [str(n) for n in z["names"]]
            self.name_id = z["name_id"]
            self.parent = z["parent"]
            duration = z["end"] - z["start"]
            counts = json.loads(str(z["counts"]))
        self.counts = {int(k): v for k, v in counts.items()}
        self.duration = duration
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent],
                              weights=duration[has_parent],
                              minlength=len(duration))
        self.self_time = duration - covered

    def ids(self, label: str) -> np.ndarray:
        if label not in self.names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.name_id == self.names.index(label))

    def self_s(self, *labels: str) -> float:
        return float(sum(self.self_time[self.ids(lb)].sum() for lb in labels))

    def total_s(self, label: str) -> float:
        return float(self.duration[self.ids(label)].sum())

    def calls(self, label: str) -> int:
        return int(self.ids(label).size)

    def children(self, idx: int, label: str) -> np.ndarray:
        ids = self.ids(label)
        return ids[self.parent[ids] == idx]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def module_metrics(tables: list[SpanTable]) -> dict[str, float]:
    """Per-module metrics summed over the given processes (a run and its
    eval). Every _s metric is self time; rates and per-step costs divide
    inclusive time by the exact work counts the spans carry."""

    def self_s(*labels):
        return sum(t.self_s(*labels) for t in tables)

    def total_s(label):
        return sum(t.total_s(label) for t in tables)

    def calls(label):
        return sum(t.calls(label) for t in tables)

    def counts(label):
        return [t.counts[int(i)] for t in tables for i in t.ids(label)]

    load_bytes = sum(counts("runner.load_splits"))
    mlr = counts("mlr.train_mlr")
    mlr_epochs = sum(run for run, _ in mlr)
    ivs = counts("ivs.run_ivs")
    ivs_iterations = sum(c[0] for c in ivs)
    dae_steps = sum(counts("dae.train_dae"))

    # Fine-tune evaluates the validation split once before its first epoch
    # and once after each epoch, so epochs = child predict_labels spans - 1.
    ft_steps = 0
    for t in tables:
        for idx in t.ids("stack.fine_tune"):
            epochs = t.children(idx, "stack.predict_labels").size - 1
            ft_steps += epochs * t.counts[int(idx)]

    # Layer k of a stack is the k-th train_dae call under one pretrain span.
    layer_time = [0.0, 0.0, 0.0]
    layer_steps = [0, 0, 0]
    for t in tables:
        for idx in t.ids("stack.pretrain"):
            for layer, child in enumerate(t.children(idx, "dae.train_dae")):
                layer_time[layer] += float(t.duration[child])
                layer_steps[layer] += t.counts[int(child)]

    out = {
        "config.load_config_s": self_s("config.load_config"),
        "data.load_splits_s": self_s("runner.load_splits"),
        "data.load_mb_per_s": _ratio(load_bytes / 1e6, self_s("runner.load_splits")),
        "data.compact_dataset_s": self_s("data.compact_dataset"),
        "numerics.sigmoid_s": self_s("numerics.sigmoid"),
        "numerics.sigmoid_calls": calls("numerics.sigmoid"),
        "mlr.train_mlr_s": self_s("mlr.train_mlr"),
        "mlr.train_mlr_calls": calls("mlr.train_mlr"),
        "mlr.epochs": mlr_epochs,
        "mlr.epoch_ms": 1e3 * _ratio(total_s("mlr.train_mlr"), mlr_epochs),
        "mlr.wasted_epoch_frac": _ratio(sum(run - kept for run, kept in mlr),
                                        mlr_epochs),
        "mlr.evaluate_s": self_s("mlr.evaluate"),
        "ivs.run_ivs_s": self_s("ivs.run_ivs"),
        "ivs.iterations": ivs_iterations,
        "ivs.iter_ms": 1e3 * _ratio(total_s("ivs.run_ivs"), ivs_iterations),
        "ivs.kept_frac": _ratio(sum(c[1] for c in ivs), sum(c[2] for c in ivs)),
        "ivs.task_importance_s": self_s("ivs.task_importance"),
        "dae.train_dae_s": self_s("dae.train_dae"),
        "dae.step_us": 1e6 * _ratio(total_s("dae.train_dae"), dae_steps),
    }
    for layer in range(3):
        out[f"dae.layer{layer + 1}_step_us"] = \
            1e6 * _ratio(layer_time[layer], layer_steps[layer])
    out.update({
        "dae.loss_s": self_s("dae.loss"),
        "dae.loss_calls": calls("dae.loss"),
        "dae.encode_dataset_s": self_s("dae.encode_dataset"),
        "stack.pretrain_s": self_s("stack.pretrain"),
        "stack.fine_tune_s": self_s("stack.fine_tune"),
        "stack.fine_tune_steps": ft_steps,
        "stack.fine_tune_step_us": 1e6 * _ratio(total_s("stack.fine_tune"), ft_steps),
        "stack.predict_labels_s": self_s("stack.predict_labels"),
        "stack.select_extractors_s": self_s("stack.select_extractors"),
        "serialize.save_stack_s": self_s("serialize.save_stack"),
        "serialize.load_stack_s": self_s("serialize.load_stack"),
        "serialize.bytes_written": sum(counts("serialize.save_stack")),
        "pgm.write_pgm_s": self_s("pgm.write_pgm"),
        "runner.export_s": self_s(*EXPORT_WRITERS),
    })
    return out
