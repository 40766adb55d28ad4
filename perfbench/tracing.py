"""Spans and op counts recorded from outside the program.

The tracer swaps the public functions of each ``spanqa`` module for thin
wrappers, everywhere a ``spanqa`` module holds a reference to them, and puts
the originals back afterwards; no program file changes. Layer functions
(loading, model stages, train step, decode, evaluation) become spans with
name, start, end, parent, unit and self time. Autodiff ops run millions of
times on the fixture workload, so they are not kept as individual spans:
each op call adds its count and self time to the enclosing span and to a
per-op total.

A span's self time is its duration minus the time of the wrapped calls
nested directly inside it.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

import spanqa.autodiff as autodiff

LAYERS = [
    ("data", "load_squad"), ("data", "load_glove"), ("data", "build_batches"),
    ("checkpoint", "load_checkpoint"),
    ("model", "forward"), ("model", "loss"), ("model", "embed"),
    ("model", "bilstm"), ("model", "bidaf_attention"),
    ("model", "start_decoder"), ("model", "end_decoder"),
    ("training", "train"), ("training", "train_step"),
    ("training", "clip_global_norm"), ("training", "predict_answers"),
    ("spans", "best_span"),
    ("metrics", "evaluate"),
]
OPS = [name for name in autodiff.__all__
       if name not in ("set_debug", "grad_check")
       and not isinstance(getattr(autodiff, name), type)]
REPORTED_OPS = ["matmul", "bmm", "slice_axis", "concat", "reshape", "mul", "add",
                "sigmoid", "tanh", "add_bias", "dropout", "masked_softmax",
                "expand_batch", "repeat_axis"]
UNIT_SPANS = ("training.train_step", "training.predict_answers")


def _rebind(old, new) -> None:
    """Point every reference a spanqa module holds to `old` at `new`."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "spanqa" and not module_name.startswith("spanqa."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _module(short: str):
    return sys.modules[f"spanqa.{short}"]


def _measure_backward(args):
    return {"tape_nodes": len(args[0])}


def _measure_checkpoint(args):
    return {"bytes": os.path.getsize(args[0])}


MEASURES = {"autodiff.Graph.backward": _measure_backward,
            "checkpoint.load_checkpoint": _measure_checkpoint}


class Tracer:
    """Collects spans across one or more `active(phase)` blocks."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_totals: dict[str, list] = {name: [0, 0.0] for name in OPS}
        self.units = 0
        self._phase = ""
        self._next_id = 0
        self._t0 = time.perf_counter()
        # Open calls: child seconds of every open wrapped call, and
        # (span id, op counts) of every open span. Floats and a plain stack
        # keep the per-op wrapper free of container allocations, which
        # would otherwise trigger garbage collections over the kept spans.
        self._child = [0.0]
        self._open = [(None, {})]

    @contextmanager
    def active(self, phase: str):
        """Install the wrappers for the duration of the block."""
        self._phase = phase
        swaps = []
        for short, attr in LAYERS:
            original = getattr(_module(short), attr)
            wrapper = self._span_wrapper(original, f"{short}.{attr}")
            _rebind(original, wrapper)
            swaps.append((original, wrapper))
        for name in OPS:
            original = getattr(autodiff, name)
            wrapper = self._op_wrapper(original, name)
            _rebind(original, wrapper)
            swaps.append((original, wrapper))
        backward = autodiff.Graph.backward
        autodiff.Graph.backward = self._span_wrapper(backward, "autodiff.Graph.backward")
        try:
            yield self
        finally:
            autodiff.Graph.backward = backward
            for original, wrapper in reversed(swaps):
                _rebind(wrapper, original)

    def _span_wrapper(self, fn, name):
        child, open_spans, spans = self._child, self._open, self.spans
        clock = time.perf_counter
        measure = MEASURES.get(name)
        starts_unit = name in UNIT_SPANS

        def wrapper(*args, **kwargs):
            parent = open_spans[-1][0]
            span_id = self._next_id
            self._next_id += 1
            if starts_unit:
                self.units += 1
            unit = f"{self._phase}/{self.units}"
            ops: dict[str, list] = {}
            open_spans.append((span_id, ops))
            child.append(0.0)
            counters = measure(args) if measure else {}
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                own = end - start - child.pop()
                child[-1] += end - start
                open_spans.pop()
                spans.append({"id": span_id, "name": name, "parent": parent,
                              "unit": unit, "start": start - self._t0,
                              "end": end - self._t0, "self": own, "ops": ops,
                              **counters})

        return wrapper

    def _op_wrapper(self, fn, name):
        child, open_spans = self._child, self._open
        total = self.op_totals[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - child.pop()
                child[-1] += duration
                total[0] += 1
                total[1] += own
                counts = open_spans[-1][1]
                entry = counts.get(name)
                if entry is None:
                    counts[name] = [1, own]
                else:
                    entry[0] += 1
                    entry[1] += own

        return wrapper

    # -- results ----------------------------------------------------------

    def _by_name(self) -> dict[str, list[dict]]:
        groups: dict[str, list[dict]] = {}
        for span in self.spans:
            groups.setdefault(span["name"], []).append(span)
        return groups

    def layer_metrics(self, overhead_pct: float) -> dict[str, tuple]:
        """Per-layer metrics over everything traced: name -> (value, unit).

        Times and counts are totals over the traced window, except
        `autodiff.tape_nodes`, the median tape length at each backward.
        """
        groups = self._by_name()
        names = {span["id"]: span["name"] for span in self.spans}

        def total(name, key=None):
            return sum((s["end"] - s["start"]) if key is None else s[key]
                       for s in groups.get(name, ()))

        encoder = sum(s["end"] - s["start"] for s in groups.get("model.bilstm", ())
                      if names.get(s["parent"]) == "model.forward")
        tapes = [s["tape_nodes"] for s in groups.get("autodiff.Graph.backward", ())]
        out = {
            "autodiff.backward_s": (total("autodiff.Graph.backward"), "s"),
            "autodiff.tape_nodes": (statistics.median(tapes) if tapes else 0, "count"),
            "autodiff.ops.total.calls": (sum(c for c, _ in self.op_totals.values()), "count"),
            "autodiff.ops.total.self_s": (sum(s for _, s in self.op_totals.values()), "s"),
        }
        for op in REPORTED_OPS:
            calls, own = self.op_totals[op]
            out[f"autodiff.ops.{op}.calls"] = (calls, "count")
            out[f"autodiff.ops.{op}.self_s"] = (own, "s")
        out.update({
            "model.embed_s": (total("model.embed"), "s"),
            "model.encoder_s": (encoder, "s"),
            "model.attention_s": (total("model.bidaf_attention"), "s"),
            "model.start_decoder_s": (total("model.start_decoder"), "s"),
            "model.end_decoder_s": (total("model.end_decoder"), "s"),
            "model.forward_s": (total("model.forward"), "s"),
            "model.loss_s": (total("model.loss"), "s"),
            "training.train_step_s": (total("training.train_step"), "s"),
            "training.step_self_s": (total("training.train_step", "self"), "s"),
            "training.clip_s": (total("training.clip_global_norm"), "s"),
            "spans.best_span_s": (total("spans.best_span"), "s"),
            "spans.calls": (len(groups.get("spans.best_span", ())), "count"),
            "metrics.evaluate_s": (total("metrics.evaluate"), "s"),
            "data.load_squad_s": (total("data.load_squad"), "s"),
            "data.load_glove_s": (total("data.load_glove"), "s"),
            "data.build_batches_s": (total("data.build_batches"), "s"),
            "checkpoint.load_s": (total("checkpoint.load_checkpoint"), "s"),
            "checkpoint.bytes": (total("checkpoint.load_checkpoint", "bytes"), "bytes"),
            "trace.overhead_pct": (overhead_pct, "%"),
        })
        return out

    def table(self, units: int) -> list[str]:
        """Per-layer summary: calls, total and self seconds, per-unit total."""
        lines = [f"{'span':<30} {'calls':>8} {'total_s':>10} {'self_s':>10} "
                 f"{'per_unit_s':>11}"]
        for name, group in sorted(self._by_name().items(),
                                  key=lambda kv: -sum(s["self"] for s in kv[1])):
            dur = sum(s["end"] - s["start"] for s in group)
            own = sum(s["self"] for s in group)
            lines.append(f"{name:<30} {len(group):>8} {dur:>10.4f} {own:>10.4f} "
                         f"{dur / max(units, 1):>11.5f}")
        lines.append(f"{'op':<30} {'calls':>8} {'self_s':>10} {'us/call':>10}")
        for name, (calls, own) in sorted(self.op_totals.items(),
                                         key=lambda kv: -kv[1][1]):
            if calls:
                lines.append(f"{name:<30} {calls:>8} {own:>10.4f} "
                             f"{1e6 * own / calls:>10.2f}")
        return lines

    def write(self, path, **header) -> None:
        payload = dict(header)
        payload["spans"] = sorted(self.spans, key=lambda s: s["start"])
        payload["op_totals"] = {k: {"calls": c, "self_s": s}
                                for k, (c, s) in self.op_totals.items() if c}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
