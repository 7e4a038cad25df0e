"""In-memory span tracer that patches hcnet's public functions from outside.

A span is (name, start, end, parent). Spans are kept in flat lists while
the traced pass runs and written out once at the end. A span's self time
is its duration minus the durations of its direct children, so the self
times of all spans under the root add up to the root's duration.

Each traced function is replaced under every name a caller can look it up
by: every attribute of every loaded `hcnet` module that holds the original
function object (so both `hcnet.autodiff.mul`, reached as `ad.mul`, and
`hcnet.evalrank.hcnet_forward_batch`, bound by `from .nn import ...`, are
covered), plus the `suites.ALL_SUITES` tuple that `run_all` iterates. Every
patch is undone when the tracer exits. Nothing under `src/` is edited.

Autodiff ops get two spans: `autodiff.<op>.fwd` around the op call, and
`autodiff.<op>.bwd` around each vector-Jacobian closure the returned Var
carries, which `backward` later calls. Work the tracer does for itself
(wrapping closures, walking tapes) runs inside `bench.tracer` spans, so it
is not charged to a program layer.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

# Autodiff ops timed forward and backward.
AUTODIFF_OPS = (
    "gather_nodes", "index_add", "index_add_2d", "take_rows", "gather_2d", "mul", "add",
    "sub", "matmul_last", "concat_last", "layer_norm", "relu", "softplus", "sum_all",
    "reshape", "broadcast_middle",
)
# Autodiff ops whose bytes moved are computed (forward and backward).
MOVED_OPS = ("gather_nodes", "index_add", "take_rows")

# Suites the theorem-suite workload runs, one span metric each.
SUITES = ("refinement", "matching", "pairwise", "compiler", "equivariance")

# (span name, module, attribute) for every plain function span. Several
# attributes may share one span name: randgen's generators form one layer.
FUNCTION_SPANS = (
    ("hypergraph.load_dataset", "hcnet.hypergraph", "load_dataset"),
    ("hypergraph.build_graph", "hcnet.hypergraph", "build_graph"),
    ("train.fit", "hcnet.train", "fit"),
    ("train.corrupt", "hcnet.train", "corrupt"),
    ("train.mask_positives", "hcnet.train", "mask_positives"),
    ("train.adversarial_loss_from_logits", "hcnet.train", "adversarial_loss_from_logits"),
    ("train.adam_step", "hcnet.train", "adam_step"),
    ("train.save_checkpoint", "hcnet.train", "save_checkpoint"),
    ("train.load_checkpoint", "hcnet.train", "load_checkpoint"),
    ("nn.init_params", "hcnet.nn", "init_params"),
    ("nn.edges_by_relation", "hcnet.nn", "edges_by_relation"),
    ("nn.hcnet_forward_batch", "hcnet.nn", "hcnet_forward_batch"),
    ("nn.hrnet_forward_batch", "hcnet.nn", "hrnet_forward_batch"),
    ("nn.decode_unary_batch", "hcnet.nn", "decode_unary_batch"),
    ("nn.decode_kary_batch", "hcnet.nn", "decode_kary_batch"),
    ("nn.forward_exact", "hcnet.nn", "forward_exact"),
    ("nn.feature_partition", "hcnet.nn", "feature_partition"),
    ("autodiff.backward", "hcnet.autodiff", "backward"),
    ("evalrank.evaluate_model", "hcnet.evalrank", "evaluate_model"),
    ("evalrank.filtered_candidates", "hcnet.evalrank", "filtered_candidates"),
    ("evalrank.rank_of", "hcnet.evalrank", "rank_of"),
    ("evalrank.aggregate", "hcnet.evalrank", "aggregate"),
    ("synth.hypercycle", "hcnet.synth", "hypercycle"),
    ("synth.run_expressiveness_experiment", "hcnet.synth", "run_expressiveness_experiment"),
    ("refine.hrwl1_run", "hcnet.refine", "hrwl1_run"),
    ("refine.conditional_run", "hcnet.refine", "conditional_run"),
    ("refine.hcwl2_run", "hcnet.refine", "hcwl2_run"),
    ("refine.rawl2plus_run", "hcnet.refine", "rawl2plus_run"),
    ("refine.refines", "hcnet.refine", "refines"),
    ("logic.compile_hgml_r", "hcnet.logic", "compile_hgml_r"),
    ("logic.run_compiled", "hcnet.logic", "run_compiled"),
    ("logic.eval_formula", "hcnet.logic", "eval_formula"),
    ("randgen.generate", "hcnet.randgen", "random_hypergraph"),
    ("randgen.generate", "hcnet.randgen", "random_knowledge_graph"),
    ("randgen.generate", "hcnet.randgen", "random_query"),
    ("randgen.generate", "hcnet.randgen", "random_hgml_r"),
)

# Spans whose self time is reported under a `_self_s` name: they enclose
# most of their workload, so their total time says nothing on its own.
SELF_NAMED = ("train.fit", "evalrank.evaluate_model", "synth.run_expressiveness_experiment")

BENCH_METRICS = (
    "bench.traced_wall_s", "bench.untraced_wall_s", "bench.trace_overhead_s",
    "bench.root_self_s", "bench.tracer_s",
)


def per_layer_metrics() -> list[tuple[str, str, str, str]]:
    """(metric name, unit, source, key) of every per-layer metric, in report
    order. Sources: "self" is the summed self time of spans named key,
    "calls" their count, "counter" a tracer counter, and "bench" a figure
    `run.py` fills in."""
    out: list[tuple[str, str, str, str]] = []
    seen: set[str] = set()
    for span, _, _ in FUNCTION_SPANS:
        if span in seen:
            continue
        seen.add(span)
        out.append((span + ("_self_s" if span in SELF_NAMED else "_s"), "s", "self", span))
        if span == "hypergraph.build_graph":
            out += [("hypergraph.fact_set_s", "s", "self", "hypergraph.fact_set"),
                    ("hypergraph.fact_set.calls", "count", "calls", "hypergraph.fact_set")]
        elif span in ("train.corrupt", "logic.eval_formula"):
            out.append((span + ".calls", "count", "calls", span))
        elif span == "nn.feature_partition":
            out += [("nn.tape_vars", "count", "counter", "nn.tape_vars"),
                    ("nn.tape_mb", "MB", "counter", "nn.tape_mb")]
        elif span == "evalrank.filtered_candidates":
            out.append(("evalrank.candidates", "count", "counter", "evalrank.candidates"))
    for op in AUTODIFF_OPS:
        out += [(f"autodiff.{op}.fwd_s", "s", "self", f"autodiff.{op}.fwd"),
                (f"autodiff.{op}.bwd_s", "s", "self", f"autodiff.{op}.bwd"),
                (f"autodiff.{op}.calls", "count", "calls", f"autodiff.{op}.fwd")]
    out += [(f"autodiff.{op}.mb", "MB", "counter", f"autodiff.{op}.mb") for op in MOVED_OPS]
    out += [(f"suites.{s}_s", "s", "self", f"suites.{s}") for s in SUITES]
    out += [(m, "s", "bench", m) for m in BENCH_METRICS]
    return out


def _root_nbytes(arrays, seen: dict[int, int]) -> None:
    """Record each array's underlying buffer once (views share a base)."""
    for a in arrays:
        if a is None:
            continue
        while isinstance(a.base, np.ndarray):
            a = a.base
        seen[id(a)] = a.nbytes


def _moved_bytes(op: str, args: tuple, out) -> tuple[int, dict[int, int]]:
    """(forward bytes, {parent index: backward bytes}) for one op call.

    Counts each array read or written once; a scatter-add reads and writes
    its targets. gather_nodes(h, idx): forward reads the gathered rows and
    writes them; backward zero-fills an h-sized array and scatter-adds g.
    take_rows is the same on a 2-D table. index_add(base, idx, vals): forward
    copies base and scatter-adds vals; backward passes g through to base and
    gathers g at idx for vals."""
    out_b = out.value.nbytes
    if op == "index_add":
        base, vals = args[1].value, args[3].value
        return 2 * base.nbytes + 3 * vals.nbytes + args[2].nbytes, {1: 2 * vals.nbytes}
    src = args[1].value
    return 2 * out_b + args[2].nbytes, {0: src.nbytes + 3 * out_b}


class Tracer:
    """Records spans and counters while active; patches on enter, restores
    on exit."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self.ids.get(name)
        if i is None:
            i = self.ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """A span around a block; yields the span's index."""
        idx = self.open(self._id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    # --- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hcnet" or mod_name.startswith("hcnet.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        tracer, sid = self, self._id(name)
        tool = self._id("bench.tracer")

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack[-1] >= 0 and tracer.span_name[stack[-1]] == sid:
                return fn(*args, **kwargs)  # a recursive call stays in its caller's span
            idx = tracer.open(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                t = tracer.open(tool)
                try:
                    after(args, kwargs, out)
                finally:
                    tracer.close(t)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_op(self, op: str, fn: Callable) -> Callable:
        tracer = self
        bwd = self._id(f"autodiff.{op}.bwd")
        mb_key = f"autodiff.{op}.mb" if op in MOVED_OPS else None

        def timed_vjp(vjp: Callable, nbytes: int) -> Callable:
            def run(g):
                idx = tracer.open(bwd)
                try:
                    return vjp(g)
                finally:
                    tracer.close(idx)
                    if nbytes:
                        tracer.counters[mb_key] += nbytes / 1e6

            return run

        def after(args, kwargs, out) -> None:
            bwd_bytes: dict[int, int] = {}
            if mb_key is not None:
                fwd_bytes, bwd_bytes = _moved_bytes(op, args, out)
                tracer.counters[mb_key] += fwd_bytes / 1e6
            out.parents = tuple(
                (parent, timed_vjp(vjp, bwd_bytes.get(j, 0)))
                for j, (parent, vjp) in enumerate(out.parents)
            )

        return self._wrap(f"autodiff.{op}.fwd", fn, after)

    def _tape_stats(self, tape) -> None:
        seen: dict[int, int] = {}
        for v in tape.vars:
            _root_nbytes((v.value, v.grad), seen)
        self.counters["nn.tape_vars"] = max(self.counters["nn.tape_vars"], len(tape.vars))
        self.counters["nn.tape_mb"] = max(self.counters["nn.tape_mb"], sum(seen.values()) / 1e6)

    def __enter__(self) -> "Tracer":
        import hcnet.autodiff as ad
        import hcnet.hypergraph as hg
        import hcnet.suites as suites

        def count_candidates(args, kwargs, out) -> None:
            self.counters["evalrank.candidates"] += len(out)

        hooks: dict[str, Callable] = {
            "nn.hcnet_forward_batch": lambda a, k, out: self._tape_stats(out.tape),
            "nn.hrnet_forward_batch": lambda a, k, out: self._tape_stats(out.tape),
            "nn.decode_unary_batch": lambda a, k, out: self._tape_stats(a[0].tape),
            "nn.decode_kary_batch": lambda a, k, out: self._tape_stats(a[0].tape),
            "autodiff.backward": lambda a, k, out: self._tape_stats(a[0]),
            "evalrank.filtered_candidates": count_candidates,
        }
        for name, mod_name, attr in FUNCTION_SPANS:
            original = getattr(importlib.import_module(mod_name), attr)
            self._replace_everywhere(original, self._wrap(name, original, hooks.get(name)))
        for op in AUTODIFF_OPS:
            original = getattr(ad, op)
            self._replace_everywhere(original, self._wrap_op(op, original))

        cls = hg.RelationalHypergraph
        self._undo.append((cls, "fact_set", cls.__dict__["fact_set"]))
        cls.fact_set = self._wrap("hypergraph.fact_set", cls.__dict__["fact_set"])

        wrapped_suites = tuple(
            self._wrap(f"suites.{s.__name__.removesuffix('_suite')}", s) for s in suites.ALL_SUITES
        )
        self._undo.append((suites, "ALL_SUITES", suites.ALL_SUITES))
        suites.ALL_SUITES = wrapped_suites
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    # --- results -----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(per-span name id, duration, self time) as arrays."""
        names = np.asarray(self.span_name, dtype=np.intp)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        parents = np.asarray(self.span_parent, dtype=np.intp)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return names, dur, dur - child

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {calls, total_s, self_s}} over every recorded span."""
        names, dur, self_t = self.self_times()
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_t, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the "bench" ones, 0 where the
        workload never reached that layer."""
        spans = self.summary()
        out: dict[str, float] = {}
        for metric, _, source, key in per_layer_metrics():
            if source == "self":
                out[metric] = spans.get(key, {}).get("self_s", 0.0)
            elif source == "calls":
                out[metric] = float(spans.get(key, {}).get("calls", 0))
            elif source == "counter":
                out[metric] = float(self.counters.get(key, 0.0))
        return out

    def write(self, stem: str, extra: dict) -> None:
        """Write every span to `<stem>.npz` and the per-name summary, with
        `extra`, to `<stem>.json`."""
        np.savez(
            stem + ".npz",
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int32),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
        )
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({**extra, "summary": self.summary()}, fh, indent=1, sort_keys=True)

