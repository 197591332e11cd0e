"""Span tracing for the benchmark's traced runs.

``Tracer.install`` rebinds each traced function of the package, both on the
module that defines it and on every package module that imported it by name
(``cli.evaluate_kernel``, ``mixture.log_q_integer``, ...), so calls made
through either name open a span.  A span records its name, start, end,
parent span, op index and thread.  Calls made from CLI worker threads, whose
own span stack is empty, attach to the root span of the op that is running.
Spans stay in memory until ``write`` at the end of the run.

Only the benchmark's files do this; the package itself has no tracing.
"""

from __future__ import annotations

import functools
import sys
import threading
import tracemalloc
from collections import defaultdict
from itertools import count
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "ginibre_overcrowding"
ROOT = "cli.op"

# layer -> (defining module, traced functions)
TRACED = {
    "gamma": ("gamma", ("log_q_integer", "log_gamma_lower", "log_q")),
    "partitions": ("partitions", ("partition_series",)),
    "mixture": (
        "mixture",
        (
            "bernoulli_weights",
            "overcrowding_probability_exact",
            "overcrowding_probability_asymptotic",
            "log_hole_factor",
            "log_hole_factor_rescaled",
            "sample_conditioned_indexset",
        ),
    ),
    "kernels": ("kernels", ("evaluate_kernel",)),
    "sampler": ("sampler", ("sample_conditioned_ensemble", "sample_radii_outer")),
    "validation": ("validation", ("enumerate_count_log_probs",)),
}
# called once per series term: counted, not spanned
COUNTED = ("partitions", "partition_count")

# span tuple fields
SID, NAME, START, END, PARENT, OP, THREAD, ERROR = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.series_terms = 0
        self.dp_peaks: list[int] = []
        self._ids = count(1)
        self._local = threading.local()
        self._op: "tuple[int, int, float] | None" = None
        self._restore: list[tuple] = []
        # memory tracing inside overcrowding_probability_exact, paused in its weights child
        self._mem_held = 0
        self._mem_peak = 0

    # -------------------------------------------------------------- ops

    def begin_op(self, index: int) -> None:
        self._op = (index, next(self._ids), perf_counter())

    def end_op(self) -> None:
        index, sid, start = self._op
        self.spans.append((sid, ROOT, start, perf_counter(), 0, index, threading.get_ident(), ""))
        self._op = None

    # -------------------------------------------------------------- binding

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith(PACKAGE + ".")]
        for module_name, names in TRACED.values():
            for name in names:
                self._rebind(modules, module_name, name, self._span_wrapper)
        self._rebind(modules, *COUNTED, self._term_counter)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _rebind(self, modules, module_name: str, name: str, make) -> None:
        original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], name)
        wrapper = make(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _span_wrapper(self, name: str, fn):
        tracer = self
        get_ident = threading.get_ident
        memory_root = name == "overcrowding_probability_exact"
        weights = name == "bernoulli_weights"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1][0] if stack else op[1]
            sid = next(tracer._ids)
            stack.append((sid, name))
            error = ""
            pause = weights and tracemalloc.is_tracing()
            if memory_root:
                tracer._mem_held = tracer._mem_peak = 0
                tracemalloc.start()
            elif pause:
                tracer._pause_memory()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                if memory_root:
                    tracer.dp_peaks.append(tracer._stop_memory())
                elif pause:
                    tracemalloc.start()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, op[0], get_ident(), error))

        return traced

    def _pause_memory(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        self._mem_peak = max(self._mem_peak, self._mem_held + peak)
        self._mem_held += current
        tracemalloc.stop()

    def _stop_memory(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return max(self._mem_peak, self._mem_held + peak)

    def _term_counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._op is not None:
                stack = tracer._stack()
                if stack and stack[-1][1] == "partition_series":
                    tracer.series_terms += 1
            return fn(*args, **kwargs)

        return counted

    # -------------------------------------------------------------- output

    def write(self, path: Path) -> None:
        """Store every span as columns of a compressed ``.npz`` file."""
        names = sorted({s[NAME] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        spans = self.spans
        np.savez_compressed(
            path,
            names=np.array(names),
            sid=np.array([s[SID] for s in spans], dtype=np.int64),
            name=np.array([code[s[NAME]] for s in spans], dtype=np.int32),
            start=np.array([s[START] for s in spans]),
            end=np.array([s[END] for s in spans]),
            parent=np.array([s[PARENT] for s in spans], dtype=np.int64),
            op=np.array([s[OP] for s in spans], dtype=np.int64),
            thread=np.array([s[THREAD] for s in spans], dtype=np.uint64),
            error=np.array([s[ERROR] for s in spans]),
        )


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_of(name: str) -> str:
    if name == ROOT:
        return "cli"
    for layer, (_, names) in TRACED.items():
        if name in names:
            return layer
    raise KeyError(name)


class SpanTable:
    """Self times and per-op groupings computed from a tracer's spans."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for s in spans:
            self.children[s[PARENT]].append(s)

    def covered_by(self, span: tuple, names=None) -> float:
        """Time of ``span`` covered by its direct children (only ``names``, if given)."""
        kids = [
            (k[START], k[END]) for k in self.children.get(span[SID], ())
            if names is None or k[NAME] in names
        ]
        return _covered(kids, span[START], span[END]) if kids else 0.0

    def self_time(self, span: tuple) -> float:
        return span[END] - span[START] - self.covered_by(span)

    def named(self, *names: str) -> list[tuple]:
        return [s for s in self.spans if s[NAME] in names]

    def inclusive(self, *names: str) -> float:
        return sum(s[END] - s[START] for s in self.named(*names))

    def layer_self(self, layer: str) -> float:
        return sum(self.self_time(s) for s in self.spans if s[NAME] != ROOT and layer_of(s[NAME]) == layer)

    def per_op_count(self, *names: str) -> dict[int, int]:
        counts: dict[int, int] = defaultdict(int)
        for s in self.named(*names):
            counts[s[OP]] += 1
        return counts
