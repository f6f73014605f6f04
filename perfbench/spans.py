"""Spans around the calls into qgraph's public functions, and the per-layer
metrics derived from them.

The tracer replaces every public function of the measured modules, in each
module namespace that holds it (so the names ``qgraph.cli`` imported from
the other modules are caught too), with a wrapper that records a span: name
``<module>.<function>``, thread, start, end, success and parent.  Parents
are tracked per thread; a span opened on a thread with no open span (a
worker of the sweep's thread pool, which does not inherit the caller's
context) takes the innermost span open on the main thread as its parent.
Spans stay in memory and are written out once, at the end of the run.

``greens`` and ``scattering`` are not wrapped: they are one-shot evaluations
no workload spends time in.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import statistics
import threading
import time
import types
from dataclasses import asdict, dataclass, field

from oracles import exact_count

TRACED_MODULES = ("qgraph.cli", "qgraph.spectrum", "qgraph.casimir", "qgraph.graph", "qgraph.util")
#: Called once per number written; a span each would dominate the trace cost.
UNTRACED = {"fmt_float", "complex_to_json"}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    t0: float
    t1: float = 0.0
    ok: bool = True
    notes: dict = field(default_factory=dict)


def _spectrum_notes(args, kwargs, result) -> dict:
    """k_max and the number of roots returned, for the root yield and kernel counts."""
    k_max = args[1] if len(args) > 1 else kwargs["k_max"]
    return {"k_max": float(k_max), "roots": len(result.eigenvalues) if result is not None else 0}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_index = 0
        self.job = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn):
        note = _spectrum_notes if name == "spectrum.find_eigenvalues" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = Span(next(self._ids), parent.sid if parent else None, name, threading.get_ident(), 0.0)
            if parent is None:
                span.notes = {"job": self.job, "pass": self.pass_index}
            stack.append(span)
            result = None
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.ok = False
                raise
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if note is not None:
                    span.notes.update(note(args, kwargs, result))
                self.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules, in every traced namespace."""
        wrappers: dict[int, object] = {}
        for module_name in TRACED_MODULES:
            module = importlib.import_module(module_name)
            for attr, fn in list(vars(module).items()):
                if not isinstance(fn, types.FunctionType) or attr.startswith("_") or attr in UNTRACED:
                    continue
                if fn.__module__ not in TRACED_MODULES:
                    continue
                if id(fn) not in wrappers:
                    name = f"{fn.__module__.removeprefix('qgraph.')}.{fn.__name__}"
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in self._patched:
            setattr(module, attr, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


def _self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the part of the span's interval its children cover."""
    covered, end = 0.0, span.t0
    for c in sorted(children, key=lambda c: c.t0):
        lo, hi = max(c.t0, end), min(c.t1, span.t1)
        if hi > lo:
            covered += hi - lo
            end = hi
    return (span.t1 - span.t0) - covered


def scan_counts(doc: dict, k_max: float) -> dict:
    """Computed (not measured) size of the first scan of find_eigenvalues.

    Grid step pi/(8 L) from step to k_max + 2.5 step; one (2B x 2B) complex
    matrix stack of 16-byte entries; two complex LU determinants per grid
    point at (8/3) n^3 real flops each.
    """
    total = sum(b["length"] for b in doc["bonds"])
    dim = 2 * len(doc["bonds"])
    step = math.pi / (8.0 * total)
    points = math.ceil(k_max / step + 1.5)
    return {
        "scan_points": points,
        "det_stack_mb": points * dim * dim * 16 / 1e6,
        "det_flops": points * 2 * (8.0 / 3.0) * dim**3,
    }


def layer_metrics(
    spans: list[Span], docs: dict[str, dict], traced_walls: list[float], untraced_walls: list[float]
) -> tuple[dict, list]:
    """Per-layer metrics (medians over traced passes) and per-job kernel rows.

    ``trace.overhead_frac`` compares the median wall time of the traced
    passes with that of the untraced passes run alternately with them.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def root_of(s: Span) -> Span:
        while s.parent is not None:
            s = by_id[s.parent]
        return s

    passes = sorted({s.notes["pass"] for s in spans if s.parent is None})
    per_pass = {p: {} for p in passes}
    green_ms: list[float] = []
    threads_seen = 0
    jobs: dict[str, dict] = {}

    def add(p: int, key: str, value: float) -> None:
        per_pass[p][key] = per_pass[p].get(key, 0.0) + value

    for s in spans:
        root = root_of(s)
        p, dur = root.notes["pass"], s.t1 - s.t0
        add(p, s.name + ".calls", 1)
        add(p, s.name + ".s", dur)
        add(p, s.name + ".fail", 0 if s.ok else 1)
        if s.name == "casimir.casimir_green_method":
            green_ms.append(1e3 * dur)
        if s.name == "cli.main":
            add(p, "cli.main.self_s", _self_time(s, children.get(s.sid, [])))
            threads = {s.thread}
            todo = list(children.get(s.sid, []))
            while todo:
                c = todo.pop()
                threads.add(c.thread)
                todo.extend(children.get(c.sid, []))
            threads_seen = max(threads_seen, len(threads))
        if s.name == "spectrum.find_eigenvalues":
            doc = docs[root.notes["job"]]
            counts = scan_counts(doc, s.notes["k_max"])
            oracle = exact_count(doc, s.notes["k_max"])
            add(p, "spectrum.roots", s.notes["roots"])
            add(p, "spectrum.oracle_roots", oracle)
            add(p, "spectrum.scan_points", counts["scan_points"])
            add(p, "spectrum.det_flops", counts["det_flops"])
            per_pass[p]["spectrum.det_stack_mb"] = max(
                per_pass[p].get("spectrum.det_stack_mb", 0.0), counts["det_stack_mb"]
            )
            jobs[root.notes["job"]] = {
                "bonds": len(doc["bonds"]),
                "k_max": s.notes["k_max"],
                "roots": s.notes["roots"],
                "oracle_roots": oracle,
                **counts,
            }

    def med(key: str) -> float:
        return statistics.median(per_pass[p].get(key, 0.0) for p in passes)

    oracle_roots = med("spectrum.oracle_roots")
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    metrics = {
        "spectrum.find_eigenvalues.calls": (med("spectrum.find_eigenvalues.calls"), "count"),
        "spectrum.find_eigenvalues.s": (med("spectrum.find_eigenvalues.s"), "s"),
        "spectrum.find_eigenvalues.fail": (med("spectrum.find_eigenvalues.fail"), "count"),
        "spectrum.roots": (med("spectrum.roots"), "count"),
        "spectrum.root_yield": (med("spectrum.roots") / oracle_roots if oracle_roots else 0.0, "ratio"),
        "spectrum.scan_points": (med("spectrum.scan_points"), "computed-count"),
        "spectrum.det_stack_mb": (med("spectrum.det_stack_mb"), "computed-MB"),
        "spectrum.det_flops": (med("spectrum.det_flops"), "computed-flop"),
        "casimir.casimir_green_method.calls": (med("casimir.casimir_green_method.calls"), "count"),
        "casimir.casimir_green_method.s": (med("casimir.casimir_green_method.s"), "s"),
        "casimir.casimir_green_method.p50_ms": (_quantile(green_ms, 0.5), "ms"),
        "casimir.casimir_green_method.p90_ms": (_quantile(green_ms, 0.9), "ms"),
        "casimir.casimir_mode_sum.s": (med("casimir.casimir_mode_sum.s"), "s"),
        "casimir.extrapolate_tau.calls": (med("casimir.extrapolate_tau.calls"), "count"),
        "casimir.extrapolate_tau.s": (med("casimir.extrapolate_tau.s"), "s"),
        "cli.main.calls": (med("cli.main.calls"), "count"),
        "cli.main.self_s": (med("cli.main.self_s"), "s"),
        "cli.threads_seen": (threads_seen, "count"),
        "graph.parse_graph.s": (med("graph.parse_graph.s"), "s"),
        "util.dumps_json.s": (med("util.dumps_json.s"), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return metrics, list(jobs.items())


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
