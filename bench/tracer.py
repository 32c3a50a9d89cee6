"""Span tracer that wraps lintest's public functions from outside the package.

`installed(tracer)` replaces each traced function with a wrapper wherever the
package binds it: in its home module and in every module that took it with
`from ... import`.  Methods are wrapped on their classes.  A span records its
name, parent, start, end, self time (duration minus the duration of its
direct children), the leaf-oracle evaluations made inside it (`points`), and
one per-span count (values drawn, rows drawn, resamples).  Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("rng", "oracle", "distro", "gauss_core", "tester", "lower_bound", "harness", "cli")


class TraceError(RuntimeError):
    """The wrappers could not be installed everywhere a traced name is bound."""


class Span(NamedTuple):
    sid: int
    parent: int  # -1 for a root span
    name: str
    tag: str | None
    start_ns: int
    end_ns: int
    self_ns: int
    points: int
    count: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.points = 0  # leaf-oracle evaluations so far
        self._stack: list[list] = []  # [sid, name, start_ns, child_ns, points_at_open]
        self._next = 0

    def open(self, name: str) -> list:
        frame = [self._next, name, 0, 0, self.points]
        self._next += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def close(self, frame: list, tag: str | None = None, count: int = 0):
        end = time.perf_counter_ns()
        if self._stack.pop() is not frame:
            raise TraceError(f"span {frame[1]} closed out of order")
        sid, name, start, child_ns, points0 = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(Span(sid, parent[0] if parent else -1, name, tag, start, end,
                               duration - child_ns, self.points - points0, count))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)


def _size(out) -> int:
    return int(out.size)


def _rows(out) -> int:
    return int(out.shape[0])


def _resamples(out) -> int:
    return int(out[2])


# (module, function, span name, per-span count taken from the return value)
FUNCTIONS = (
    ("lintest.rng", "standard_normal", "rng.standard_normal", _size),
    ("lintest.rng", "make_rng", "rng.make_rng", None),
    ("lintest.gauss_core", "sample_gaussian", "gauss_core.sample_gaussian", None),
    ("lintest.jacobi", "jacobi_eigh", "jacobi.jacobi_eigh", None),
    ("lintest.tester", "test_additivity", "tester.test_additivity", None),
    ("lintest.tester", "force_negativity", "tester.force_negativity", None),
    # The main loop has no public entry point: it is the self time of the
    # run_*_additivity functions once the battery and the draws are removed.
    ("lintest.tester", "run_gaussian_additivity", "tester.main_loop", None),
    ("lintest.tester", "run_df_additivity", "tester.main_loop", None),
    ("lintest.tester", "run_df_linearity", "tester.run_df_linearity", None),
    ("lintest.lower_bound", "build_instance", "lower_bound.build_instance", _resamples),
    ("lintest.lower_bound", "tv_bound", "lower_bound.tv_bound", None),
    ("lintest.lower_bound", "run_distinguish_game", "lower_bound.run_distinguish_game", None),
    ("lintest.harness", "build_oracle", "harness.build_oracle", None),
    ("lintest.harness", "build_distribution", "harness.build_distribution", None),
    ("lintest.harness", "run_calibrate", "harness.run_calibrate", None),
    ("lintest.harness", "run_lower_bound", "harness.run_lower_bound", None),
)


def _wrap_function(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            tracer.close(frame, count=count(out) if count and out is not None else 0)
    return traced


def _wrap_query_batch(tracer: Tracer, fn, odd_cls):
    # Leaf oracles make the points; the odd wrapper only re-queries its base,
    # so its span is the tester's and it adds no points of its own.
    @functools.wraps(fn)
    def traced(self, xs):
        odd = isinstance(self, odd_cls)
        frame = tracer.open("tester.odd_oracle" if odd else "oracle.query_batch")
        before = self.query_count
        try:
            return fn(self, xs)
        finally:
            made = self.query_count - before
            if not odd:
                tracer.points += made
            tracer.close(frame, tag=type(self).__name__, count=made)
    return traced


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _package_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "lintest" or k.startswith("lintest."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every function in FUNCTIONS plus the oracle and sampler methods."""
    oracle = importlib.import_module("lintest.oracle")
    distro = importlib.import_module("lintest.distro")
    tester = importlib.import_module("lintest.tester")
    for mod, _, _, _ in FUNCTIONS:
        importlib.import_module(mod)

    patches = []  # (owner, attribute, original), undone in reverse

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        # Keyed by id: module namespaces hold unhashable values too.
        originals = {}
        for mod, attr, name, count in FUNCTIONS:
            fn = getattr(sys.modules[mod], attr)
            originals[id(fn)] = (fn, _wrap_function(tracer, name, fn, count))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    patch(module, attr, originals[id(value)][1])

        base = oracle.FunctionOracle
        patch(base, "query_batch", _wrap_query_batch(tracer, base.query_batch, tester.OddOracle))
        sampler = distro.SampleDistribution
        patch(sampler, "draw", _wrap_function(tracer, "distro.draw", sampler.draw, None))
        for cls in [sampler, *_subclasses(sampler)]:
            if "draw_many" in vars(cls):
                patch(cls, "draw_many",
                      _wrap_function(tracer, "distro.draw_many", vars(cls)["draw_many"], _rows))
        for cls in _subclasses(base):
            if "query_batch" in vars(cls):
                raise TraceError(f"{cls.__name__} overrides query_batch; it would go untraced")
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "gauss_core" if head == "jacobi" else head  # gauss_core is jacobi's only caller


def summarize(spans: list[Span]) -> dict:
    """Per-name calls, self time, points and counts for one batch of spans."""
    by_id = {s.sid: s for s in spans}
    calls = Counter()
    self_ns = defaultdict(int)
    points = Counter()
    counts = Counter()
    outer_rows = 0
    battery_in_main = 0
    noisy_ns = 0
    for s in spans:
        calls[s.name] += 1
        self_ns[s.name] += s.self_ns
        points[s.name] += s.points
        counts[s.name] += s.count
        parent = by_id.get(s.parent)
        parent_name = parent.name if parent else ""
        if s.name == "distro.draw_many" and not parent_name.startswith("distro."):
            outer_rows += s.count
        if s.name == "tester.test_additivity" and parent_name == "tester.main_loop":
            battery_in_main += s.points
        if s.name == "oracle.query_batch" and s.tag == "NoisyLinear":
            noisy_ns += s.self_ns
    return {
        "calls": calls, "self_ns": self_ns, "points": points, "counts": counts,
        "distro_outer_rows": outer_rows,
        "main_loop_points": points["tester.main_loop"] - battery_in_main,
        "noisy_self_ns": noisy_ns,
        "negative_self": sum(1 for s in spans if s.self_ns < 0),
    }


def write_spans(spans: list[Span], path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sid\tparent\tname\ttag\tstart_ns\tend_ns\tself_ns\tpoints\tcount\n")
        for s in spans:
            fh.write(f"{s.sid}\t{s.parent}\t{s.name}\t{s.tag or ''}\t{s.start_ns}\t"
                     f"{s.end_ns}\t{s.self_ns}\t{s.points}\t{s.count}\n")
