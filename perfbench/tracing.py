"""Spans and counters around quadring's public functions, installed from
outside the package.

`install` replaces every binding of each traced function in every loaded
``quadring`` module with one wrapper.  Modules import layer functions by
name (``relations`` binds ``points_on_X`` itself, ``cli`` binds
``verify_relations``), so patching only the defining module would leave
those call sites untimed.

Two kinds of wrapper exist:

* a span records (name, start, end, parent) and may add statistics computed
  from its arguments and result;
* a counter only counts calls, yielded items or rows.  Functions that run
  once per fiber or more often get a counter and no span, because a timing
  wrapper at that rate would distort the times it measures.

Spans are recorded on the main thread only; the thread pool inside
``points_on_X`` calls no traced function.  Counters take a lock, so a count
stays exact if a traced function ever runs in a worker thread.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Modules that hold bindings of traced functions.  Importing them all before
# wrapping makes sure no binding is created after `install` runs.
QUADRING_MODULES = (
    "quadring",
    "quadring.gfp",
    "quadring.modmat",
    "quadring.mpoly",
    "quadring.quadform",
    "quadring.nslattice",
    "quadring.grothring",
    "quadring.netfib",
    "quadring.netfib.family",
    "quadring.netfib.reduction",
    "quadring.netfib.relations",
    "quadring.netfib.recipes",
    "quadring.netfib.search",
    "quadring.cli",
)


class Tracer:
    """In-memory spans and counters of one process; written out by `dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.sites: dict[str, int] = {}
        self._lock = threading.Lock()

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def open_span(self, name: str) -> int:
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"span {name} opened outside the main thread")
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open_span(name)
        try:
            yield
        finally:
            self.close_span(idx)

    def dump(self, path: str) -> None:
        doc = {"spans": self.spans, "counters": dict(self.counters), "sites": self.sites}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the time covered by direct
    children.  Spans nest properly (one thread, stack discipline), so direct
    children never overlap and their durations simply add."""
    child_total = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - child_total[i]
    return dict(out)


# --- statistics added by span wrappers -------------------------------------


def _projective_size(n: int, p: int) -> int:
    return (p ** (n + 1) - 1) // (p - 1)


def _points_on_x_stats(tracer: Tracer, bound: dict, result) -> None:
    net, field = bound["net"], bound["field"]
    scanned = _projective_size(net.n + 1, field.p)
    tracer.add("family.points_on_X.points_scanned", scanned)
    # int64 coordinate array of P^(n+1)(F_p): rows x (n+2) columns x 8 bytes.
    tracer.add("family.points_on_X.bytes_materialized", scanned * (net.n + 2) * 8)
    tracer.add("family.points_on_X.x_points", len(result))


def _regularity_stats(tracer: Tracer, bound: dict, result) -> None:
    tracer.add("family.regularity_check.fibers", sum(result.corank_histogram.values()))


def _lines_stats(tracer: Tracer, bound: dict, result) -> None:
    net, field = bound["net"], bound["field"]
    tracer.add("family.lines_through_point.directions_scanned", _projective_size(net.n, field.p))


def _net_search_stats(tracer: Tracer, bound: dict, result) -> None:
    tracer.add("search.random_net_search.attempts", result.attempts)
    tracer.add("search.random_net_search.accepted", 1)


# (module, attribute, statistics).  Each becomes a span named
# "<last module component>.<attribute>".  Statistics are None, "calls" (count
# the calls under "<span name>.calls") or a function of the tracer, the bound
# arguments and the result.
SPANS = (
    ("quadring.netfib.relations", "verify_relations", None),
    ("quadring.netfib.family", "points_on_X", _points_on_x_stats),
    ("quadring.netfib.family", "regularity_check", _regularity_stats),
    ("quadring.netfib.family", "count_total_space", None),
    ("quadring.netfib.family", "lines_through_point", _lines_stats),
    ("quadring.netfib.reduction", "count_double_cover", None),
    ("quadring.netfib.reduction", "count_reduced_family", None),
    ("quadring.netfib.reduction", "hyperbolic_reduce_family", None),
    ("quadring.netfib.recipes", "cubic_with_plane_counts", None),
    ("quadring.netfib.recipes", "verra_counts", None),
    ("quadring.nslattice", "classify_discriminant", "calls"),
    ("quadring.grothring", "derive", None),
    ("quadring.netfib.search", "random_net_search", _net_search_stats),
    ("quadring.netfib.search", "random_cubic_with_plane", None),
    ("quadring.netfib.search", "random_verra_form", None),
)

# (module, attribute, counter key, what to count): "calls" counts calls,
# "yields" counts items a generator yields, "rows_in" counts rows of the
# `points` argument and "rows_out" rows of the returned array.
COUNTERS = (
    ("quadring.quadform", "classify", "quadform.classify.calls", "calls"),
    ("quadring.quadform", "count_projective_points", "quadform.count_projective_points.calls", "calls"),
    ("quadring.modmat", "det_mod", "modmat.det_mod.calls", "calls"),
    ("quadring.modmat", "kernel_basis", "modmat.kernel_basis.calls", "calls"),
    ("quadring.modmat", "rank_mod", "modmat.rank_mod.calls", "calls"),
    ("quadring.nslattice", "solve_pell_like", "nslattice.solve_pell_like.calls", "calls"),
    ("quadring.gfp", "enumerate_projective", "gfp.enumerate_projective.points", "yields"),
    ("quadring.gfp", "projective_points_array", "gfp.projective_points_array.points", "rows_out"),
    ("quadring.mpoly", "evaluate_on_array", "mpoly.evaluate_on_array.points", "rows_in"),
)

# Methods are bound once, on their class.
METHOD_COUNTERS = (
    ("quadring.mpoly", "HomPoly", "evaluate", "mpoly.HomPoly.evaluate.calls"),
)


def _span_wrapper(tracer: Tracer, name: str, fn, stats):
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        idx = tracer.open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close_span(idx)
        if stats == "calls":
            tracer.add(name + ".calls")
        elif stats is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            stats(tracer, bound.arguments, result)
        return result

    return wrapper


def _counter_wrapper(tracer: Tracer, key: str, fn, what: str):
    if what == "yields":

        def gen_wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.add(key)
                yield item

        return gen_wrapper

    def wrapper(*args, **kwargs):
        if what == "calls":
            tracer.add(key)
        elif what == "rows_in":
            points = kwargs["points"] if "points" in kwargs else args[1]
            tracer.add(key, len(points))
        result = fn(*args, **kwargs)
        if what == "rows_out":
            tracer.add(key, len(result))
        return result

    return wrapper


def _rebind(original, wrapper, modules) -> int:
    """Replace every module-level binding of `original`; returns the count."""
    sites = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                sites += 1
    return sites


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every binding site."""
    for name in QUADRING_MODULES:
        importlib.import_module(name)
    modules = [
        mod
        for name, mod in sys.modules.items()
        if name == "quadring" or name.startswith("quadring.")
    ]
    for module, attr, stats in SPANS:
        span_name = f"{module.rsplit('.', 1)[-1]}.{attr}"
        original = getattr(sys.modules[module], attr)
        tracer.sites[span_name] = _rebind(original, _span_wrapper(tracer, span_name, original, stats), modules)
    for module, attr, key, what in COUNTERS:
        original = getattr(sys.modules[module], attr)
        tracer.sites[key] = _rebind(original, _counter_wrapper(tracer, key, original, what), modules)
    for module, cls_name, attr, key in METHOD_COUNTERS:
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, attr, _counter_wrapper(tracer, key, getattr(cls, attr), "calls"))
        tracer.sites[key] = 1
