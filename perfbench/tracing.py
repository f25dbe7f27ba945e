"""Spans and profile folding for the traced run.

Two sources give the per-layer numbers:

* :class:`Tracer` records a span around each call the benchmark makes
  into a module's public function (name, start, end, parent, simulation
  id).  The spans stay in memory and are written out when the run ends.
* calls that hide several layers behind one entry point (``simulate``,
  ``chaos_sweep``) run under one ``cProfile.Profile``;
  :func:`fold_profile` folds its per-function self time into layers with
  the static table in :mod:`layers`.

:data:`NULL` stands in for the tracer where nothing is traced: no spans,
no profiler.  Every tracer also has ``clock(fn, *args)``, which returns
``(value, host seconds)``: raw for the traced run, scaled to the
reference host speed for the end-to-end one (:class:`Scaled`).
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import pstats
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

FuncKey = Tuple[str, int, str]


def clock(fn: Callable[..., Any], *args: Any,
          **kwargs: Any) -> Tuple[Any, float]:
    """(value, raw host seconds) of one call."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


class Tracer:
    """Span recorder plus the profiler for calls into the kernel.  Its
    clock is raw: the host-speed probe's timer signal would land in the
    profile."""

    clock = staticmethod(clock)

    def __init__(self, profile: bool = True) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.profile = cProfile.Profile() if profile else None
        self._stack: List[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured elsewhere."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "sim": None, "parent": None, "start": start,
                           "end": end})

    @contextmanager
    def span(self, name: str, sim: Optional[str] = None) -> Iterator[None]:
        entry: Dict[str, Any] = {
            "id": len(self.spans), "name": name, "sim": sim,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None}
        self.spans.append(entry)
        self._stack.append(entry["id"])
        try:
            yield
        finally:
            entry["end"] = time.perf_counter()
            self._stack.pop()

    def profiled(self, fn: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> Any:
        if self.profile is None:
            return fn(*args, **kwargs)
        return self.profile.runcall(fn, *args, **kwargs)

    def self_seconds(self, name: str) -> float:
        """Summed self time of the spans called *name*: each span's
        duration minus what its child spans cover."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = (child.get(s["parent"], 0.0)
                                      + s["end"] - s["start"])
        return sum(s["end"] - s["start"] - child.get(s["id"], 0.0)
                   for s in self.spans if s["name"] == name)


class _NullTracer:
    clock = staticmethod(clock)

    @contextmanager
    def span(self, name: str, sim: Optional[str] = None) -> Iterator[None]:
        yield

    def profiled(self, fn: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


NULL = _NullTracer()


class Scaled(_NullTracer):
    """Untraced, timing each unit at the reference host speed with
    *probe* (a :class:`hostspeed.Probe`)."""

    def __init__(self, probe: Any) -> None:
        self.clock = probe.time


def resolve(entry: str) -> List[FuncKey]:
    """Profile keys of a ``module:qualname`` table entry; raises
    LookupError when the entry no longer names anything."""
    module_name, _, qualname = entry.partition(":")
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise LookupError("layer table entry %r does not resolve: %s"
                          % (entry, exc)) from exc
    if inspect.isclass(obj):
        funcs = [inspect.unwrap(f) for f in vars(obj).values()
                 if inspect.isfunction(f)]
    else:
        funcs = [inspect.unwrap(obj)]
    keys = []
    for func in funcs:
        code = getattr(func, "__code__", None)
        if code is None:
            raise LookupError("layer table entry %r is not a Python "
                              "function" % entry)
        keys.append((code.co_filename, code.co_firstlineno, code.co_name))
    if not keys:
        raise LookupError("layer table entry %r names a class without "
                          "functions" % entry)
    return keys


def fold_profile(profile: cProfile.Profile, table: Dict[str, str],
                 counters: Dict[str, str], other: str
                 ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold per-function self time into layers.

    A function the table names keeps its own layer.  Any other function
    (a helper, a builtin, the stdlib) inherits the layers of its callers,
    split in proportion to the time each caller spent in it; cProfile
    keeps only caller->callee edges, so a helper called from two layers
    is split by those edge times.  Unmapped functions that call each
    other in a cycle (a recursive-descent parser, say) form one strongly
    connected component and are folded as one unit, split by the edges
    that enter the component from outside.  Self time with no mapped
    caller on any path lands in *other*.  Returns (seconds per layer,
    exact call counts per counter name)."""
    layer_of: Dict[FuncKey, str] = {}
    for entry, layer in table.items():
        for key in resolve(entry):
            layer_of[key] = layer
    counter_keys = {name: resolve(entry)[0]
                    for name, entry in counters.items()}

    stats: Dict[FuncKey, Any] = {}
    if profile.getstats():
        stats = pstats.Stats(profile).stats    # type: ignore[attr-defined]
    # an unmapped function's share depends on its callers' shares
    depends = {func: [c for c in row[4] if c in stats and c != func]
               for func, row in stats.items() if func not in layer_of}
    shares: Dict[FuncKey, Dict[str, float]] = {
        func: {layer: 1.0} for func, layer in layer_of.items()}

    # components come out callers first, so every share read is ready
    for component in _components(depends):
        members = set(component)
        # edge = (calls, primitive calls, self time, cumulative time) of
        # the callee when called from that caller
        entries = [(caller, edge) for func in component
                   for caller, edge in stats[func][4].items()
                   if caller in stats and caller not in members]
        weights = [(caller, edge[2]) for caller, edge in entries]
        total = sum(w for _, w in weights)
        if not total:
            weights = [(caller, float(edge[0])) for caller, edge in entries]
            total = sum(w for _, w in weights)
        result: Dict[str, float] = {}
        if not total:
            result[other] = 1.0
        for caller, weight in weights:
            for layer, frac in shares[caller].items():
                result[layer] = result.get(layer, 0.0) + frac * weight / total
        for func in component:
            shares[func] = result

    seconds: Dict[str, float] = {}
    for func, row in stats.items():
        for layer, frac in shares[func].items():
            seconds[layer] = seconds.get(layer, 0.0) + frac * row[2]
    counts = {name: (stats[key][1] if key in stats else 0)
              for name, key in counter_keys.items()}
    return seconds, counts


def _components(graph: Dict[FuncKey, List[FuncKey]]
                ) -> Iterator[List[FuncKey]]:
    """Strongly connected components of *graph* (node -> the nodes it
    depends on; nodes outside *graph* are ignored), each yielded after
    every component it depends on.  Tarjan's algorithm, iterative so a
    deep call graph cannot reach the recursion limit."""
    index: Dict[FuncKey, int] = {}
    low: Dict[FuncKey, int] = {}
    stack: List[FuncKey] = []
    on_stack = set()
    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    yield component
