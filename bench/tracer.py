"""Span tracer that wraps chshsim's public functions from outside the package.

A span records a name, a start, an end and the span that was open when it
began (its parent).  Spans live in flat arrays while the benchmark runs and
are reduced to per-layer metrics, or saved, when it ends.

Boundaries are looked up when the tracer is installed.  One that no longer
exists (a module, function or class renamed or deleted by a refactor) is
recorded as missing, and every metric that needs it reads ``None``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

NO_PARENT = -1


class Tracer:
    """In-memory span store; one per traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.counters: dict[str, int] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def open(self, sid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.name.append(sid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` recorded as one span per call; ``on_return(args, kwargs, result)`` may count."""
        sid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def wrap_iter(self, fn, name: str, on_item=None):
        """A generator function recorded as one span per ``next()`` call."""
        sid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(sid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                if on_item is not None:
                    on_item(args, kwargs, item)
                yield item

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) as arrays in one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


# --- reductions ------------------------------------------------------------


def covered_by_children(tracer: Tracer) -> array:
    """Per span, the length of its interval that its children's intervals cover.

    Children are clipped to the parent and overlaps are counted once.  Spans
    are stored in start order, so each parent's children arrive sorted by
    start and one pass suffices.
    """
    n = len(tracer.start)
    covered = array("d", bytes(8 * n))
    reach = array("d", bytes(8 * n))  # end of each parent's covered prefix so far
    starts, ends, parents = tracer.start, tracer.end, tracer.parent
    for i in range(n):
        p = parents[i]
        if p == NO_PARENT:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if ends[i] > reach[p]:
            reach[p] = ends[i]
    return covered


def nesting_violations(tracer: Tracer, resolution: float) -> int:
    """Spans that end before they start, or whose children's summed busy time exceeds their own."""
    start = np.frombuffer(tracer.start, dtype=np.float64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - start
    parents = np.frombuffer(tracer.parent, dtype=np.int32)
    has_parent = parents != NO_PARENT
    child_busy = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    return int(((dur < -resolution) | (child_busy > dur + resolution)).sum())


class SpanSummary:
    """Calls, busy time and self time per (span name, parent span name)."""

    def __init__(self, tracer: Tracer):
        self._ids = dict(tracer._ids)
        self._groups: dict[tuple[int, int], tuple[int, float, float]] = {}
        if not len(tracer):
            return
        names = np.frombuffer(tracer.name, dtype=np.int32)
        parents = np.frombuffer(tracer.parent, dtype=np.int32)
        start = np.frombuffer(tracer.start, dtype=np.float64)
        dur = np.frombuffer(tracer.end, dtype=np.float64) - start
        own = dur - np.frombuffer(covered_by_children(tracer), dtype=np.float64)
        parent_name = np.where(parents == NO_PARENT, NO_PARENT, names[np.maximum(parents, 0)])
        width = len(tracer.names) + 1
        keys = names * width + parent_name + 1
        calls = np.bincount(keys, minlength=width * width)
        busy = np.bincount(keys, weights=dur, minlength=width * width)
        self_time = np.bincount(keys, weights=own, minlength=width * width)
        for key in np.flatnonzero(calls).tolist():
            span, parent = divmod(key, width)
            self._groups[(span, parent - 1)] = (int(calls[key]), float(busy[key]), float(self_time[key]))

    def _total(self, field: int, name: str, parents=None, not_parents=None):
        sid = self._ids.get(name)
        want = None if parents is None else {self._ids.get(p) for p in parents}
        avoid = set() if not_parents is None else {self._ids.get(p) for p in not_parents}
        total = 0
        for (span, parent), values in self._groups.items():
            if span != sid or parent in avoid or (want is not None and parent not in want):
                continue
            total += values[field]
        return total

    def calls(self, name: str, **where) -> int:
        return self._total(0, name, **where)

    def busy(self, name: str, **where) -> float:
        return float(self._total(1, name, **where))

    def self_time(self, name: str, **where) -> float:
        return float(self._total(2, name, **where))


# --- installing wrappers ---------------------------------------------------


@dataclass(frozen=True)
class Boundary:
    """A public function of the package, recorded as spans named ``span``.

    ``module`` and ``attr`` locate the defining binding.  Every module of
    the package that holds the same object, under any name, is patched, so
    callers are traced however they imported it.  ``make(tracer, fn)``
    builds the wrapper (and may add spans it cannot record to
    ``tracer.missing``); the default records one span per call.
    """

    span: str
    module: str
    attr: str
    make: Callable | None = None


@dataclass(frozen=True)
class MethodBoundary:
    """Methods of every concrete subclass of ``module.base``, one span per call."""

    span: str
    module: str
    base: str
    methods: tuple[str, ...]


class Installation:
    """Wrappers in place for one traced pass; ``restore()`` removes them."""

    def __init__(self):
        self._undo: list[Callable[[], None]] = []

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, owner, attr: str, value) -> None:
        if attr in vars(owner):
            old = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, old))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)


def _concrete_subclasses(base: type) -> list[type]:
    seen, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return [c for c in seen if not inspect.isabstract(c)]


def install(tracer: Tracer, package: str, boundaries) -> Installation:
    """Patch every boundary that exists; add the spans of those that do not to ``tracer.missing``."""
    inst = Installation()
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    for b in boundaries:
        try:
            owner = importlib.import_module(b.module)
        except ImportError:
            tracer.missing.add(b.span)
            continue
        if isinstance(b, MethodBoundary):
            base = getattr(owner, b.base, None)
            classes = _concrete_subclasses(base) if isinstance(base, type) else []
            originals = [(c, m, getattr(c, m)) for c in classes for m in b.methods if callable(getattr(c, m, None))]
            if not originals:
                tracer.missing.add(b.span)
            for cls, method, fn in originals:
                inst._set(cls, method, tracer.wrap(fn, b.span))
            continue
        fn = getattr(owner, b.attr, None)
        if not callable(fn):
            tracer.missing.add(b.span)
            continue
        wrapped = b.make(tracer, fn) if b.make is not None else tracer.wrap(fn, b.span)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    inst._set(module, attr, wrapped)
    return inst
