"""Call spans recorded around the library's public functions and methods.

A Tracer replaces module and class attributes with wrappers that record
one span per call (name, parent span, start, end) and restores the
original attributes on ``uninstall``.  Spans are kept in flat arrays so
that a bulk load of hundreds of thousands of edges stays cheap to record.
``SpanTable`` turns the arrays into durations, self times (duration minus
the durations of the direct children) and ancestor sets.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, Iterable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def clear(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()
        self._stack.clear()

    # -- patching -----------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def wrap(
        self, owner: object, attr: str, name: str, inner: Callable | None = None
    ) -> None:
        """Record a span named ``name`` around every call of owner.attr.

        ``inner`` replaces the callee (it must call the original itself);
        uninstall still restores the original attribute.
        """
        fn = inner if inner is not None else vars(owner)[attr]
        nid = self._name_id(name)
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        self._patch(owner, attr, wrapper)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count calls of owner.attr without recording spans."""
        fn = vars(owner)[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return those left unrestored."""
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patched
            if vars(owner)[attr] is not original
        ]


class SpanTable:
    """Durations, self times and ancestor names of a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name = list(tracer.name)
        self.parent = list(tracer.parent)
        self.start = list(tracer.start)
        self.end = list(tracer.end)
        n = len(self.name)
        self.dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        # bit k of anc[i] is set when a proper ancestor of span i is named
        # names[k]; parents are opened, hence indexed, before their children
        anc = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                anc[i] = anc[p] | (1 << self.name[p])
        self.anc = anc
        self.by_name: dict[int, list[int]] = {}
        for i, nid in enumerate(self.name):
            self.by_name.setdefault(nid, []).append(i)

    def _mask(self, names: Iterable[str]) -> int:
        m = 0
        for nm in names:
            if nm in self.names:
                m |= 1 << self.names.index(nm)
        return m

    def select(
        self,
        names: Iterable[str],
        under: Iterable[str] = (),
        not_under: Iterable[str] = (),
    ) -> list[int]:
        """Indices of spans named in ``names`` that have an ancestor in
        ``under`` (when given) and none in ``not_under``."""
        under = tuple(under)
        need, avoid = self._mask(under), self._mask(not_under)
        idx = sorted(
            i for nm in names if nm in self.names for i in self.by_name.get(self.names.index(nm), ())
        )
        return [
            i for i in idx if (not under or self.anc[i] & need) and not self.anc[i] & avoid
        ]

    def total(self, idx: list[int]) -> float:
        return sum(self.dur[i] for i in idx)

    def total_self(self, idx: list[int]) -> float:
        return sum(self.self_time[i] for i in idx)

    def nesting_errors(self, tolerance: float = 1e-9) -> list[str]:
        """Spans left open, escaping their parent, or with negative self time."""
        out = []
        for i, p in enumerate(self.parent):
            label = f"span {i} ({self.names[self.name[i]]})"
            if self.end[i] < self.start[i]:
                out.append(f"{label} ends before it starts or was never closed")
            elif p >= 0 and not (
                self.start[p] <= self.start[i] and self.end[i] <= self.end[p]
            ):
                out.append(f"{label} is not inside its parent span {p}")
            if self.self_time[i] < -tolerance:
                out.append(f"{label} has negative self time {self.self_time[i]:.3g}")
        return out
