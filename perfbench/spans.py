"""In-memory span recording from outside the program, plus the arithmetic
the benchmark reports (percentiles, self time).

The traced run wraps the public entry points of each layer -- the facade
``*_search``/``search`` calls, every ``Engine.build`` and ``Engine.query``,
the stage executor, snapshot save/load -- with :class:`SpanRecorder`
spans.  Nothing inside ``src/`` is edited: :meth:`SpanRecorder.patched`
swaps the attributes in and restores them on exit.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import wraps
from typing import Callable, Iterable


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between
    closest ranks (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class SpanRecord:
    """One finished span: name, wall-clock interval, parent, request id,
    and counts attributed to it while it was the innermost span."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[SpanRecord]) -> dict[int, float]:
    """Span id -> its duration minus the part of its interval that its
    direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.id, ())
        )
        for s in spans
    }


class SpanRecorder:
    """Collects spans in memory; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._local = threading.local()
        self._next_request = 0

    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None:
            self._next_request += 1
            request = self._next_request
        else:
            request = parent.request
        rec = SpanRecord(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            parent=parent.id if parent else None,
            request=request,
        )
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        """Attribute a count to the innermost open span (dropped when no
        span is open)."""
        stack = self._stack()
        if stack:
            counts = stack[-1].counts
            counts[name] = counts.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str) -> Callable:
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def counting(self, fn: Callable, name: str) -> Callable:
        @wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    @staticmethod
    @contextmanager
    def patched(patches: list[tuple[object, str, object]]):
        """Set ``(owner, attr, value)`` triples; restore the originals on
        exit (attributes an owner only inherited are deleted again)."""
        saved = [(owner, attr, owner.__dict__.get(attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, value in patches:
                setattr(owner, attr, value)
            yield
        finally:
            for owner, attr, old in reversed(saved):
                if old is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, old)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
