"""Metrics: a thread-safe registry of counters, gauges, and histograms.

Counters accumulate (`inc`), gauges hold the last value (`set_gauge`),
histograms bucket observations into fixed upper-bound buckets
(``value <= bound``, Prometheus ``le`` semantics) with a ``+inf`` overflow
bucket and running count/sum/min/max.  ``snapshot()`` returns a plain,
deterministically ordered dict (safe to ``json.dumps``); ``render()``
returns a human-readable dump.

Engines record *aggregated* amounts once per query (e.g. the number of
posting lists a JOSIE search read), never per-item increments inside hot
loops, so the always-on registry stays cheap.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """A Prometheus-legal metric name: prefixed, dots/dashes -> underscores."""
    full = f"{prefix}_{name}" if prefix else name
    full = _PROM_BAD.sub("_", full)
    if full and full[0].isdigit():
        full = "_" + full
    return full

#: Default histogram buckets, tuned for per-query latencies in milliseconds.
DEFAULT_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)


class Histogram:
    """Fixed-bucket histogram with running count/sum/min/max."""

    __slots__ = ("buckets", "counts", "overflow", "count", "sum", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # The first bucket with ``value <= bound``; NaN compares false with
        # every bound, so it overflows (bisect alone would put it first).
        i = bisect_left(self.buckets, value)
        if i < len(self.buckets) and value == value:
            self.counts[i] += 1
        else:
            self.overflow += 1

    def to_dict(self) -> dict[str, Any]:
        buckets = {f"<={b:g}": c for b, c in zip(self.buckets, self.counts)}
        buckets["+inf"] = self.overflow
        return {
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": round(self.min, 6) if self.count else None,
            "max": round(self.max, 6) if self.count else None,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms behind one lock."""

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        with self._lock:
            self._gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        """Record one observation into histogram ``name``.

        ``buckets`` only takes effect when the histogram is first created.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(buckets or DEFAULT_BUCKETS)
                self._histograms[name] = hist
            hist.observe(value)

    # -- reading -------------------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def names(self) -> list[str]:
        """Every distinct metric name, sorted."""
        with self._lock:
            return sorted(
                set(self._counters) | set(self._gauges) | set(self._histograms)
            )

    def snapshot(self) -> dict[str, Any]:
        """Deterministic plain-dict dump of every metric.

        Keys are sorted lexicographically and histogram buckets ascend by
        bound with ``+inf`` last, regardless of recording order — exporter
        output and test goldens built on a snapshot are byte-stable.
        """
        with self._lock:
            return {
                "counters": {
                    k: self._counters[k] for k in sorted(self._counters)
                },
                "gauges": {
                    k: round(self._gauges[k], 6) for k in sorted(self._gauges)
                },
                "histograms": {
                    k: self._histograms[k].to_dict()
                    for k in sorted(self._histograms)
                },
            }

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition (version 0.0.4) of every metric.

        Counters get a ``_total`` suffix; histograms emit cumulative
        ``_bucket{le="..."}`` series ending in ``le="+Inf"`` plus ``_sum``
        and ``_count``.  Output is deterministic: families sort by name and
        ``le`` labels ascend, so two identical registries render
        byte-identical pages.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            hists = {
                name: (h.buckets, tuple(h.counts), h.overflow, h.count, h.sum)
                for name, h in self._histograms.items()
            }
        lines: list[str] = []
        for name in sorted(counters):
            pname = prometheus_name(name, prefix)
            if not pname.endswith("_total"):
                pname += "_total"
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {counters[name]:g}")
        for name in sorted(gauges):
            pname = prometheus_name(name, prefix)
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {gauges[name]:g}")
        for name in sorted(hists):
            bounds, bucket_counts, overflow, count, total = hists[name]
            pname = prometheus_name(name, prefix)
            lines.append(f"# TYPE {pname} histogram")
            cumulative = 0
            for bound, c in zip(bounds, bucket_counts):
                cumulative += c
                lines.append(
                    f'{pname}_bucket{{le="{bound:g}"}} {cumulative}'
                )
            lines.append(f'{pname}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{pname}_sum {total:g}")
            lines.append(f"{pname}_count {count}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        """Human-readable metrics dump."""
        snap = self.snapshot()
        lines: list[str] = []
        if snap["counters"]:
            lines.append("counters:")
            for name, value in snap["counters"].items():
                lines.append(f"  {name} = {value:g}")
        if snap["gauges"]:
            lines.append("gauges:")
            for name, value in snap["gauges"].items():
                lines.append(f"  {name} = {value:g}")
        if snap["histograms"]:
            lines.append("histograms:")
            for name, h in snap["histograms"].items():
                if h["count"]:
                    mean = h["sum"] / h["count"]
                    lines.append(
                        f"  {name}: count={h['count']} mean={mean:.3f} "
                        f"min={h['min']:g} max={h['max']:g}"
                    )
                else:
                    lines.append(f"  {name}: count=0")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
