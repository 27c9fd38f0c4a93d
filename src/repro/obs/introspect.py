"""Index introspection: size, skew, and memory footprint of built indexes.

Benchmark studies of real data-lake deployments show that index size and
per-query cost skew — not average-case accuracy — decide whether a
discovery system is viable.  This module gives every index a uniform
introspection surface: engines implement ``stats() -> dict`` (cheap,
structure-level numbers: posting-list distribution, HNSW degree/level
histograms, LSH partition occupancy, ...), and
:meth:`DiscoverySystem.index_stats` wraps each into an
:class:`IndexStatsReport` with an estimated in-memory footprint from
:func:`deep_sizeof`.

Reports are published process-wide (:func:`publish` / :func:`published`)
so the ``/indexstats`` HTTP route and ``/metrics`` gauges can serve the
latest build's numbers without holding a reference to the system.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.obs.health import percentile


def deep_sizeof(obj: Any, seen: dict[int, Any] | None = None) -> int:
    """Estimated total bytes reachable from ``obj``.

    Iterative traversal over containers and ``__dict__``/``__slots__``
    instances, counting each object once by identity.  ``seen`` maps each
    counted id to its object (kept alive, so no id is reused); pass one map
    to several calls to charge an object to the first root reaching it.
    An array's buffer is counted once: ``getsizeof`` of an owning array
    includes it, and a view adds its ``base``.  An instance ``__dict__`` is
    sized as a copy, whose size does not depend on how many instances of
    the class exist.  An estimate, not an accounting.
    """
    seen = {} if seen is None else seen
    total = 0
    stack = [obj]
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen[id(cur)] = cur
        try:
            total += sys.getsizeof(cur)
        except TypeError:  # pragma: no cover - exotic objects
            continue
        if isinstance(cur, np.ndarray):
            if cur.base is not None:
                stack.append(cur.base)
        elif isinstance(cur, dict):
            stack.extend(cur.keys())
            stack.extend(cur.values())
        elif isinstance(cur, (list, tuple, set, frozenset)):
            stack.extend(cur)
        elif isinstance(cur, (str, bytes, bytearray, int, float, complex, bool)):
            continue
        else:
            d = getattr(cur, "__dict__", None)
            if d is not None and id(d) not in seen:
                seen[id(d)] = d
                total += sys.getsizeof(dict(d))
                stack.extend(d.keys())
                stack.extend(d.values())
            for slot in getattr(type(cur), "__slots__", ()) or ():
                if hasattr(cur, slot):
                    stack.append(getattr(cur, slot))
    return total


def summarize_distribution(values: Iterable[float]) -> dict[str, Any]:
    """Compact skew summary of a size distribution: count/total/min/mean/
    median/p95/max — enough to spot hot posting lists or lopsided
    partitions without shipping the raw histogram."""
    vals = [float(v) for v in values]
    if not vals:
        return {"count": 0}
    total = sum(vals)
    return {
        "count": len(vals),
        "total": round(total, 3),
        "min": round(min(vals), 3),
        "mean": round(total / len(vals), 3),
        "p50": round(percentile(vals, 50), 3),
        "p95": round(percentile(vals, 95), 3),
        "max": round(max(vals), 3),
    }


@dataclass
class IndexStatsReport:
    """One built index's introspection snapshot."""

    name: str  # e.g. "josie", "starmie.hnsw"
    kind: str  # e.g. "csr-token-sets", "hnsw"
    items: int  # primary cardinality (sets, nodes, sketches, ...)
    memory_bytes: int
    detail: dict[str, Any] = field(default_factory=dict)
    #: Where the index came from: a live build (source=build, build_jobs,
    #: stage list, per-engine build_ms) or a reloaded snapshot
    #: (source=snapshot, path, created_at, config hash, lake fingerprint).
    provenance: dict[str, Any] = field(default_factory=dict)
    #: Wall ms this engine's build took; None when the index was reloaded
    #: from a snapshot rather than built.
    build_ms: float | None = None

    def to_dict(self) -> dict[str, Any]:
        out = {
            "name": self.name,
            "kind": self.kind,
            "items": self.items,
            "memory_bytes": self.memory_bytes,
            "detail": self.detail,
        }
        if self.build_ms is not None:
            out["build_ms"] = self.build_ms
        if self.provenance:
            out["provenance"] = self.provenance
        return out

    def render(self) -> str:
        head = (
            f"{self.name} ({self.kind}): {self.items} items, "
            f"{self.memory_bytes / 1024:.1f} KiB"
        )
        if self.build_ms is not None:
            head += f", built in {self.build_ms:.1f} ms"
        lines = [head]
        for key in sorted(self.detail):
            lines.append(f"  {key} = {self.detail[key]}")
        if self.provenance:
            src = self.provenance.get("source", "?")
            # Every engine's build_ms is on its own report's first line.
            rest = ", ".join(
                f"{k}={v}"
                for k, v in sorted(self.provenance.items())
                if k not in ("source", "build_ms")
            )
            lines.append(f"  provenance = {src}" + (f" ({rest})" if rest else ""))
        return "\n".join(lines)


_LOCK = threading.Lock()
_PUBLISHED: list[IndexStatsReport] = []


def publish(reports: Sequence[IndexStatsReport]) -> None:
    """Make ``reports`` the process-wide snapshot served by ``/indexstats``."""
    global _PUBLISHED
    with _LOCK:
        _PUBLISHED = list(reports)


def published() -> list[IndexStatsReport]:
    with _LOCK:
        return list(_PUBLISHED)


def clear_published() -> None:
    publish([])
