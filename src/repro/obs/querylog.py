"""Structured query log: a bounded ring of per-query records.

Every online query the :class:`~repro.core.system.DiscoverySystem` serves
appends one :class:`QueryRecord` — engine, query, k, latency, the returned
result ids/scores, and (when the query ran with ``explain=True``) the
candidate-funnel counts.  A record keeps the query's first
:data:`RESULTS_KEPT` hits and summarizes them into ``(id, score)`` pairs
only when its ``results`` is first read, so a query nobody reads back pays
no summary.  The ring is bounded (oldest records drop first) so the log is
safe to leave on under sustained traffic; an optional JSONL sink persists
every record as it arrives.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

#: The hits a record keeps, and so the length of its ``results``.
RESULTS_KEPT = 20


class _Results:
    """``QueryRecord.results`` (a dataclass descriptor-typed field): the
    pairs given at construction, else the summary of the record's ``hits``,
    made the first time it is read.  Hits are frozen (or ``str``), so a
    later summary is the summary the query returned."""

    def __get__(self, record, owner=None):
        if record is None:
            return None  # the field default: summarize ``hits`` when read
        # ``hits`` before ``_results``: a reader that finds ``hits`` already
        # cleared by another thread then finds that thread's summary.
        hits = record.hits
        results = record._results
        if results is None:
            # Not at module level: importing the repro.search package
            # imports modules that import repro.obs.
            from repro.search.explain import summarize_results

            results = record._results = summarize_results(hits)
            record.hits = ()
        return results

    def __set__(self, record, value) -> None:
        record._results = value


@dataclass
class QueryRecord:
    """One served query: what was asked, what came back, and what it cost.

    Beyond wall-clock latency every record carries resource accounting:
    ``cpu_ms`` (thread CPU time, always on) and ``mem_peak_kb`` (peak
    allocation delta, populated only while
    ``obs.enable_memory_accounting()`` has tracemalloc running), plus
    ``funnel_total`` — the summed candidate-funnel counts when the query
    ran with ``explain=True``.
    """

    engine: str
    query: str = ""
    k: int = 0
    latency_ms: float = 0.0
    #: thread CPU time spent serving the query (milliseconds)
    cpu_ms: float = 0.0
    #: peak allocation delta in KiB (None unless memory accounting is on)
    mem_peak_kb: float | None = None
    #: ``(result id, score)`` pairs of the first :data:`RESULTS_KEPT` hits;
    #: left ``None``, they are summarized from ``hits`` when first read.
    results: list[tuple[str, float]] = _Results()
    #: EXPLAIN funnel counts (``{stage: count}``) when available.
    funnel: dict[str, int] = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None
    ts: float = 0.0
    #: the query's first hits, until ``results`` summarizes them
    hits: tuple = field(default=(), repr=False, compare=False)

    @property
    def funnel_total(self) -> int:
        """Summed candidate counts across funnel stages (0 without EXPLAIN)."""
        return sum(self.funnel.values())

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "ts": round(self.ts, 3),
            "engine": self.engine,
            "query": self.query,
            "k": self.k,
            "latency_ms": round(self.latency_ms, 3),
            "cpu_ms": round(self.cpu_ms, 3),
            "status": self.status,
            "results": [[str(i), float(s)] for i, s in self.results],
        }
        if self.mem_peak_kb is not None:
            out["mem_peak_kb"] = round(self.mem_peak_kb, 3)
        if self.funnel:
            out["funnel"] = dict(self.funnel)
            out["funnel_total"] = self.funnel_total
        if self.error:
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryRecord":
        """Inverse of :meth:`to_dict` (tolerates records written by older
        versions without the resource-accounting fields)."""
        return cls(
            engine=data.get("engine", ""),
            query=data.get("query", ""),
            k=int(data.get("k", 0)),
            latency_ms=float(data.get("latency_ms", 0.0)),
            cpu_ms=float(data.get("cpu_ms", 0.0)),
            mem_peak_kb=(
                float(data["mem_peak_kb"])
                if data.get("mem_peak_kb") is not None
                else None
            ),
            results=[(str(i), float(s)) for i, s in data.get("results", [])],
            funnel={k: int(v) for k, v in data.get("funnel", {}).items()},
            status=data.get("status", "ok"),
            error=data.get("error"),
            ts=float(data.get("ts", 0.0)),
        )


class QueryLog:
    """Thread-safe bounded ring of :class:`QueryRecord` with a JSONL sink."""

    def __init__(self, capacity: int = 1024):
        self._lock = threading.Lock()
        self._ring: deque[QueryRecord] = deque(maxlen=capacity)
        self._sink_path: str | None = None
        self._total = 0

    # -- configuration ---------------------------------------------------------------

    def configure(
        self,
        capacity: int | None = None,
        sink: str | None = None,
    ) -> "QueryLog":
        """Resize the ring and/or set a JSONL sink path (``None`` keeps,
        ``""`` clears the sink)."""
        with self._lock:
            if capacity is not None:
                self._ring = deque(self._ring, maxlen=capacity)
            if sink is not None:
                self._sink_path = sink or None
        return self

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    @property
    def total(self) -> int:
        """Records ever appended (including ones the ring has dropped)."""
        with self._lock:
            return self._total

    # -- recording -------------------------------------------------------------------

    def append(self, record: QueryRecord) -> None:
        if not record.ts:
            record.ts = time.time()
        with self._lock:
            self._ring.append(record)
            self._total += 1
            sink = self._sink_path
        if sink:
            line = json.dumps(record.to_dict(), sort_keys=True)
            with open(sink, "a", encoding="utf-8") as f:
                f.write(line + "\n")

    # -- reading ---------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def records(self, engine: str | None = None) -> list[QueryRecord]:
        with self._lock:
            out = list(self._ring)
        if engine is not None:
            out = [r for r in out if r.engine == engine]
        return out

    def tail(self, n: int, engine: str | None = None) -> list[QueryRecord]:
        """The most recent ``n`` (matching) records, oldest first."""
        return self.records(engine)[-max(0, n):]

    def engines(self) -> list[str]:
        """Distinct engine names currently in the ring, sorted."""
        with self._lock:
            return sorted({r.engine for r in self._ring})

    def to_dicts(
        self, n: int | None = None, engine: str | None = None
    ) -> list[dict[str, Any]]:
        recs: Iterable[QueryRecord] = (
            self.records(engine) if n is None else self.tail(n, engine)
        )
        return [r.to_dict() for r in recs]

    def to_jsonl(self) -> str:
        """One JSON object per line, oldest record first."""
        return "\n".join(
            json.dumps(d, sort_keys=True) for d in self.to_dicts()
        )

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._total = 0


def load_jsonl(path: str) -> list[QueryRecord]:
    """Read query records back from a JSONL sink file (blank lines skipped)."""
    out: list[QueryRecord] = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(QueryRecord.from_dict(json.loads(line)))
    return out


#: Process-wide query log, fed by ``DiscoverySystem``'s online query paths.
QUERY_LOG = QueryLog()
