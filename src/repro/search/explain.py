"""EXPLAIN provenance: per-stage candidate funnels for search queries.

Every engine can answer *why* a query returned what it did: how many
candidates each internal stage generated, how many each filter pruned, and
what thresholds were in force.  A ``repro.search`` method always returns
its hit list; given ``report=`` (an :class:`ExplainReport`) it fills in the
query string, the params and its own stages.  The caller owns the report
and closes it: ``Engine.query`` opens one per explained query and, after
the engine's ``serve``, appends the ``returned`` stage and the result
summary, once for every engine.  The report is a strictly shrinking
funnel — each stage's count is at most the previous stage's — so
consumers (tests, the CLI, the query log) can check internal consistency
mechanically.

The report is JSON-ready (``to_dict``) and renders as an ASCII funnel
(``render``) for ``repro query --explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def summarize_results(hits: list, limit: int = 20) -> list[tuple[str, float]]:
    """Uniform ``(identifier, score)`` pairs for any engine's hit type.

    Understands ``KeywordHit``/``TableResult``/``MateHit`` (``.table``),
    ``ColumnResult`` (``.ref``), and ``CorrelatedHit`` (``.correlation``
    instead of ``.score``).
    """
    out: list[tuple[str, float]] = []
    for hit in hits[:limit]:
        ident = getattr(hit, "table", None)
        if ident is None:
            ident = str(getattr(hit, "ref", hit))
        elif getattr(hit, "key_column", None) is not None:
            ident = f"{ident}[{hit.key_column},{hit.value_column}]"
        score = getattr(hit, "score", None)
        if score is None:
            score = getattr(hit, "correlation", 0.0)
        out.append((str(ident), round(float(score), 6)))
    return out


@dataclass
class FunnelStage:
    """One stage of the candidate funnel: a name, a count, and details."""

    name: str
    count: int
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"stage": self.name, "count": self.count}
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


@dataclass
class ExplainReport:
    """A per-query provenance report: parameters, funnel, results."""

    engine: str
    query: str = ""
    k: int = 0
    params: dict[str, Any] = field(default_factory=dict)
    stages: list[FunnelStage] = field(default_factory=list)
    results: list[tuple[str, float]] = field(default_factory=list)

    def stage(self, name: str, count: int, **detail: Any) -> "ExplainReport":
        """Append one funnel stage; returns self for chaining."""
        self.stages.append(FunnelStage(name, int(count), detail))
        return self

    def counts(self) -> dict[str, int]:
        """``{stage name: count}`` in funnel order."""
        return {s.name: s.count for s in self.stages}

    def is_monotone(self) -> bool:
        """True iff every stage's count is <= the previous stage's."""
        counts = [s.count for s in self.stages]
        return all(b <= a for a, b in zip(counts, counts[1:]))

    def to_dict(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "query": self.query,
            "k": self.k,
            "params": dict(self.params),
            "funnel": [s.to_dict() for s in self.stages],
            "results": [list(r) for r in self.results],
        }

    def render(self) -> str:
        """ASCII funnel: stage bars scaled to the first stage's count."""
        lines = [f"EXPLAIN {self.engine}  query={self.query!r}  k={self.k}"]
        if self.params:
            inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            lines.append(f"params: {inner}")
        top = max((s.count for s in self.stages), default=0)
        width = max(len(s.name) for s in self.stages) if self.stages else 0
        for s in self.stages:
            bar = "#" * (round(30 * s.count / top) if top else 0)
            detail = ""
            if s.detail:
                inner = ", ".join(f"{k}={v}" for k, v in sorted(s.detail.items()))
                detail = f"  ({inner})"
            lines.append(f"  {s.name:<{width}} {s.count:>8}  {bar}{detail}")
        if self.results:
            lines.append("results:")
            for ident, score in self.results:
                lines.append(f"  {ident}\t{score:.3f}")
        return "\n".join(lines)
