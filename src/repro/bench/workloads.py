"""Query workload builders over the generated corpora.

Convenience wrappers used by benchmarks and integration tests: they turn a
generated corpus into (query, ground truth) pairs in the exact form each
search engine consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalake.generate import JoinCorpus, UnionCorpus
from repro.datalake.table import Column, ColumnRef


@dataclass
class JoinWorkload:
    """Column queries with containment-threshold relevance sets."""

    queries: list[tuple[Column, ColumnRef, dict[ColumnRef, float]]]

    @classmethod
    def from_corpus(cls, corpus: JoinCorpus) -> "JoinWorkload":
        out = []
        for q in corpus.queries:
            col = corpus.lake.column(q.column)
            out.append((col, q.column, dict(q.containments)))
        return cls(out)

    def relevant(self, idx: int, threshold: float) -> set[ColumnRef]:
        _, ref, containments = self.queries[idx]
        return {
            r
            for r, c in containments.items()
            if c >= threshold and r.table != ref.table
        }


@dataclass
class UnionWorkload:
    """Table queries with unionable-group relevance sets."""

    queries: list[tuple[str, set[str]]]

    @classmethod
    def from_corpus(
        cls, corpus: UnionCorpus, queries_per_group: int = 1
    ) -> "UnionWorkload":
        out = []
        for members in corpus.groups.values():
            for name in members[:queries_per_group]:
                out.append((name, corpus.truth[name]))
        return cls(out)
