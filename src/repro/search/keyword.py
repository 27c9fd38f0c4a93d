"""Keyword search over table metadata (survey §2.3).

BM25 ranking over the concatenation of title, description, tags, and column
headers — the GOODS / Google Dataset Search setting where only metadata is
indexed, not cell data.  OCTOPUS-style clustering groups hits sharing a
schema so the user sees one cluster per logical relation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.datalake.lake import DataLake
from repro.datalake.table import tokenize
from repro.obs import METRICS, TRACER
from repro.search.explain import ExplainReport


@dataclass(frozen=True)
class KeywordHit:
    table: str
    score: float

    def __lt__(self, other: "KeywordHit") -> bool:
        return (-self.score, self.table) < (-other.score, other.table)


class KeywordSearchEngine:
    """BM25 metadata search with schema clustering of results."""

    def __init__(
        self,
        k1: float = 1.5,
        b: float = 0.75,
        include_headers: bool = True,
        include_values: bool = False,
        max_value_tokens: int = 200,
    ):
        self.k1 = k1
        self.b = b
        self.include_headers = include_headers
        # OCTOPUS mode: index (a sample of) cell tokens too, so keyword
        # search can reach tables whose metadata never mentions the topic.
        self.include_values = include_values
        self.max_value_tokens = max_value_tokens
        self._docs: dict[str, Counter[str]] = {}
        self._doc_len: dict[str, int] = {}
        self._df: Counter[str] = Counter()
        self._avg_len = 0.0
        self._schemas: dict[str, tuple[str, ...]] = {}

    def index_lake(self, lake: DataLake) -> None:
        """Index every table's metadata text (and headers)."""
        for table in lake:
            text = table.metadata.text()
            tokens = tokenize(text)
            if self.include_headers:
                for h in table.header:
                    tokens.extend(tokenize(h))
            if self.include_values:
                budget = self.max_value_tokens
                for _, col in table.text_columns():
                    for value in col.non_null_values():
                        value_tokens = tokenize(value)
                        tokens.extend(value_tokens[:budget])
                        budget -= len(value_tokens)
                        if budget <= 0:
                            break
                    if budget <= 0:
                        break
            counts = Counter(tokens)
            self._docs[table.name] = counts
            self._doc_len[table.name] = sum(counts.values())
            for t in counts:
                self._df[t] += 1
            self._schemas[table.name] = tuple(sorted(h.lower() for h in table.header))
        n = len(self._docs)
        self._avg_len = (sum(self._doc_len.values()) / n) if n else 0.0
        METRICS.inc("index.keyword.tables_indexed", n)

    def stats(self) -> dict:
        """Introspection: corpus size, vocabulary, and document-length skew."""
        from repro.obs.introspect import summarize_distribution

        return {
            "documents": len(self._docs),
            "vocabulary": len(self._df),
            "avg_doc_len": round(self._avg_len, 3),
            "doc_len": summarize_distribution(self._doc_len.values()),
        }

    def _idf(self, token: str) -> float:
        n = len(self._docs)
        df = self._df.get(token, 0)
        return math.log(1 + (n - df + 0.5) / (df + 0.5))

    def search(
        self, query: str, k: int = 10, report: ExplainReport | None = None
    ) -> list[KeywordHit]:
        """Top-k tables by BM25 score for a keyword query; a given
        ``report`` gets the query, the BM25 params and the funnel."""
        q_tokens = tokenize(query)
        hits = []
        for name, counts in self._docs.items():
            score = 0.0
            dl = self._doc_len[name]
            for t in q_tokens:
                tf = counts.get(t, 0)
                if tf == 0:
                    continue
                denom = tf + self.k1 * (
                    1 - self.b + self.b * dl / max(self._avg_len, 1e-9)
                )
                score += self._idf(t) * tf * (self.k1 + 1) / denom
            if score > 0:
                hits.append(KeywordHit(name, score))
        out = sorted(hits)[:k]
        METRICS.inc("search.keyword.queries")
        METRICS.inc("search.keyword.docs_scored", len(self._docs))
        METRICS.inc("search.keyword.hits_returned", len(out))
        sp = TRACER.current()
        sp.set("keyword.docs_scored", len(self._docs))
        sp.set("keyword.candidates", len(hits))
        if report is not None:
            report.query = query
            report.params = {"k1": self.k1, "b": self.b}
            report.stage("documents_indexed", len(self._docs))
            report.stage("matched", len(hits), query_tokens=len(q_tokens))
        return out

    def search_clustered(
        self, query: str, k: int = 10
    ) -> list[list[KeywordHit]]:
        """OCTOPUS-style: top-k hits grouped by identical schema signature."""
        hits = self.search(query, k)
        clusters: dict[tuple[str, ...], list[KeywordHit]] = {}
        order: list[tuple[str, ...]] = []
        for h in hits:
            sig = self._schemas.get(h.table, ())
            if sig not in clusters:
                clusters[sig] = []
                order.append(sig)
            clusters[sig].append(h)
        return [clusters[sig] for sig in order]
