"""Keyword search over table metadata (survey §2.3).

BM25 ranking over the concatenation of title, description, tags, and column
headers — the GOODS / Google Dataset Search setting where only metadata is
indexed, not cell data.  OCTOPUS-style clustering groups hits sharing a
schema so the user sees one cluster per logical relation.

The index is an inverted file: each token maps to three parallel tuples —
the documents that hold it, its term frequency in each, and each posting's
BM25 length-normalised denominator, precomputed at build.  A query reads
only the postings of its own tokens, so it touches only the documents that
match; a token's document frequency is the length of its posting list.
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
        self._doc_len: dict[str, int] = {}
        self._avg_len = 0.0
        #: token -> (document names, term frequencies, BM25 denominators)
        self._postings: dict[
            str, tuple[tuple[str, ...], tuple[int, ...], tuple[float, ...]]
        ] = {}
        self._schemas: dict[str, tuple[str, ...]] = {}

    def index_lake(self, lake: DataLake) -> None:
        """Index every table's metadata text (and headers), replacing any
        earlier index."""
        docs: dict[str, Counter[str]] = {}
        self._doc_len = {}
        self._schemas = {}
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
            docs[table.name] = counts
            self._doc_len[table.name] = len(tokens)
            self._schemas[table.name] = tuple(sorted(h.lower() for h in table.header))
        n = len(docs)
        self._avg_len = (sum(self._doc_len.values()) / n) if n else 0.0
        avg = max(self._avg_len, 1e-9)
        lists: dict[str, tuple[list[str], list[int], list[float]]] = {}
        for name, counts in docs.items():
            norm = self.k1 * (1 - self.b + self.b * self._doc_len[name] / avg)
            for t, tf in counts.items():
                posting = lists.get(t)
                if posting is None:
                    posting = lists[t] = ([], [], [])
                posting[0].append(name)
                posting[1].append(tf)
                posting[2].append(tf + norm)
        self._postings = {
            t: (tuple(names), tuple(tfs), tuple(denoms))
            for t, (names, tfs, denoms) in lists.items()
        }
        METRICS.inc("index.keyword.tables_indexed", n)

    def stats(self) -> dict:
        """Introspection: corpus size, vocabulary, and document-length skew."""
        from repro.obs.introspect import summarize_distribution

        return {
            "documents": len(self._doc_len),
            "vocabulary": len(self._postings),
            "avg_doc_len": round(self._avg_len, 3),
            "doc_len": summarize_distribution(self._doc_len.values()),
        }

    def search(
        self, query: str, k: int = 10, report: ExplainReport | None = None
    ) -> list[KeywordHit]:
        """Top-k tables by BM25 score for a keyword query; a given
        ``report`` gets the query, the BM25 params and the funnel."""
        q_tokens = tokenize(query)
        n = len(self._doc_len)
        k1 = self.k1
        # Each document's terms are added in query-token order (repeats
        # included), as a per-document loop would add them.
        scores: dict[str, float] = {}
        for t in q_tokens:
            posting = self._postings.get(t)
            if posting is None:
                continue
            names, tfs, denoms = posting
            df = len(names)
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            for name, tf, denom in zip(names, tfs, denoms):
                scores[name] = scores.get(name, 0.0) + idf * tf * (k1 + 1) / denom
        # Rank (-score, name) pairs, the order of KeywordHit.__lt__, and
        # build hits for the top k only.
        ranked = sorted((-s, name) for name, s in scores.items() if s > 0)
        out = [KeywordHit(name, -neg) for neg, name in ranked[:k]]
        METRICS.inc("search.keyword.queries")
        METRICS.inc("search.keyword.docs_scored", n)
        METRICS.inc("search.keyword.hits_returned", len(out))
        sp = TRACER.current()
        sp.set("keyword.docs_scored", n)
        sp.set("keyword.candidates", len(ranked))
        if report is not None:
            report.query = query
            report.params = {"k1": self.k1, "b": self.b}
            report.stage("documents_indexed", n)
            report.stage("matched", len(ranked), query_tokens=len(q_tokens))
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
