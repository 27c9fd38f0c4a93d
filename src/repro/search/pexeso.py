"""PEXESO: embedding-based fuzzy joinable search (Dong et al., ICDE'21).

Exact equi-join search misses columns whose values are *semantically* equal
but syntactically different (synonyms, formatting).  PEXESO embeds values
into vectors and declares a query value matched if some candidate value lies
within a cosine threshold; a column is joinable if enough query values
match.  Like the original, the search is exact.  Where the paper blocks with
pivot-based metric filtering, this reproduction blocks and verifies in one
numpy pass: every indexed value is a row id of the embedding space's one
vector matrix, a single product scores the query values against it, and
one boolean sparse product with the (column x vocabulary) membership
matrix ORs each column's hits into its exact match fraction.  An indexed
column queried by reference reads its own id segment as the query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from repro.datalake.lake import DataLake
from repro.datalake.table import Column, ColumnRef
from repro.obs import METRICS, TRACER
from repro.search.explain import ExplainReport, summarize_results
from repro.search.results import ColumnResult
from repro.understanding.embedding import EmbeddingSpace


@dataclass
class PexesoConfig:
    tau: float = 0.8  # cosine threshold for a value match
    sigma: float = 0.5  # fraction of query values that must match
    max_values_per_column: int = 150


class PexesoIndex:
    """Exact fuzzy-join index over a lake's text columns."""

    def __init__(self, space: EmbeddingSpace, config: PexesoConfig | None = None):
        self.space = space
        self.config = config or PexesoConfig()
        #: (indexed column x vocabulary) boolean membership: row j's indices
        #: are column j's rows of ``space.vectors`` (its id segment)
        self._columns: csr_matrix | None = None
        #: the indexed columns in row order, and each one's row
        self._refs: list[ColumnRef] = []
        self._rows: dict[ColumnRef, int] = {}

    def _value_ids(self, column: Column) -> np.ndarray:
        """Vocabulary rows of the column's first ``max_values_per_column``
        sorted distinct values (out-of-vocabulary values are skipped)."""
        return self.space.ids(
            sorted(column.value_set())[: self.config.max_values_per_column]
        )

    def build(self, lake: DataLake) -> "PexesoIndex":
        indexed = [
            (ref, ids)
            for ref, col in lake.iter_text_columns()
            if len(ids := self._value_ids(col))
        ]
        self._refs = [ref for ref, _ in indexed]
        self._rows = {ref: j for j, ref in enumerate(self._refs)}
        ids = np.concatenate([np.zeros(0, dtype=np.int32)] + [ids for _, ids in indexed])
        indptr = np.zeros(len(indexed) + 1, dtype=np.int32)
        np.cumsum([len(ids) for _, ids in indexed], out=indptr[1:])
        self._columns = csr_matrix(
            (np.ones(len(ids), dtype=bool), ids, indptr),
            shape=(len(indexed), len(self.space.vocab)),
        )
        METRICS.inc("index.pexeso.ids_indexed", len(ids))
        METRICS.inc("index.pexeso.columns_indexed", len(self._refs))
        return self

    def stats(self) -> dict:
        """Introspection: indexed columns and the size of the id array."""
        from repro.obs.introspect import summarize_distribution

        cols = self._columns
        return {
            "columns": len(self._refs),
            "ids": 0 if cols is None else cols.nnz,
            "dim": self.space.dim,
            "ids_per_column": summarize_distribution(
                [] if cols is None else np.diff(cols.indptr).tolist()
            ),
            "id_bytes": 0 if cols is None else cols.indices.nbytes,
        }

    def search(
        self,
        column: Column,
        k: int = 10,
        exclude_table: str | None = None,
        explain: bool = False,
        ref: ColumnRef | None = None,
    ):
        """Top-k fuzzy-joinable columns by exact match fraction.

        Block and verify are one step: ``Q @ V.T >= tau`` marks every
        (query value, vocabulary value) match, the boolean product of the
        column membership matrix with it ORs those into (column, query
        value) matches, and a column's score is the share of query values
        it matches.  Columns with at least one match are the blocked
        candidates; those scoring >= sigma are results.  ``ref``, when it
        is an indexed column, is the query's lake address: its stored id
        segment is the query.  With ``explain=True`` returns
        ``(hits, ExplainReport)``.
        """
        if self._columns is None:
            raise RuntimeError("call build() before searching")
        cfg = self.config
        cols = self._columns
        row = None if ref is None else self._rows.get(ref)
        TRACER.current().set("by_ref", row is not None)
        if row is None:
            qids = self._value_ids(column)
        else:
            qids = cols.indices[cols.indptr[row] : cols.indptr[row + 1]]
        vectors = self.space.vectors  # unit rows: dot = cosine
        hit = vectors[qids] @ vectors.T >= cfg.tau
        matched = (cols @ hit.T).sum(axis=1)
        blocked = [
            j
            for j, cand in enumerate(self._refs)
            if matched[j] and cand.table != exclude_table
        ]
        results = []
        for j in blocked:
            frac = float(matched[j] / len(qids))
            if frac >= cfg.sigma:
                results.append(ColumnResult(self._refs[j], frac))
        METRICS.inc("search.pexeso.queries")
        METRICS.inc("search.pexeso.columns_blocked", len(blocked))
        METRICS.inc("search.pexeso.candidates_verified", len(blocked))
        METRICS.inc("search.pexeso.results_returned", len(results))
        sp = TRACER.current()
        sp.set("pexeso.columns_blocked", len(blocked))
        sp.set("pexeso.candidates_verified", len(blocked))
        out = sorted(results)[:k]
        if explain:
            report = ExplainReport(
                "pexeso",
                query=f"column<{len(qids)} vectors>",
                k=k,
                params={"tau": cfg.tau, "sigma": cfg.sigma, "by_ref": row is not None},
            )
            report.stage("columns_indexed", len(self._refs))
            report.stage("columns_blocked", len(blocked))
            # Blocking computes every blocked column's exact fraction.
            report.stage("candidates_verified", len(blocked))
            report.stage("passed_sigma", len(results))
            report.stage("returned", len(out))
            report.results = summarize_results(out)
            return out, report
        return out


def exact_fuzzy_join_fraction(
    space: EmbeddingSpace,
    query_values: set[str],
    candidate_values: set[str],
    tau: float,
    cap: int = 150,
) -> float:
    """Brute-force reference: fraction of query values with a fuzzy match."""
    qv = [space.vector(v) for v in sorted(query_values)[:cap]]
    cv = [space.vector(v) for v in sorted(candidate_values)[:cap]]
    qv = [v for v in qv if v is not None]
    cv = [v for v in cv if v is not None]
    if not qv or not cv:
        return 0.0
    q = np.vstack(qv)
    c = np.vstack(cv)
    sims = q @ c.T
    return float(np.mean(sims.max(axis=1) >= tau))
