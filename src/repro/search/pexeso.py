"""PEXESO: embedding-based fuzzy joinable search (Dong et al., ICDE'21).

Exact equi-join search misses columns whose values are *semantically* equal
but syntactically different (synonyms, formatting).  PEXESO embeds values
into vectors and declares a query value matched if some candidate value lies
within a cosine threshold; a column is joinable if enough query values
match.  Like the original, the search is exact, and like the original the
heavy work is offline.  Where the paper blocks with pivot-based metric
filtering, this reproduction precomputes the answer to every possible
value match: the build forms the boolean (indexed column x vocabulary)
*reach* matrix ``R = columns @ (V @ V.T >= tau)`` (``R[c, v]``: column c
holds a value within ``tau`` of vocabulary value v), and a query reads only
``R[:, qids]``.  Every query id is a vocabulary id (out-of-vocabulary values
are dropped), so a column's match count is its number of stored entries in
that slice.  An indexed column queried by reference reads its own id
segment as the query.  ``tau`` is therefore fixed at build
(``PexesoConfig`` is frozen); ``exact_fuzzy_join_fraction`` stays the
brute-force reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

from repro.datalake.lake import DataLake
from repro.datalake.table import Column, ColumnRef
from repro.obs import METRICS, TRACER
from repro.search.explain import ExplainReport
from repro.search.results import ColumnResult
from repro.understanding.embedding import EmbeddingSpace


@dataclass(frozen=True)
class PexesoConfig:
    tau: float = 0.8  # cosine threshold for a value match
    sigma: float = 0.5  # fraction of query values that must match
    max_values_per_column: int = 150


#: Vocabulary rows per block of the reach build.  A block's similarity
#: slab is ``REACH_BLOCK x vocabulary`` float32 (3.4 MB at 6,566 values);
#: wider blocks save no time and raise the build's transient peak.
REACH_BLOCK = 128

#: Float32 error bound of the reach build's screen.  A float32 product of
#: two unit vectors of dimension d is within about ``(d + 2) * 2**-24`` of
#: the float64 one (3e-6 at d = 48); only pairs closer than this to ``tau``
#: are compared again in float64.
SCREEN_MARGIN = 1e-5


def reach_matrix(columns: csr_matrix, vectors: np.ndarray, tau: float) -> csc_matrix:
    """Boolean ``columns @ (vectors @ vectors.T >= tau)`` as CSC.

    ``columns`` is the (column x vocabulary) membership matrix and
    ``vectors`` the unit vocabulary rows.  The Gram matrix is never formed:
    slab ``a:b`` matches rows ``a:b`` against values ``a:`` only and keeps
    each pair inside the slab once, so the slabs hold the upper triangle
    of the value-match matrix, and adding its transpose ORs in the rest.
    A float32 product screens each slab; a pair within ``SCREEN_MARGIN``
    of ``tau`` is decided by its float64 dot.
    """
    n = vectors.shape[0]
    screen = vectors.astype(np.float32)
    upper_half = np.triu(np.ones((REACH_BLOCK, REACH_BLOCK), dtype=bool))
    counts, parts = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int32)]
    for a in range(0, n, REACH_BLOCK):
        b = min(a + REACH_BLOCK, n)
        sims = screen[a:b] @ screen[a:].T
        near = sims >= tau - SCREEN_MARGIN
        near[:, : b - a] &= upper_half[: b - a, : b - a]
        # A flat nonzero is several times faster than a 2-d one.
        flat = np.flatnonzero(near)
        rows, cols = np.divmod(flat, n - a)
        unsure = np.flatnonzero(sims.ravel()[flat] < tau + SCREEN_MARGIN)
        if len(unsure):
            r, c = rows[unsure] + a, cols[unsure] + a
            miss = unsure[np.einsum("ij,ij->i", vectors[r], vectors[c]) < tau]
            rows, cols = np.delete(rows, miss), np.delete(cols, miss)
        counts.append(np.bincount(rows, minlength=b - a))
        parts.append((cols + a).astype(np.int32))
    indices = np.concatenate(parts)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    upper = csr_matrix(
        (np.ones(len(indices), dtype=bool), indices, indptr), shape=(n, n)
    )
    return (columns @ (upper + upper.T)).tocsc()


def reach_counts(reach: csc_matrix, qids: np.ndarray) -> np.ndarray:
    """Stored entries per row of ``reach[:, qids]`` (a repeated id counts
    each time), read from the CSC index arrays without slicing."""
    starts = reach.indptr[qids]
    sizes = reach.indptr[qids + 1] - starts
    # Position k of the gathered run of query id i is starts[i] + k.
    offsets = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    picked = reach.indices[offsets + np.arange(len(offsets))]
    return np.bincount(picked, minlength=reach.shape[0])


class PexesoIndex:
    """Exact fuzzy-join index over a lake's text columns."""

    def __init__(self, space: EmbeddingSpace, config: PexesoConfig | None = None):
        self.space = space
        self.config = config or PexesoConfig()
        #: (indexed column x vocabulary) boolean membership: row j's indices
        #: are column j's rows of ``space.vectors`` (its id segment)
        self._columns: csr_matrix | None = None
        #: (indexed column x vocabulary) boolean reach matrix: column j
        #: reaches value v if one of its values lies within ``tau`` of v
        self._reach: csc_matrix | None = None
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
        self._reach = reach_matrix(self._columns, self.space.vectors, self.config.tau)
        METRICS.inc("index.pexeso.ids_indexed", len(ids))
        METRICS.inc("index.pexeso.columns_indexed", len(self._refs))
        return self

    def stats(self) -> dict:
        """Introspection: indexed columns, the id array and the reach matrix."""
        from repro.obs.introspect import summarize_distribution

        cols, reach = self._columns, self._reach
        return {
            "columns": len(self._refs),
            "ids": 0 if cols is None else cols.nnz,
            "dim": self.space.dim,
            "ids_per_column": summarize_distribution(
                [] if cols is None else np.diff(cols.indptr).tolist()
            ),
            "id_bytes": 0 if cols is None else cols.indices.nbytes,
            "reach_nnz": 0 if reach is None else reach.nnz,
            "reach_bytes": 0
            if reach is None
            else sum(a.nbytes for a in (reach.data, reach.indices, reach.indptr)),
        }

    def search(
        self,
        column: Column,
        k: int = 10,
        exclude_table: str | None = None,
        report: ExplainReport | None = None,
        ref: ColumnRef | None = None,
    ) -> list[ColumnResult]:
        """Top-k fuzzy-joinable columns by exact match fraction.

        Block and verify are one lookup: the query's vocabulary ids select
        ``R[:, qids]`` from the build-time reach matrix, a column's match
        count is its number of entries in that slice, and its score is the
        share of query values it matches.  No similarity is computed here.
        Columns with at least one match are the blocked candidates; those
        scoring >= sigma are results.  ``ref``, when it is an indexed
        column, is the query's lake address: its stored id segment is the
        query.  A given ``report`` gets the query, the params and the
        funnel.
        """
        if self._reach is None:
            raise RuntimeError("call build() before searching")
        cfg = self.config
        cols = self._columns
        row = None if ref is None else self._rows.get(ref)
        TRACER.current().set("by_ref", row is not None)
        if row is None:
            qids = self._value_ids(column)
        else:
            qids = cols.indices[cols.indptr[row] : cols.indptr[row + 1]]
        matched = reach_counts(self._reach, qids)
        blocked = [
            j
            for j in np.flatnonzero(matched).tolist()
            if self._refs[j].table != exclude_table
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
        if report is not None:
            report.query = f"column<{len(qids)} vectors>"
            report.params = {"tau": cfg.tau, "sigma": cfg.sigma, "by_ref": row is not None}
            report.stage("columns_indexed", len(self._refs))
            report.stage("columns_blocked", len(blocked))
            # Blocking computes every blocked column's exact fraction.
            report.stage("candidates_verified", len(blocked))
            report.stage("passed_sigma", len(results))
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
