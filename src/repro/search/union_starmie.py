"""Starmie: contextualized-embedding unionable table search (Fan et al., 2022).

Columns are encoded with table-context-aware representations
(``ContextualColumnEncoder``).  Retrieval is an exact scan: every indexed
column vector is a row of one matrix, a single product scores all query
columns against all of them, each query column keeps its top candidates,
and the same scores are aggregated into table scores with the greedy
matcher.  An indexed lake table queried by reference reads its columns'
rows of that matrix instead of being encoded again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datalake.lake import DataLake
from repro.datalake.table import ColumnRef, Table
from repro.obs import METRICS, TRACER
from repro.search.aggregate import table_unionability
from repro.search.explain import ExplainReport
from repro.search.results import TableResult
from repro.understanding.contextual import ContextualColumnEncoder


@dataclass
class StarmieConfig:
    candidates_per_column: int = 20
    alignment: str = "greedy"


class StarmieUnionSearch:
    """Contextual column embeddings + exact scan + greedy aggregation."""

    def __init__(
        self,
        encoder: ContextualColumnEncoder,
        config: StarmieConfig | None = None,
    ):
        self.encoder = encoder
        self.config = config or StarmieConfig()
        #: every indexed column vector, one row each, in ``str(ref)`` order
        self._matrix: np.ndarray | None = None
        self._refs: list[ColumnRef] = []
        #: table name -> its indexed columns' matrix rows, by column index
        self._table_rows: dict[str, list[int]] = {}

    # -- offline -----------------------------------------------------------------

    def build(self, lake: DataLake) -> "StarmieUnionSearch":
        vectors: dict[ColumnRef, np.ndarray] = {}
        for table in lake:
            vecs = self.encoder.encode_table(table)
            for i, col in enumerate(table.columns):
                if col.is_numeric or np.linalg.norm(vecs[i]) == 0:
                    continue
                vectors[ColumnRef(table.name, i)] = vecs[i]
        self._refs = sorted(vectors, key=str)
        self._matrix = np.array([vectors[ref] for ref in self._refs]).reshape(
            len(self._refs), self.encoder.space.dim
        )
        row_of = {ref: row for row, ref in enumerate(self._refs)}
        # `vectors` is in lake order: each table's columns by index.
        self._table_rows = {}
        for ref in vectors:
            self._table_rows.setdefault(ref.table, []).append(row_of[ref])
        METRICS.inc("index.starmie.columns_indexed", len(self._refs))
        return self

    def stats(self) -> dict:
        """Introspection: indexed columns and the size of the vector matrix."""
        return {
            "columns": len(self._refs),
            "dim": self.encoder.space.dim,
            "matrix_bytes": 0 if self._matrix is None else self._matrix.nbytes,
        }

    # -- retrieval -------------------------------------------------------------------

    def search(
        self,
        query: Table,
        k: int = 10,
        report: ExplainReport | None = None,
        by_ref: bool = False,
    ) -> list[TableResult]:
        """Top-k unionable tables by aggregated contextual-cosine alignment.

        ``Q @ M.T`` scores every query column against every indexed column
        once.  Each query column keeps its ``candidates_per_column`` best
        columns (a stable sort, so ties break by ``str(ref)``), and each
        candidate table's alignment matrix is read from the same scores.
        ``by_ref`` says ``query`` is the indexed lake table of that name:
        its query columns are then its indexed columns and ``Q`` their
        rows of ``M``, with nothing encoded.  A given ``report`` gets the
        query, the params and the funnel.
        """
        if self._matrix is None:
            raise RuntimeError("call build() before searching")
        rows = self._table_rows.get(query.name) if by_ref else None
        by_ref = rows is not None
        TRACER.current().set("by_ref", by_ref)
        if by_ref:
            qmatrix = self._matrix[rows]
        else:
            qvecs = self.encoder.encode_table(query)
            qmatrix = np.array(
                [
                    qvecs[i]
                    for i, col in enumerate(query.columns)
                    if not col.is_numeric and np.linalg.norm(qvecs[i]) > 0
                ]
            )
        if report is not None:
            report.query = query.name
            report.params = {"by_ref": by_ref}
        if not len(qmatrix):
            return []
        scores = qmatrix @ self._matrix.T
        # Gather per-table candidate columns (column index -> matrix row).
        table_cols: dict[str, dict[int, int]] = {}
        top = np.argsort(-scores, axis=1, kind="stable")[:, : self.config.candidates_per_column]
        candidates_examined = top.size
        for row in top.ravel().tolist():
            ref = self._refs[row]
            if ref.table != query.name:
                table_cols.setdefault(ref.table, {})[ref.index] = row
        results = []
        for name, rows_by_col in table_cols.items():
            cols = sorted(rows_by_col)
            rows = [rows_by_col[ci] for ci in cols]
            total, pairs = table_unionability(
                np.maximum(scores[:, rows], 0.0), method=self.config.alignment
            )
            if total > 0:
                alignment = tuple((qi, cols[cj], s) for qi, cj, s in pairs)
                results.append(TableResult(name, total, alignment))
        METRICS.inc("search.starmie.queries")
        METRICS.inc("search.starmie.candidates_examined", candidates_examined)
        METRICS.inc("search.starmie.tables_scored", len(table_cols))
        sp = TRACER.current()
        sp.set("starmie.candidates_examined", candidates_examined)
        sp.set("starmie.tables_scored", len(table_cols))
        out = sorted(results)[:k]
        if report is not None:
            report.params = {
                "candidates_per_column": self.config.candidates_per_column,
                "query_columns": len(qmatrix),
                "by_ref": by_ref,
            }
            report.stage("candidate_probes", candidates_examined)
            report.stage("tables_scored", len(table_cols))
            report.stage("positive_alignment", len(results))
        return out
