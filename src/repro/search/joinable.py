"""The join columns of a lake, indexed once for joinable search (§2.4).

:class:`ColumnSets` holds what the three join engines read, built in one
pass over the lake's text columns:

* JOSIE's CSR token-set store, which answers exact top-k overlap
  (:meth:`ColumnSets.exact_topk`) and verifies LSH Ensemble's candidates;
* one MinHash signature row per column, which LSH Ensemble (containment)
  and the plain Jaccard LSH baseline each build their own filter over.

Each query method takes the query column by value and, optionally, its
lake address ``ref``.  When ``ref`` is an indexed column the query reads
the stored token row instead of re-reading the cells; results are the
same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.datalake.lake import DataLake
from repro.datalake.table import Column, ColumnRef
from repro.obs import METRICS, TRACER
from repro.search.explain import ExplainReport
from repro.search.josie import JosieIndex
from repro.search.results import ColumnResult
from repro.sketch.minhash import MinHash


@dataclass
class JoinSearchConfig:
    """Which text columns are indexed, and their signature length."""

    num_perm: int = 128
    min_column_size: int = 2


class ColumnSets:
    """Every text column with at least ``min_column_size`` distinct values:
    its token set in ``josie`` and its MinHash signature in ``sigs``.

    Row ``r`` of the uint64 ``(columns, num_perm)`` matrix ``sigs`` signs
    the column with JOSIE key id ``ids[r]``; rows follow lake order.
    """

    def __init__(self, lake: DataLake, config: JoinSearchConfig | None = None):
        self.config = cfg = config or JoinSearchConfig()
        self.josie = JosieIndex()
        refs, sigs = [], []
        for ref, col in lake.iter_text_columns():
            values = col.value_set()
            if len(values) < cfg.min_column_size:
                continue
            self.josie.insert(ref, values)
            refs.append(ref)
            sigs.append(MinHash.from_values(values, num_perm=cfg.num_perm).hashvalues)
        key_id = {ref: i for i, ref in enumerate(self.josie.keys)}
        self.ids = np.array([key_id[ref] for ref in refs], dtype=np.int64)
        self.sigs = (
            np.array(sigs, dtype=np.uint64)
            if sigs
            else np.empty((0, cfg.num_perm), dtype=np.uint64)
        )
        METRICS.inc("index.minhash.signatures_built", len(refs))

    @property
    def sizes(self) -> np.ndarray:
        """The set size of each signature row's column."""
        return np.diff(self.josie.inverted.set_offsets)[self.ids]

    @property
    def refs(self) -> list[Hashable]:
        """The column of each signature row."""
        keys = self.josie.keys
        return [keys[i] for i in self.ids.tolist()]

    def stats(self) -> dict:
        return {
            "columns": len(self.ids),
            "num_perm": self.config.num_perm,
            "signature_bytes": int(self.sigs.nbytes),
        }

    def key_of(self, ref: ColumnRef | None) -> int | None:
        """JOSIE key id of the query's address (``None``: by value, or a
        column that is not indexed); marks the path on the current span."""
        key = None if ref is None else self.josie.key_id(ref)
        TRACER.current().set("by_ref", key is not None)
        return key

    def exact_topk(
        self,
        column: Column,
        k: int = 10,
        exclude_table: str | None = None,
        report: ExplainReport | None = None,
        ref: ColumnRef | None = None,
    ) -> list[ColumnResult]:
        """JOSIE exact top-k joinable columns by overlap with the query; a
        given ``report`` gets the query, the read counts and the funnel."""
        exclude = None if exclude_table is None else (
            lambda cand: cand.table == exclude_table
        )
        key = self.key_of(ref)
        if key is None:
            values = column.value_set()
            size = len(values)
            raw, stats = self.josie.topk_with_stats(values, k, exclude)
        else:
            size = self.josie.inverted.size_of(key)
            raw, stats = self.josie.topk_of_key(key, k, exclude)
        # JOSIE ranks by (overlap desc, str(key)): already ColumnResult order.
        out = [ColumnResult(cand, overlap / max(size, 1)) for cand, overlap in raw]
        if report is not None:
            report.query = f"column<{size} values>"
            report.params = {
                "query_tokens": stats["query_tokens"],
                "posting_lists_read": stats["posting_lists_read"],
                "posting_entries_read": stats["posting_entries_read"],
                "by_ref": key is not None,
            }
            report.stage("indexed_sets", len(self.josie))
            report.stage("candidates_examined", stats["candidates_examined"])
            report.stage("verified", stats["sets_verified"])
            report.stage("positive_overlap", len(raw))
        return out
