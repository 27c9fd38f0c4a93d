"""Joinable table search facade (survey §2.4).

Wires the sketches and JOSIE over a DataLake's text columns and exposes the
three classic strategies side by side:

* ``exact_topk``        — JOSIE: exact top-k by overlap;
* ``containment``       — LSH Ensemble: approximate containment threshold;
* ``jaccard_baseline``  — plain MinHash-LSH on Jaccard, the measure shown to
  be biased against large columns (the motivation for LSH Ensemble).

Also provides Das Sarma-style schema-complement scoring of the joined pair.

The LSH Ensemble is keyed by JOSIE key id, so containment verification
reads each candidate's set straight from JOSIE's token-set store.

Every query method takes the query column by value and, optionally, its
lake address ``ref``.  When ``ref`` is an indexed column the query reads
what the build stored for it (JOSIE's forward token row, the stored
MinHash rows) instead of re-reading and re-signing the cells; results are
the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datalake.lake import DataLake
from repro.datalake.table import Column, ColumnRef
from repro.obs import METRICS, TRACER
from repro.search.explain import ExplainReport, summarize_results
from repro.search.josie import JosieIndex
from repro.search.results import ColumnResult
from repro.sketch.lsh import MinHashLSH
from repro.sketch.lshensemble import LSHEnsemble
from repro.sketch.minhash import MinHash


@dataclass
class JoinSearchConfig:
    num_perm: int = 128
    num_partitions: int = 8
    lsh_threshold: float = 0.5
    min_column_size: int = 2


class JoinableSearch:
    """Column-level joinable search over all text columns of a lake."""

    def __init__(self, lake: DataLake, config: JoinSearchConfig | None = None):
        self.lake = lake
        self.config = config or JoinSearchConfig()
        self._josie = JosieIndex()
        self._ensemble: LSHEnsemble | None = None
        self._jaccard_lsh: MinHashLSH | None = None
        self._built = False

    # -- offline ----------------------------------------------------------------

    def build(self) -> "JoinableSearch":
        """Index every text column: JOSIE sets, MinHashes, LSH structures."""
        cfg = self.config
        columns = []
        for ref, col in self.lake.iter_text_columns():
            values = col.value_set()
            if len(values) < cfg.min_column_size:
                continue
            self._josie.insert(ref, values)
            mh = MinHash.from_values(values, num_perm=cfg.num_perm)
            columns.append((ref, mh, len(values)))
        # The ensemble keeps lake order but stores key ids (a build-time map).
        key_id = {ref: i for i, ref in enumerate(self._josie.keys)}
        self._ensemble = LSHEnsemble(
            num_partitions=cfg.num_partitions, num_perm=cfg.num_perm
        )
        self._ensemble.index([(key_id[ref], mh, n) for ref, mh, n in columns])
        self._jaccard_lsh = MinHashLSH(
            threshold=cfg.lsh_threshold, num_perm=cfg.num_perm
        )
        for ref, mh, _ in columns:
            self._jaccard_lsh.insert(ref, mh)
        self._built = True
        METRICS.inc("index.minhash.signatures_built", len(columns))
        return self

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("call build() before querying")

    # Public views over the three underlying indexes, so introspection and
    # the engine adapters never reach into private attributes.
    @property
    def josie(self) -> JosieIndex:
        """The JOSIE exact-overlap index."""
        return self._josie

    @property
    def ensemble(self) -> LSHEnsemble | None:
        """The LSH Ensemble containment filter (built), keyed by JOSIE key
        id."""
        return self._ensemble

    @property
    def jaccard_lsh(self) -> MinHashLSH | None:
        """The plain Jaccard MinHash-LSH baseline index (built)."""
        return self._jaccard_lsh

    @property
    def indexed_columns(self) -> int:
        """Number of text columns indexed by all three structures."""
        return len(self._josie)

    def stats(self) -> dict:
        """Introspection over the three join indexes this facade holds."""
        self._require_built()
        return {
            "columns": len(self._josie),
            "josie": self._josie.stats(),
            "lshensemble": self._ensemble.stats(),
            "jaccard_lsh": self._jaccard_lsh.stats(),
        }

    # -- online -------------------------------------------------------------------

    def _key(self, ref: ColumnRef | None) -> int | None:
        """JOSIE key id of the query's address (``None``: by value, or a
        column that is not indexed); marks the path on the current span."""
        key = None if ref is None else self._josie.key_id(ref)
        TRACER.current().set("by_ref", key is not None)
        return key

    def _signed(
        self, column: Column, ref: ColumnRef | None
    ) -> tuple[MinHash, int, np.ndarray, bool]:
        """``(signature, set size, token ids, by_ref)`` of the query column:
        the ensemble's stored row and JOSIE's forward row for an indexed
        ``ref``, else signed and looked up from the cells."""
        store = self._josie.inverted
        key = self._key(ref)
        if key is not None:
            mh, size = self._ensemble.entry(key)
            return mh, size, store.row(key), True
        values = column.value_set()
        mh = MinHash.from_values(values, num_perm=self.config.num_perm)
        return mh, len(values), store.token_ids(values), False

    def exact_topk(
        self,
        column: Column,
        k: int = 10,
        exclude_table: str | None = None,
        explain: bool = False,
        ref: ColumnRef | None = None,
    ):
        """JOSIE exact top-k joinable columns by overlap with the query.

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        self._require_built()
        exclude = None if exclude_table is None else (
            lambda cand: cand.table == exclude_table
        )
        key = self._key(ref)
        if key is None:
            values = column.value_set()
            size = len(values)
            raw, stats = self._josie.topk_with_stats(values, k, exclude)
        else:
            size = self._josie.inverted.size_of(key)
            raw, stats = self._josie.topk_of_key(key, k, exclude)
        # JOSIE ranks by (overlap desc, str(key)): already ColumnResult order.
        out = [ColumnResult(cand, overlap / max(size, 1)) for cand, overlap in raw]
        if explain:
            report = ExplainReport(
                "josie",
                query=f"column<{size} values>",
                k=k,
                params={
                    "query_tokens": stats["query_tokens"],
                    "posting_lists_read": stats["posting_lists_read"],
                    "posting_entries_read": stats["posting_entries_read"],
                    "by_ref": key is not None,
                },
            )
            report.stage("indexed_sets", len(self._josie))
            report.stage("candidates_examined", stats["candidates_examined"])
            report.stage("verified", stats["sets_verified"])
            report.stage("positive_overlap", len(raw))
            report.stage("returned", len(out))
            report.results = summarize_results(out)
            return out, report
        return out

    def containment(
        self,
        column: Column,
        threshold: float = 0.5,
        exclude_table: str | None = None,
        explain: bool = False,
        ref: ColumnRef | None = None,
    ):
        """LSH Ensemble candidates verified to containment >= threshold.

        The ensemble is the filter; verification is *exact* against the
        stored value sets (the standard filter-verify architecture), so
        precision is 1.0 and recall is bounded only by the filter.
        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        self._require_built()
        mh, size, tids, by_ref = self._signed(column, ref)
        candidates = self._ensemble.query(mh, size, threshold)
        store, keys = self._josie.inverted, self._josie.keys
        mask = store.token_mask(tids)
        out = []
        checked = 0
        for i in candidates:
            cand = keys[i]
            if exclude_table is not None and cand.table == exclude_table:
                continue
            checked += 1
            containment = store.overlap(i, mask) / max(size, 1)
            if containment >= threshold:
                out.append(ColumnResult(cand, containment))
        METRICS.inc("search.containment.candidates_checked", checked)
        METRICS.inc("search.containment.candidates_pruned", checked - len(out))
        sp = TRACER.current()
        sp.set("containment.candidates_checked", checked)
        sp.set("containment.results", len(out))
        out = sorted(out)
        if explain:
            report = ExplainReport(
                "lshensemble",
                query=f"column<{size} values>",
                k=0,
                params={
                    "threshold": threshold,
                    "num_perm": self.config.num_perm,
                    "num_partitions": self.config.num_partitions,
                    "by_ref": by_ref,
                },
            )
            report.stage("indexed_columns", len(self._josie))
            report.stage("candidates", len(candidates))
            report.stage("checked", checked)
            report.stage("passed_threshold", len(out))
            report.results = summarize_results(out)
            return out, report
        return out

    def containment_candidates(
        self, column: Column, threshold: float = 0.5
    ) -> list[ColumnRef]:
        """Unverified LSH Ensemble candidate set (recall measurement)."""
        self._require_built()
        mh, size, _, _ = self._signed(column, None)
        keys = self._josie.keys
        return [keys[i] for i in self._ensemble.query(mh, size, threshold)]

    def jaccard_baseline(
        self,
        column: Column,
        exclude_table: str | None = None,
        ref: ColumnRef | None = None,
    ) -> list[ColumnResult]:
        """Plain Jaccard-threshold LSH (the biased baseline of E2)."""
        self._require_built()
        mh = None if ref is None else self._jaccard_lsh.signature(ref)
        TRACER.current().set("by_ref", mh is not None)
        if mh is None:
            mh = MinHash.from_values(column.value_set(), num_perm=self.config.num_perm)
        hits = self._jaccard_lsh.query_verified(mh)
        return [
            ColumnResult(cand, score)
            for cand, score in hits
            if exclude_table is None or cand.table != exclude_table
        ]

    # -- schema complement ------------------------------------------------------------

    def schema_complement_score(
        self, query_table_name: str, candidate: ColumnRef
    ) -> float:
        """Das Sarma-style benefit of joining: how many *new* attributes the
        candidate table adds, weighted by join-key coverage."""
        self._require_built()
        query_table = self.lake.table(query_table_name)
        cand_table = self.lake.table(candidate.table)
        query_headers = {h.lower() for h in query_table.header}
        new_attrs = sum(
            1 for h in cand_table.header if h.lower() not in query_headers
        )
        return new_attrs / max(cand_table.num_cols, 1)
