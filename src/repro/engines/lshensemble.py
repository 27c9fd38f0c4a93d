"""LSH Ensemble containment search behind the engine protocol (§2.4)."""

from __future__ import annotations

from repro.core.engine import EngineContext, QueryRequest, register_engine
from repro.engines.join_base import JoinIndexEngine
from repro.obs import METRICS, TRACER
from repro.search.results import ColumnResult
from repro.sketch.lshensemble import LSHEnsemble
from repro.sketch.minhash import MinHash


@register_engine
class LshEnsembleEngine(JoinIndexEngine):
    """Approximate containment-threshold join search (LSH Ensemble),
    verified exactly against the ``column_sets`` store (filter-verify)."""

    name = "lshensemble"
    kind = "partitioned-lsh"

    def build(self, ctx: EngineContext) -> None:
        """Partition the foundation's signature rows, keyed by JOSIE key id
        (so verification reads each candidate's set from the store)."""
        self.ctx = ctx
        sets = ctx.column_sets
        self.raw = LSHEnsemble(
            num_partitions=ctx.config.num_partitions, num_perm=sets.config.num_perm
        )
        self.raw.index_rows(sets.ids.tolist(), sets.sigs, sets.sizes)

    def serve(self, request: QueryRequest, report):
        """LSH Ensemble candidates verified to containment >= threshold,
        best first, the top k kept.

        An indexed address reads the ensemble's stored row and the store's
        forward row; any other column is signed and looked up from its
        cells.  Verification is *exact* against the stored value sets (the
        standard filter-verify architecture), so precision is 1.0 and
        recall is bounded only by the filter."""
        threshold = request.threshold
        if threshold is None:
            threshold = self.ctx.config.containment_threshold
        exclude_table = request.exclude_table
        sets = self.ctx.column_sets
        store, keys = sets.josie.inverted, sets.josie.keys
        key = sets.key_of(request.column_ref)
        if key is None:
            values = request.column.value_set()
            mh = MinHash.from_values(values, num_perm=self.raw.num_perm)
            size, tids = len(values), store.token_ids(values)
        else:
            mh, size = self.raw.entry(key)
            tids = store.row(key)
        candidates = self.raw.query(mh, size, threshold)
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
        if report is not None:
            report.query = f"column<{size} values>"
            report.params = {
                "threshold": threshold,
                "num_perm": self.raw.num_perm,
                "num_partitions": self.raw.num_partitions,
                "by_ref": key is not None,
            }
            report.stage("indexed_columns", len(keys))
            report.stage("candidates", len(candidates))
            report.stage("checked", checked)
            report.stage("passed_threshold", len(out))
        # Containment has no k: trim here.  The key is ColumnResult.__lt__'s
        # order, with each ref formatted once instead of per comparison.
        out.sort(key=lambda r: (-r.score, str(r.ref)))
        return out[: request.k]
