"""Jaccard MinHash-LSH baseline behind the engine protocol (§2.4).

The plain Jaccard-threshold baseline of experiment E2 — the measure shown
to be biased against large columns, kept indexed beside JOSIE and LSH
Ensemble for comparison.  Registering it makes it addressable by the
federated dispatcher and introspectable like every other engine.
"""

from __future__ import annotations

from repro.core.engine import QueryRequest, register_engine
from repro.engines.join_base import JoinIndexEngine
from repro.obs import TRACER
from repro.search.results import ColumnResult
from repro.sketch.lsh import MinHashLSH
from repro.sketch.minhash import MinHash


@register_engine
class JaccardLshEngine(JoinIndexEngine):
    """Plain MinHash-LSH on Jaccard similarity (the biased baseline)."""

    name = "jaccard_lsh"
    kind = "banded-lsh"

    def build(self) -> None:
        """Band the foundation's signature rows as they are (no copy)."""
        sets = self.ctx.column_sets
        self.raw = MinHashLSH(num_perm=sets.config.num_perm)
        self.raw.insert_rows(sets.refs, sets.sigs)

    def serve(self, request: QueryRequest, report):
        """Columns whose estimated Jaccard with the query reaches the
        index threshold, best first, the top k kept."""
        ref = request.column_ref
        mh = None if ref is None else self.raw.signature(ref)
        TRACER.current().set("by_ref", mh is not None)
        if mh is None:
            mh = MinHash.from_values(
                request.column.value_set(), num_perm=self.raw.num_perm
            )
        exclude_table = request.exclude_table
        # query_verified ranks by (-score, str(key)): ColumnResult order.
        hits = [
            ColumnResult(cand, score)
            for cand, score in self.raw.query_verified(mh)
            if exclude_table is None or cand.table != exclude_table
        ]
        return hits[: request.k]
