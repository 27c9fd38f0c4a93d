"""LSH Ensemble containment search behind the engine protocol (§2.4)."""

from __future__ import annotations

from typing import Any

from repro.core.engine import QueryRequest, as_pair, register_engine
from repro.engines.join_base import JoinIndexEngine
from repro.search.explain import summarize_results


@register_engine
class LshEnsembleEngine(JoinIndexEngine):
    """Approximate containment-threshold join search (LSH Ensemble),
    verified exactly against the stored sets (filter-verify)."""

    name = "lshensemble"
    kind = "partitioned-lsh"
    items_key = "keys"

    def memory_object(self) -> Any:
        return self.raw.ensemble

    def query(self, request: QueryRequest):
        threshold = request.threshold
        if threshold is None:
            threshold = self.ctx.config.containment_threshold
        hits, report = as_pair(
            self.raw.containment(
                request.column,
                threshold,
                exclude_table=request.exclude_table,
                explain=request.explain,
                ref=request.column_ref,
            ),
            request.explain,
        )
        # Containment has no k: trim here and close the funnel with it.
        hits = hits[: request.k]
        if report is not None:
            report.k = request.k
            report.stage("returned", len(hits))
            report.results = summarize_results(hits)
        return hits, report
