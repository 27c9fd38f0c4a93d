"""QCR joinable-and-correlated search behind the engine protocol (§2.4)."""

from __future__ import annotations

from repro.core.engine import Engine, QueryRequest, register_engine
from repro.search.correlated import CorrelatedSearch


@register_engine
class QcrEngine(Engine):
    """Correlation-sketch search: joinable tables whose joined column
    correlates with the query's value column."""

    name = "qcr"
    stage = "correlation_index"
    query_label = "correlated"
    kind = "correlation-sketch"
    items_key = "sketches"

    def build(self) -> None:
        self.raw = CorrelatedSearch(
            sketch_size=self.ctx.config.qcr_sketch_size
        ).build(self.ctx.lake)

    def accepts(self, request: QueryRequest) -> bool:
        return (
            request.table is not None
            and request.key_column is not None
            and request.value_column is not None
        )

    def serve(self, request: QueryRequest, report):
        return self.raw.search(
            request.table,
            request.key_column,
            request.value_column,
            request.k,
            report=report,
            by_ref=request.table_ref is not None,
        )
