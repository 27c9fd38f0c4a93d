"""MATE multi-attribute join search behind the engine protocol (§2.4)."""

from __future__ import annotations

from repro.core.engine import Engine, QueryRequest, register_engine
from repro.search.mate import MateIndex


@register_engine
class MateEngine(Engine):
    """Composite-key joinable search via inverted cell postings and a
    super-key row filter."""

    name = "mate"
    stage = "mate_index"
    query_label = "multi_attribute"
    kind = "inverted+super-key"
    items_key = "rows"

    def build(self) -> None:
        self.raw = MateIndex()
        self.raw.index_lake(self.ctx.lake)

    def accepts(self, request: QueryRequest) -> bool:
        return request.table is not None and bool(request.key_columns)

    def serve(self, request: QueryRequest, report):
        return self.raw.search(
            request.table, list(request.key_columns), request.k, report=report
        )
