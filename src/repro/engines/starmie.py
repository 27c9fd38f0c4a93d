"""Starmie embedding-based union search behind the engine protocol (§2.5)."""

from __future__ import annotations

from repro.core.engine import (
    Engine,
    EngineContext,
    QueryRequest,
    as_pair,
    register_engine,
)
from repro.search.union_starmie import StarmieUnionSearch


@register_engine
class StarmieEngine(Engine):
    """Contextual column embeddings + exact vector scan."""

    name = "starmie"
    stage = "union_index"
    depends_on = ("embeddings",)
    query_label = "union"
    kind = "vector-scan"
    items_key = "columns"

    def build(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        if ctx.encoder is None:
            return
        self.raw = StarmieUnionSearch(ctx.lake, ctx.encoder).build()

    def accepts(self, request: QueryRequest) -> bool:
        return request.table is not None

    def query(self, request: QueryRequest):
        return as_pair(
            self.raw.search(
                request.table,
                request.k,
                explain=request.explain,
                by_ref=request.table_ref is not None,
            ),
            request.explain,
        )
