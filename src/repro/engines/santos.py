"""SANTOS relationship-semantics union search behind the engine protocol
(§2.5)."""

from __future__ import annotations

from repro.core.engine import (
    Engine,
    EngineContext,
    QueryRequest,
    as_pair,
    register_engine,
)
from repro.search.union_santos import SantosUnionSearch


@register_engine
class SantosEngine(Engine):
    """Ontology relationship-intent union search (needs an ontology)."""

    name = "santos"
    stage = "union_index"
    depends_on = ("annotation",)
    query_label = "union"
    kind = "semantic-graph"

    def build(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        if ctx.ontology is None:
            return
        self.raw = SantosUnionSearch(ctx.lake, ctx.ontology).build()

    def stats(self) -> dict:
        return {"tables": self.ctx.system.stats.tables}

    def items(self, stats: dict) -> int:
        return int(stats["tables"])

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
