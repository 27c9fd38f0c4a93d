"""PEXESO fuzzy-join search behind the engine protocol (§2.4)."""

from __future__ import annotations

from repro.core.engine import Engine, QueryRequest, register_engine
from repro.search.pexeso import PexesoIndex


@register_engine
class PexesoEngine(Engine):
    """Exact embedding-space fuzzy joinable search."""

    name = "pexeso"
    stage = "union_index"
    depends_on = ("embeddings",)
    query_label = "fuzzy_join"
    kind = "vector-scan"
    items_key = "columns"

    def build(self) -> None:
        # PEXESO is built only when the embeddings stage ran.
        space = self.ctx.space
        if space is None:
            return
        self.raw = PexesoIndex(space).build(self.ctx.lake)

    def accepts(self, request: QueryRequest) -> bool:
        return request.column is not None

    def serve(self, request: QueryRequest, report):
        return self.raw.search(
            request.column,
            request.k,
            exclude_table=request.exclude_table,
            report=report,
            ref=request.column_ref,
        )
