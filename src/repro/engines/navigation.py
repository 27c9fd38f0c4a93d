"""Lake navigation (DSDO-style organization) behind the engine protocol
(§2.6)."""

from __future__ import annotations

from typing import Any

from repro.core.engine import Engine, QueryRequest, register_engine
from repro.graph.organize import Organization


@register_engine
class NavigationEngine(Engine):
    """The lake-wide navigation hierarchy (:attr:`raw`, an
    :class:`Organization`) over table embedding vectors."""

    name = "organization"
    stage = "navigation"
    depends_on = ("embeddings",)
    category = "navigation"
    query_label = "navigate"
    kind = "navigation-tree"
    items_key = "tables"

    def __init__(self, ctx=None) -> None:
        super().__init__(ctx)
        self.table_vectors: dict = {}

    def build(self) -> None:
        ctx = self.ctx
        if ctx.space is None:
            return
        for table in ctx.lake:
            values = [
                v
                for _, col in table.text_columns()
                for v in col.non_null_values()[:50]
            ]
            self.table_vectors[table.name] = ctx.space.embed_set(values)
        if self.table_vectors:
            cfg = ctx.config
            self.raw = Organization.build(
                self.table_vectors,
                branching=cfg.org_branching,
                max_leaf_size=cfg.org_max_leaf,
            )

    def stats(self) -> dict:
        return {"tables": len(self.table_vectors)}

    def accepts(self, request: QueryRequest) -> bool:
        return request.text is not None

    def serve(self, request: QueryRequest, report):
        """Navigate toward free-text intent; hits are the (unscored)
        table names at the reached node."""
        intent = self.ctx.space.embed_set(request.text.lower().split())
        _, tables = self.raw.navigate(intent)
        return tables

    def to_payload(self) -> Any:
        return {"org": self.raw, "table_vectors": self.table_vectors}

    def from_payload(self, payload: Any) -> None:
        self.raw = payload["org"]
        self.table_vectors = payload["table_vectors"]
