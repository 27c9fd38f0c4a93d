"""Starmie embedding-based union search behind the engine protocol (§2.5)."""

from __future__ import annotations

from repro.core.engine import register_engine
from repro.engines.union_base import UnionIndexEngine
from repro.search.union_starmie import StarmieUnionSearch


@register_engine
class StarmieEngine(UnionIndexEngine):
    """Contextual column embeddings + exact vector scan."""

    name = "starmie"
    depends_on = ("embeddings",)
    kind = "vector-scan"
    items_key = "columns"

    def build(self) -> None:
        ctx = self.ctx
        if ctx.encoder is None:
            return
        self.raw = StarmieUnionSearch(ctx.lake, ctx.encoder).build()
