"""Table Union Search (TUS) behind the engine protocol (§2.5)."""

from __future__ import annotations

from repro.core.engine import register_engine
from repro.engines.union_base import UnionIndexEngine
from repro.search.union_tus import TableUnionSearch, TusConfig


@register_engine
class TusEngine(UnionIndexEngine):
    """Ensemble attribute-unionability search (set / sem / nl measures)
    over the ``column_sets`` foundation's columns and signature rows."""

    name = "tus"
    depends_on = ("join_index", "embeddings")
    kind = "signature-matrix"
    items_key = "columns"

    def build(self) -> None:
        ctx = self.ctx
        if ctx.column_sets is None:
            return
        self.raw = TableUnionSearch(
            ctx.lake,
            ontology=ctx.ontology,
            space=ctx.space,
            config=TusConfig(measure=ctx.config.union_measure),
        ).build(ctx.column_sets)
