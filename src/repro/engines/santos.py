"""SANTOS relationship-semantics union search behind the engine protocol
(§2.5)."""

from __future__ import annotations

from repro.core.engine import register_engine
from repro.engines.union_base import UnionIndexEngine
from repro.search.union_santos import SantosUnionSearch


@register_engine
class SantosEngine(UnionIndexEngine):
    """Ontology relationship-intent union search (needs an ontology)."""

    name = "santos"
    depends_on = ("annotation",)
    kind = "semantic-graph"
    items_key = "tables"

    def build(self) -> None:
        ctx = self.ctx
        if ctx.ontology is None:
            return
        self.raw = SantosUnionSearch(ctx.ontology).build(ctx.lake)
