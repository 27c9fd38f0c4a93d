"""The join side's foundation and the base of its three engines (§2.4).

The ``column_sets`` foundation indexes the lake's join columns once per
build (:class:`~repro.search.joinable.ColumnSets`: JOSIE's token-set store
plus one MinHash row per column).  It is registered just before the join
engines and shares their ``join_index`` stage, so it builds first and
``build(skip={"join_index"})`` skips the whole join side.  JOSIE answers
from the store; LSH Ensemble and the Jaccard LSH each build their own
filter over the rows in their own ``build``, so each engine's build time
is its own.  A snapshot pickles the foundation and the engines in one
dump, so pickle's memo keeps them on one store after a reload.
"""

from __future__ import annotations

from repro.core.engine import Engine, QueryRequest, register_engine
from repro.search.joinable import ColumnSets, JoinSearchConfig


@register_engine
class ColumnSetsFoundation(Engine):
    """Token sets and MinHash rows of every indexed text column."""

    name = "column_sets"
    stage = "join_index"
    category = "foundation"
    kind = "column-sets"

    def build(self) -> None:
        ctx = self.ctx
        self.raw = ColumnSets(ctx.lake, JoinSearchConfig(num_perm=ctx.config.num_perm))


class JoinIndexEngine(Engine):
    """Base adapter for the engines over :class:`ColumnSets` (read through
    ``ctx.column_sets``); each subclass reports (``stats``/
    ``memory_object``) its own structure."""

    stage = "join_index"
    query_label = "join"
    items_key = "keys"

    def accepts(self, request: QueryRequest) -> bool:
        return request.column is not None

    def stats(self) -> dict:
        return self.memory_object().stats()
