"""Shared base for the three join engines (JOSIE, LSH Ensemble, and the
Jaccard-LSH baseline).

All three are views over one :class:`~repro.search.joinable.JoinableSearch`
— a single pass over the lake's text columns builds the JOSIE sets, the
MinHash signatures, and both LSH structures together.  The shared instance
lives in the :class:`EngineContext`'s shared-structure memo during the
build, and pickles once in snapshots (pickle's memo keeps the three
engines pointing at the same object across a save/load round-trip).
"""

from __future__ import annotations

from repro.core.engine import Engine, EngineContext, QueryRequest
from repro.search.joinable import JoinableSearch, JoinSearchConfig


def shared_joinable(ctx: EngineContext) -> JoinableSearch:
    """Build-or-get the stage-shared :class:`JoinableSearch`."""

    def factory() -> JoinableSearch:
        cfg = ctx.config
        return JoinableSearch(
            ctx.lake,
            JoinSearchConfig(
                num_perm=cfg.num_perm, num_partitions=cfg.num_partitions
            ),
        ).build()

    return ctx.shared("join_index", factory)


class JoinIndexEngine(Engine):
    """Base adapter for engines backed by the shared JoinableSearch; each
    subclass reports (``stats``/``memory_object``) its own structure."""

    stage = "join_index"
    query_label = "join"

    def build(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        self.raw = shared_joinable(ctx)

    def accepts(self, request: QueryRequest) -> bool:
        return request.column is not None

    def stats(self) -> dict:
        return self.memory_object().stats()
