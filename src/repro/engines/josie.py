"""JOSIE exact top-k overlap search behind the engine protocol (§2.4)."""

from __future__ import annotations

from typing import Any

from repro.core.engine import QueryRequest, register_engine
from repro.engines.join_base import JoinIndexEngine


@register_engine
class JosieEngine(JoinIndexEngine):
    """Exact top-k joinable columns by set overlap (JOSIE), answered from
    the ``column_sets`` store."""

    name = "josie"
    kind = "csr-token-sets"

    def build(self) -> None:
        self.raw = self.ctx.column_sets

    def memory_object(self) -> Any:
        return self.raw.josie

    def serve(self, request: QueryRequest, report):
        return self.raw.exact_topk(
            request.column,
            request.k,
            exclude_table=request.exclude_table,
            report=report,
            ref=request.column_ref,
        )
