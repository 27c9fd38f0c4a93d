"""The base of the union engines (§2.5): TUS, Starmie and SANTOS each
answer a query table with one ``search`` call, by reference when the
facade resolved the table to the lake's own."""

from __future__ import annotations

import copy
from typing import Any

from repro.core.engine import Engine, QueryRequest


class UnionIndexEngine(Engine):
    """Base adapter for the table-in, tables-out union engines.

    Each index keeps the lake it searches as ``raw.lake``.  A snapshot
    saves the lake once, by itself, so the payload is the index without
    it, and a restore hands the index the system's lake."""

    stage = "union_index"
    query_label = "union"

    def accepts(self, request: QueryRequest) -> bool:
        return request.table is not None

    def serve(self, request: QueryRequest, report):
        return self.raw.search(
            request.table,
            request.k,
            report=report,
            by_ref=request.table_ref is not None,
        )

    def to_payload(self) -> Any:
        raw = copy.copy(self.raw)
        raw.lake = None
        return raw

    def from_payload(self, payload: Any) -> None:
        super().from_payload(payload)
        payload.lake = self.ctx.lake
