"""The base of the union engines (§2.5): TUS, Starmie and SANTOS each
answer a query table with one ``search`` call, by reference when the
facade resolved the table to the lake's own."""

from __future__ import annotations

from repro.core.engine import Engine, QueryRequest


class UnionIndexEngine(Engine):
    """Base adapter for the table-in, tables-out union engines."""

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
