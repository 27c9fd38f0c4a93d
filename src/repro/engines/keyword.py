"""Keyword (BM25 metadata) search behind the engine protocol (§2.3)."""

from __future__ import annotations

from repro.core.engine import Engine, QueryRequest, register_engine
from repro.search.keyword import KeywordSearchEngine


@register_engine
class KeywordEngine(Engine):
    """GOODS-style BM25 ranking over table metadata and headers."""

    name = "keyword"
    stage = "keyword_index"
    query_label = "keyword"
    kind = "bm25"
    items_key = "documents"

    def build(self) -> None:
        self.raw = KeywordSearchEngine()
        self.raw.index_lake(self.ctx.lake)

    def accepts(self, request: QueryRequest) -> bool:
        return bool(request.text)

    def serve(self, request: QueryRequest, report):
        return self.raw.search(request.text, request.k, report=report)
