"""Tests for BM25 metadata keyword search."""

import math
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalake.generate import make_keyword_corpus, make_union_corpus
from repro.datalake.lake import DataLake
from repro.datalake.table import Table, tokenize
from repro.obs import METRICS
from repro.search.auctus import AuctusSearch
from repro.search.explain import ExplainReport
from repro.search.keyword import KeywordHit, KeywordSearchEngine


@pytest.fixture(scope="module")
def kw_corpus():
    return make_keyword_corpus(n_topics=4, tables_per_topic=6, seed=3)


@pytest.fixture(scope="module")
def engine(kw_corpus):
    e = KeywordSearchEngine()
    e.index_lake(kw_corpus.lake)
    return e


class TestSearch:
    def test_topic_query_finds_topic_tables(self, kw_corpus, engine):
        hits = engine.search("topic1", k=10)
        names = {h.table for h in hits}
        assert names & kw_corpus.truth["topic1"]
        # Topic-1 tables should dominate the top ranks.
        top3 = [h.table for h in hits[:3]]
        assert all(t in kw_corpus.truth["topic1"] for t in top3)

    def test_scores_descending(self, engine):
        hits = engine.search("topic2 annual report", k=10)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_no_match_empty(self, engine):
        assert engine.search("zzz qqq xxx") == []

    def test_multi_term_beats_single(self, engine):
        multi = engine.search("topic0 agency", k=1)
        single = engine.search("topic0", k=1)
        assert multi and single
        assert multi[0].score >= single[0].score

    def test_k_respected(self, engine):
        assert len(engine.search("report", k=3)) <= 3

    def test_idf_downweights_common_terms(self, engine):
        # "open" appears in every table's tags (open-data), so it should
        # score lower than a discriminative topic term.
        common = engine.search("open", k=1)
        rare = engine.search("topic3", k=1)
        assert rare[0].score > (common[0].score if common else 0.0)


class TestClustering:
    def test_clusters_group_same_schema(self, engine):
        clusters = engine.search_clustered("topic1", k=10)
        assert clusters
        total = sum(len(c) for c in clusters)
        assert total == len(engine.search("topic1", k=10))

    def test_header_indexing_optional(self, kw_corpus):
        bare = KeywordSearchEngine(include_headers=False)
        bare.index_lake(kw_corpus.lake)
        # Header tokens ("attr"-style) shouldn't be findable now.
        assert bare.search("attr") == []


class TestValueIndexing:
    def test_octopus_mode_reaches_cell_data(self, kw_corpus):
        """include_values=True finds tables whose metadata never mentions
        the query term but whose cells do."""
        meta_only = KeywordSearchEngine(include_values=False)
        meta_only.index_lake(kw_corpus.lake)
        with_values = KeywordSearchEngine(include_values=True)
        with_values.index_lake(kw_corpus.lake)
        # Cell values look like d003_v00017 -> token "d003".
        some_table = next(iter(kw_corpus.lake))
        cell = some_table.columns[1].non_null_values()[0]
        token = cell.split("_")[0]
        assert meta_only.search(token) == []
        assert with_values.search(token)

    def test_value_token_budget_respected(self, kw_corpus):
        tiny = KeywordSearchEngine(include_values=True, max_value_tokens=5)
        tiny.index_lake(kw_corpus.lake)
        big = KeywordSearchEngine(include_values=True, max_value_tokens=500)
        big.index_lake(kw_corpus.lake)
        assert sum(tiny._doc_len.values()) < sum(big._doc_len.values())


class TestEdgeCases:
    def test_empty_lake(self):
        e = KeywordSearchEngine()
        e.index_lake(DataLake())
        assert e.search("anything") == []

    def test_table_without_metadata_still_indexed(self):
        lake = DataLake(
            [Table.from_dict("plain", {"alpha": ["1"], "beta": ["2"]})]
        )
        e = KeywordSearchEngine()
        e.index_lake(lake)
        assert [h.table for h in e.search("alpha")] == ["plain"]

    def test_metadata_description_searchable(self):
        lake = DataLake(
            [
                Table.from_dict(
                    "doc",
                    {"c": ["1"]},
                )
            ]
        )
        lake.table("doc").metadata.description = "quarterly finance summary"
        e = KeywordSearchEngine()
        e.index_lake(lake)
        assert [h.table for h in e.search("finance")] == ["doc"]


class TestDocsScored:
    """``search.keyword.docs_scored`` counts the documents the query
    tokens' postings reached, not every indexed document."""

    @pytest.fixture(scope="class")
    def engine(self):
        lake = DataLake(
            [
                Table.from_dict(f"t{i}", {"zebra" if i < 2 else f"col{i}": ["1"]})
                for i in range(5)
            ]
        )
        e = KeywordSearchEngine()
        e.index_lake(lake)
        return e

    @pytest.mark.parametrize("query, reached", [("zebra", 2), ("okapi", 0)])
    def test_adds_documents_reached(self, engine, query, reached):
        before = METRICS.counter("search.keyword.docs_scored")
        engine.search(query)
        assert METRICS.counter("search.keyword.docs_scored") - before == reached


class TestReindex:
    """``index_lake`` rebuilds from empty: a second call on the same lake
    must not count each document frequency twice (which drove idf below
    zero and emptied every result list)."""

    def test_second_index_lake_answers_the_same(self, kw_corpus):
        e = KeywordSearchEngine()
        e.index_lake(kw_corpus.lake)
        first = e.search("topic1 annual", k=50)
        stats = e.stats()
        e.index_lake(kw_corpus.lake)
        assert first
        assert e.search("topic1 annual", k=50) == first
        assert e.stats() == stats

    def test_reindex_drops_tables_no_longer_in_the_lake(self, kw_corpus):
        e = KeywordSearchEngine()
        e.index_lake(kw_corpus.lake)
        keep = [t for t in kw_corpus.lake if t.name not in kw_corpus.truth["topic1"]]
        e.index_lake(DataLake(keep))
        assert e.search("topic1") == []
        assert e.stats()["documents"] == len(keep)

    def test_auctus_build_twice_answers_the_same(self, kw_corpus):
        auctus = AuctusSearch(kw_corpus.lake).build()
        once = auctus.search("topic2")
        assert once
        assert auctus.build().search("topic2") == once


# -- BM25 over postings against the per-document loop it replaced -------------------


def _reference_counts(engine: KeywordSearchEngine, lake) -> dict[str, Counter]:
    """Each table's term counts, tokenized as ``index_lake`` does."""
    docs = {}
    for table in lake:
        tokens = tokenize(table.metadata.text())
        if engine.include_headers:
            for h in table.header:
                tokens.extend(tokenize(h))
        if engine.include_values:
            budget = engine.max_value_tokens
            for _, col in table.text_columns():
                for value in col.non_null_values():
                    value_tokens = tokenize(value)
                    tokens.extend(value_tokens[:budget])
                    budget -= len(value_tokens)
                    if budget <= 0:
                        break
                if budget <= 0:
                    break
        docs[table.name] = Counter(tokens)
    return docs


def _reference_search(engine, docs, query: str) -> list[KeywordHit]:
    """Every hit, ranked, by the loop over every document that scored
    BM25 before the index held postings."""
    n = len(docs)
    df: Counter = Counter()
    for counts in docs.values():
        for t in counts:
            df[t] += 1
    doc_len = {name: sum(c.values()) for name, c in docs.items()}
    avg_len = (sum(doc_len.values()) / n) if n else 0.0
    q_tokens = tokenize(query)
    hits = []
    for name, counts in docs.items():
        score = 0.0
        dl = doc_len[name]
        for t in q_tokens:
            tf = counts.get(t, 0)
            if tf == 0:
                continue
            denom = tf + engine.k1 * (
                1 - engine.b + engine.b * dl / max(avg_len, 1e-9)
            )
            idf = math.log(1 + (n - df[t] + 0.5) / (df[t] + 0.5))
            score += idf * tf * (engine.k1 + 1) / denom
        if score > 0:
            hits.append(KeywordHit(name, score))
    return sorted(hits)


_LAKES = (
    lambda: make_keyword_corpus(n_topics=4, tables_per_topic=6, seed=3).lake,
    lambda: make_union_corpus(
        n_groups=2, tables_per_group=3, rows_per_table=20, seed=5
    ).lake,
)
_SETTINGS = (
    {},
    {"include_values": True},
    {"include_headers": False},
    {"include_values": True, "max_value_tokens": 7},
)


@lru_cache(maxsize=None)
def _indexed(lake_i: int, settings_i: int):
    lake = _LAKES[lake_i]()
    engine = KeywordSearchEngine(**_SETTINGS[settings_i])
    engine.index_lake(lake)
    docs = _reference_counts(engine, lake)
    vocab = sorted({t for counts in docs.values() for t in counts})
    return engine, docs, vocab


@st.composite
def _query(draw):
    """A lake, index settings and a query: tokens of the lake's own
    vocabulary (repeats likely), words no table holds, or nothing."""
    lake_i = draw(st.integers(0, len(_LAKES) - 1))
    settings_i = draw(st.integers(0, len(_SETTINGS) - 1))
    _, _, vocab = _indexed(lake_i, settings_i)
    word = st.one_of(
        st.sampled_from(vocab), st.sampled_from(["zzqq", "nomatch", "-"])
    )
    words = draw(st.lists(word, max_size=6))
    if words and draw(st.booleans()):
        words.append(words[0])  # a repeated query token
    return lake_i, settings_i, " ".join(words)


class TestPostingsMatchPerDocumentLoop:
    @settings(max_examples=150, deadline=None)
    @given(_query(), st.integers(1, 12))
    def test_hits_and_scores_bit_identical(self, case, k):
        lake_i, settings_i, query = case
        engine, docs, _ = _indexed(lake_i, settings_i)
        expected = _reference_search(engine, docs, query)
        report = ExplainReport(engine="keyword")
        assert engine.search(query, k=k, report=report) == expected[:k]
        assert engine.search(query, k=len(docs) + 1) == expected
        assert report.counts() == {
            "documents_indexed": len(docs),
            "matched": len(expected),
        }

    @pytest.mark.parametrize("settings_i", range(len(_SETTINGS)))
    def test_edge_queries(self, settings_i):
        engine, docs, vocab = _indexed(0, settings_i)
        token = vocab[len(vocab) // 2]
        for query in ("", "zzqq nomatch", f"{token} {token} {token}"):
            assert engine.search(query, k=50) == _reference_search(
                engine, docs, query
            )
        assert engine.search("") == []
        assert engine.search("zzqq nomatch") == []
        assert engine.search(f"{token} {token}")
