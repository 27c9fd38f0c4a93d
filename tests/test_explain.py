"""Tests for EXPLAIN provenance: funnel consistency across engines."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cli import main
from repro.core.config import DiscoveryConfig
from repro.core.engine import QueryRequest
from repro.core.system import DiscoverySystem
from repro.datalake.generate import make_join_corpus, make_union_corpus
from repro.datalake.lake import ColumnRef
from repro.datalake.table import Column, Table
from repro.search.explain import ExplainReport, summarize_results


@pytest.fixture(scope="module")
def system(union_corpus):
    config = DiscoveryConfig(embedding_dim=32, num_partitions=4)
    return DiscoverySystem(union_corpus.lake, config).build()


@pytest.fixture(scope="module")
def qname(union_corpus):
    return union_corpus.groups[0][0]


def check_report(report, engine: str):
    assert isinstance(report, ExplainReport)
    assert report.engine == engine
    assert report.stages, f"{engine} report has no funnel stages"
    counts = list(report.counts().values())
    assert report.is_monotone(), (
        f"{engine} funnel not monotone: {report.counts()}"
    )
    assert counts[-1] >= 0
    # returned <= every earlier (scored/filtered) stage
    assert all(counts[-1] <= c for c in counts)
    # renders without crashing and mentions each stage
    text = report.render()
    for s in report.stages:
        assert s.name in text


class TestReportMechanics:
    def test_stage_chaining_and_counts(self):
        r = ExplainReport("demo").stage("pool", 100).stage("kept", 7, tau=0.5)
        assert r.counts() == {"pool": 100, "kept": 7}
        assert r.stages[1].detail == {"tau": 0.5}

    def test_is_monotone_detects_growth(self):
        r = ExplainReport("demo").stage("a", 5).stage("b", 9)
        assert not r.is_monotone()

    def test_to_dict_round(self):
        r = ExplainReport("demo", query="q", k=3, params={"x": 1})
        r.stage("pool", 10).stage("kept", 2)
        d = r.to_dict()
        assert d["engine"] == "demo"
        assert d["funnel"][0] == {"stage": "pool", "count": 10}

    def test_summarize_results_handles_plain_objects(self):
        class Hit:
            table = "t1"
            score = 0.25

        assert summarize_results([Hit()]) == [("t1", 0.25)]


class TestEngineFunnels:
    """Satellite: JOSIE / MATE / PEXESO funnels are internally consistent."""

    def test_josie_funnel(self, system, qname):
        hits, report = system.joinable_search(
            ColumnRef(qname, 0), k=5, explain=True
        )
        check_report(report, "josie")
        c = report.counts()
        assert c["verified"] <= c["candidates_examined"] <= c["indexed_sets"]
        assert c["returned"] == len(hits) <= 5

    def test_mate_funnel(self, system, union_corpus, qname):
        query = union_corpus.lake.table(qname)
        hits, report = system.multi_attribute_search(query, [0], k=5, explain=True)
        check_report(report, "mate")
        c = report.counts()
        assert c["rows_passed_filter"] <= c["rows_checked"]
        assert c["tables_matched"] <= c["keys_matched"]
        assert c["returned"] == len(hits) <= 5

    def test_pexeso_funnel(self, system, qname):
        hits, report = system.fuzzy_joinable_search(
            ColumnRef(qname, 0), k=5, explain=True
        )
        check_report(report, "pexeso")
        c = report.counts()
        assert c["columns_blocked"] <= c["columns_indexed"]
        assert c["passed_sigma"] <= c["candidates_verified"]
        assert c["returned"] == len(hits) <= 5


class TestExplainAcrossEngines:
    """Every online path supports explain=True and the hits are unchanged."""

    def test_keyword(self, system):
        hits, report = system.keyword_search("concept", k=5, explain=True)
        check_report(report, "keyword")
        plain = system.keyword_search("concept", k=5)
        assert summarize_results(hits) == summarize_results(plain)

    def test_containment(self, system, qname):
        hits, report = system.joinable_search(
            ColumnRef(qname, 0), k=5, method="containment", explain=True
        )
        check_report(report, "lshensemble")
        plain = system.joinable_search(
            ColumnRef(qname, 0), k=5, method="containment"
        )
        assert summarize_results(hits) == summarize_results(plain)

    def test_union_starmie(self, system, qname):
        hits, report = system.unionable_search(qname, k=5, explain=True)
        check_report(report, "starmie")
        plain = system.unionable_search(qname, k=5)
        assert summarize_results(hits) == summarize_results(plain)

    def test_union_tus(self, system, qname):
        hits, report = system.unionable_search(
            qname, k=5, method="tus", explain=True
        )
        check_report(report, "tus")

    def test_correlated(self, system, qname):
        hits, report = system.correlated_search(qname, 0, 1, k=5, explain=True)
        check_report(report, "qcr")

    def test_explain_false_returns_bare_hits(self, system):
        hits = system.keyword_search("concept", k=5)
        assert not isinstance(hits, tuple)


class TestExplainCli:
    def test_query_explain_prints_funnel(self, union_corpus, tmp_path, capsys):
        lake_dir = tmp_path / "lake"
        union_corpus.lake.save_to_directory(lake_dir)
        qname = union_corpus.groups[0][0]
        rc = main(
            [
                "query",
                str(lake_dir),
                "--engine",
                "join",
                "--table",
                qname,
                "--explain",
                "-k",
                "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "josie" in out
        assert "candidates_examined" in out
        assert "returned" in out


@functools.lru_cache(maxsize=4)
def _facade_system(kind: str, seed: int) -> DiscoverySystem:
    """Every engine over a small union lake (embeddings, ontology), or the
    engines that build without them over a small join lake."""
    if kind == "union":
        corpus = make_union_corpus(n_groups=2, tables_per_group=3, rows_per_table=20, seed=seed)
        config = DiscoveryConfig(enable_embeddings=True, embedding_min_count=1)
        return DiscoverySystem(corpus.lake, config, ontology=corpus.ontology).build()
    corpus = make_join_corpus(n_tables=24, n_queries=2, base_size=300, seed=seed)
    return DiscoverySystem(corpus.lake, DiscoveryConfig(enable_embeddings=False)).build()


def _copy_table(table: Table) -> Table:
    columns = [Column(c.name, list(c.values)) for c in table.columns]
    return Table(table.name, columns, table.metadata)


def _facade_calls(system: DiscoverySystem, name: str, pick: int, by_ref: bool) -> dict:
    """One call per engine, taking ``k`` and ``explain``: the facade's, or
    for the Jaccard LSH the request the federated facade builds.  By
    reference the query is the lake's table name or ``ColumnRef``; by copy
    it is an equal copy of the table or column."""
    table = system.lake.table(name)
    width = table.num_cols
    index = pick % width
    ref = ColumnRef(name, index)
    tq = name if by_ref else _copy_table(table)
    cq = ref if by_ref else tq.columns[index]

    def jaccard_lsh(k, explain=False):
        request = QueryRequest(column=system.lake.column(ref) if by_ref else cq,
                               exclude_table=name, k=k, explain=explain)
        request.address = ref if by_ref else None
        hits, report = system.engines["jaccard_lsh"].query(request)
        return (hits, report) if explain else hits

    def union(method):
        return lambda **kw: system.unionable_search(tq, method=method, **kw)

    return {
        "keyword": lambda **kw: system.keyword_search(table.columns[index].name, **kw),
        "josie": lambda **kw: system.joinable_search(cq, method="exact", **kw),
        "lshensemble": lambda **kw: system.joinable_search(cq, method="containment", **kw),
        "jaccard_lsh": jaccard_lsh,
        "pexeso": lambda **kw: system.fuzzy_joinable_search(cq, **kw),
        "mate": lambda **kw: system.multi_attribute_search(tq, sorted({0, index}), **kw),
        "qcr": lambda **kw: system.correlated_search(tq, index, (index + 2) % width, **kw),
        "tus": union("tus"),
        "starmie": union("starmie"),
        "santos": union("santos"),
    }


class TestFacadeFunnelProperty:
    """Every engine the facade reaches, by reference and by copy, on small
    generated union and join lakes: the funnel is monotone and closed by
    ``returned == len(hits)``, the report names the engine and ``k`` and
    summarizes the hits, and explaining does not change the hits."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["union", "join"]),
        seed=st.sampled_from([1, 4]),
        pick=st.integers(0, 10_000),
        by_ref=st.booleans(),
        k=st.integers(1, 8),
    )
    def test_funnel_closed_once(self, kind, seed, pick, by_ref, k):
        system = _facade_system(kind, seed)
        names = system.lake.table_names()
        name = names[pick % len(names)]
        calls = _facade_calls(system, name, pick, by_ref)
        served = [
            e.name for e in system.engines.values() if e.category == "search" and e.is_built()
        ]
        assert set(served) <= set(calls)
        for engine in served:
            hits, report = calls[engine](k=k, explain=True)
            assert report.is_monotone(), (engine, report.counts())
            assert report.stages[-1].name == "returned"
            assert report.stages[-1].count == len(hits) <= k
            assert (report.engine, report.k) == (engine, k)
            assert report.results == summarize_results(hits)
            assert calls[engine](k=k) == hits


class TestMinimalFunnels:
    """Engines and exits without a funnel of their own still get the one
    ``Engine.query`` closes.  (The Jaccard LSH's is checked by the property
    above.)"""

    def test_navigation(self):
        system = _facade_system("union", 1)
        hits, report = system.engines["organization"].query(
            QueryRequest(text="concept_000", k=3, explain=True)
        )
        assert hits == system.navigate("concept_000")
        assert (report.engine, report.k) == ("organization", 3)
        assert report.counts() == {"returned": len(hits)}
        assert report.results == summarize_results(hits)

    def test_empty_exits_are_closed(self):
        """MATE with no usable query key and Starmie with no embeddable
        query column return nothing, and say so."""
        system = _facade_system("union", 1)
        nulls = Table.from_dict("nq", {"k": ["N/A", "null"], "j": ["-", "?"]})
        hits, report = system.multi_attribute_search(nulls, [0, 1], explain=True)
        assert hits == [] and report.query == "<no usable query keys>"
        assert report.counts() == {"returned": 0}
        numbers = Table.from_dict("nums", {"n": ["1", "2", "3"]})
        hits, report = system.unionable_search(numbers, method="starmie", explain=True)
        assert hits == [] and report.counts() == {"returned": 0}
        assert report.params == {"by_ref": False}
