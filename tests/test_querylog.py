"""Tests for the structured query log: ring buffer, JSONL sink, integration."""

import json

import pytest

from repro import obs
from repro.core.config import DiscoveryConfig
from repro.core.errors import ConfigError, LakeError
from repro.core.system import DiscoverySystem
from repro.datalake.generate import make_join_corpus
from repro.datalake.lake import ColumnRef
from repro.obs.querylog import QueryLog, QueryRecord, load_jsonl
from repro.search.explain import summarize_results
from repro.search.keyword import KeywordHit


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.QUERY_LOG.configure(capacity=1024, sink="")
    obs.reset()


class TestRing:
    def test_capacity_bounds_records(self):
        log = QueryLog(capacity=3)
        for i in range(10):
            log.append(QueryRecord(engine="e", query=f"q{i}", latency_ms=0.1))
        assert len(log.records()) == 3
        assert [r.query for r in log.records()] == ["q7", "q8", "q9"]
        assert log.total == 10

    def test_tail(self):
        log = QueryLog()
        for i in range(5):
            log.append(QueryRecord(engine="e", query=f"q{i}", latency_ms=0.1))
        assert [r.query for r in log.tail(2)] == ["q3", "q4"]

    def test_append_stamps_timestamp(self):
        log = QueryLog()
        log.append(QueryRecord(engine="e", query="q", latency_ms=0.1))
        assert log.records()[0].ts > 0

    def test_to_dicts_and_jsonl(self):
        log = QueryLog()
        log.append(
            QueryRecord(
                engine="josie",
                query="t[0]",
                k=5,
                latency_ms=1.25,
                results=[("other", 0.5)],
                funnel={"candidates": 10, "returned": 1},
            )
        )
        (d,) = log.to_dicts()
        assert d["engine"] == "josie"
        assert d["funnel"]["candidates"] == 10
        line = log.to_jsonl().strip()
        assert json.loads(line)["results"] == [["other", 0.5]]

    def test_configure_reshapes_capacity(self):
        log = QueryLog(capacity=8)
        for i in range(8):
            log.append(QueryRecord(engine="e", query=f"q{i}", latency_ms=0.1))
        log.configure(capacity=2)
        assert len(log.records()) == 2
        assert log.capacity == 2

    def test_jsonl_sink(self, tmp_path):
        sink = tmp_path / "queries.jsonl"
        log = QueryLog()
        log.configure(sink=str(sink))
        log.append(QueryRecord(engine="e", query="a", latency_ms=0.1))
        log.append(QueryRecord(engine="e", query="b", latency_ms=0.2))
        lines = sink.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["query"] == "b"
        log.configure(sink="")
        log.append(QueryRecord(engine="e", query="c", latency_ms=0.3))
        assert len(sink.read_text().strip().splitlines()) == 2


class TestResourceFields:
    def test_to_dict_includes_cpu_and_memory(self):
        rec = QueryRecord(
            engine="join",
            query="q",
            latency_ms=1.0,
            cpu_ms=0.75,
            mem_peak_kb=128.5,
            funnel={"candidates": 10, "returned": 3},
        )
        d = rec.to_dict()
        assert d["cpu_ms"] == 0.75
        assert d["mem_peak_kb"] == 128.5
        assert d["funnel_total"] == 13
        # Memory accounting is opt-in: no key when it was off.
        assert "mem_peak_kb" not in QueryRecord(
            engine="e", query="q", latency_ms=0.1
        ).to_dict()

    def test_from_dict_round_trip(self):
        rec = QueryRecord(
            engine="join",
            query="q",
            k=5,
            latency_ms=2.5,
            cpu_ms=1.25,
            mem_peak_kb=64.0,
            status="error",
            error="ValueError",
        )
        back = QueryRecord.from_dict(rec.to_dict())
        assert back.engine == rec.engine
        assert back.cpu_ms == rec.cpu_ms
        assert back.mem_peak_kb == rec.mem_peak_kb
        assert back.error == "ValueError"

    def test_from_dict_tolerates_old_records(self):
        # Records serialized before cpu/mem fields existed still load.
        back = QueryRecord.from_dict(
            {"engine": "keyword", "query": "q", "latency_ms": 3.0}
        )
        assert back.cpu_ms == 0.0
        assert back.mem_peak_kb is None

    def test_load_jsonl(self, tmp_path):
        from repro.obs.querylog import load_jsonl

        sink = tmp_path / "q.jsonl"
        log = QueryLog()
        log.configure(sink=str(sink))
        log.append(QueryRecord(engine="join", query="a", latency_ms=0.1))
        log.append(QueryRecord(engine="keyword", query="b", latency_ms=0.2))
        records = load_jsonl(str(sink))
        assert [r.engine for r in records] == ["join", "keyword"]


class TestEngineFilter:
    def make_log(self):
        log = QueryLog()
        for i in range(4):
            log.append(QueryRecord(engine="join", query=f"j{i}", latency_ms=0.1))
        for i in range(2):
            log.append(
                QueryRecord(engine="keyword", query=f"k{i}", latency_ms=0.1)
            )
        return log

    def test_records_and_tail_filter(self):
        log = self.make_log()
        assert len(log.records(engine="join")) == 4
        assert [r.query for r in log.tail(1, engine="keyword")] == ["k1"]
        assert log.records(engine="nope") == []

    def test_engines_enumeration(self):
        assert self.make_log().engines() == ["join", "keyword"]

    def test_to_dicts_filter(self):
        dicts = self.make_log().to_dicts(engine="keyword")
        assert [d["query"] for d in dicts] == ["k0", "k1"]


class TestReset:
    def test_obs_reset_clears_query_log(self):
        """Satellite regression: reset() must clear the ring, not just
        metrics and traces."""
        obs.QUERY_LOG.append(
            QueryRecord(engine="e", query="stale", latency_ms=0.1)
        )
        assert obs.QUERY_LOG.total == 1
        obs.reset()
        assert obs.QUERY_LOG.total == 0
        assert obs.QUERY_LOG.records() == []


class TestSystemIntegration:
    @pytest.fixture(scope="class")
    def system(self, union_corpus):
        config = DiscoveryConfig(embedding_dim=16, num_partitions=4)
        return DiscoverySystem(union_corpus.lake, config).build()

    def test_queries_are_logged_with_funnel(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        system.keyword_search("concept", k=3)
        system.joinable_search(ColumnRef(qname, 0), k=3)
        records = obs.QUERY_LOG.records()
        engines = [r.engine for r in records]
        assert engines == ["keyword", "join"]
        for r in records:
            assert r.status == "ok"
            assert r.latency_ms >= 0
            assert r.query
        # explain=True enriches the log with the funnel
        system.joinable_search(ColumnRef(qname, 0), k=3, explain=True)
        last = obs.QUERY_LOG.records()[-1]
        assert last.funnel and "returned" in last.funnel

    def test_navigate_is_logged(self, system):
        tables = system.navigate("concept_000")
        assert system.navigate("") is not None  # any text answers
        first, last = obs.QUERY_LOG.records()[-2:]
        assert (first.engine, first.query, first.status) == ("navigate", "concept_000", "ok")
        assert [ident for ident, _ in first.results] == tables[:20]
        assert (last.engine, last.query, last.status) == ("navigate", "", "ok")

    def test_navigate_logs_no_k(self, system, union_corpus):
        """Navigation ranks no top-k: its record and span carry no ``k``,
        while keyword and join queries keep theirs."""
        qname = union_corpus.groups[0][0]
        obs.TRACER.enable()
        try:
            system.navigate("concept_000")
            system.keyword_search("concept", k=3)
            system.joinable_search(ColumnRef(qname, 0), k=4)
        finally:
            obs.TRACER.disable()
        records = obs.QUERY_LOG.records()[-3:]
        assert [(r.engine, r.k) for r in records] == [
            ("navigate", 0), ("keyword", 3), ("join", 4),
        ]
        spans = {s.name: s.attrs for s in obs.TRACER.roots()}
        assert "k" not in spans["query.navigate"]
        assert spans["query.keyword"]["k"] == 3
        assert spans["query.join"]["k"] == 4

    def test_navigate_unavailable_raises_and_is_logged(self, union_corpus):
        with pytest.raises(LakeError, match="call build\\(\\) first"):
            DiscoverySystem(union_corpus.lake).navigate("x")
        skipped = DiscoverySystem(
            union_corpus.lake, DiscoveryConfig(enable_embeddings=False)
        ).build(skip={"navigation"})
        with pytest.raises(
            LakeError,
            match="stage 'navigation' was skipped at build time: organization unavailable",
        ):
            skipped.navigate("x")
        last = obs.QUERY_LOG.records()[-1]
        assert (last.engine, last.status, last.error) == ("navigate", "error", "LakeError")

    def test_failed_query_logged_as_error(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        with pytest.raises(ConfigError):
            system.joinable_search(ColumnRef(qname, 0), method="bogus")
        last = obs.QUERY_LOG.records()[-1]
        assert last.status == "error"
        assert last.error == "ConfigError"

    def test_cpu_time_recorded(self, system):
        system.keyword_search("concept", k=3)
        last = obs.QUERY_LOG.records()[-1]
        assert last.cpu_ms >= 0
        assert last.cpu_ms <= last.latency_ms * 10  # sanity: same magnitude
        assert "cpu_ms" in last.to_dict()

    def test_memory_accounting_opt_in(self, system):
        try:
            assert not obs.memory_accounting_enabled()
            system.keyword_search("concept", k=3)
            assert obs.QUERY_LOG.records()[-1].mem_peak_kb is None
            obs.enable_memory_accounting()
            assert obs.memory_accounting_enabled()
            system.keyword_search("concept", k=3)
            peak = obs.QUERY_LOG.records()[-1].mem_peak_kb
            assert peak is not None and peak >= 0
        finally:
            obs.disable_memory_accounting()
        assert not obs.memory_accounting_enabled()

    def test_report_includes_querylog(self, system):
        system.keyword_search("concept")
        out = obs.report()
        assert out["querylog"]
        assert out["querylog"][-1]["engine"] == "keyword"


# -- records summarize their hits when read ------------------------------------------

_TIMED = ("ts", "latency_ms", "cpu_ms")


def _untimed(d: dict) -> dict:
    return {key: v for key, v in d.items() if key not in _TIMED}


def _expected(engine, query, k, hits, report=None, status="ok", error=None):
    """The record dict a query logs: the summary of its first 20 hits, made
    when the query returns (or the report's, with the report's funnel)."""
    results = summarize_results(list(hits))[:20] if report is None else report.results
    d = {
        "engine": engine,
        "query": query,
        "k": k,
        "status": status,
        "results": [[str(i), float(s)] for i, s in results],
    }
    if report is not None and report.counts():
        d["funnel"] = report.counts()
        d["funnel_total"] = sum(report.counts().values())
    if error:
        d["error"] = error
    return d


@pytest.fixture(scope="module")
def union_system(union_corpus):
    config = DiscoveryConfig(embedding_dim=16, num_partitions=4)
    return DiscoverySystem(
        union_corpus.lake, config, ontology=union_corpus.ontology
    ).build()


@pytest.fixture(scope="module")
def join_system():
    lake = make_join_corpus(n_tables=24, n_queries=2, base_size=300, seed=3).lake
    config = DiscoveryConfig(enable_embeddings=False, num_partitions=4)
    return DiscoverySystem(lake, config).build()


def _queries(union_system, join_system, union_corpus):
    """``(engine label, query repr, k, call)`` for every engine the facade
    reaches; ``call(explain)`` runs the query."""
    us, js = union_system, join_system
    qname = union_corpus.groups[0][0]
    ref = ColumnRef(qname, 0)
    table = union_corpus.lake.table(qname)
    return [
        ("keyword", "concept", 10, lambda ex: us.keyword_search("concept", explain=ex)),
        # 24 hits: the record keeps the first 20.
        ("keyword", "attr", 30, lambda ex: js.keyword_search("attr", k=30, explain=ex)),
        ("join", str(ref), 5, lambda ex: us.joinable_search(ref, k=5, explain=ex)),
        ("join", str(ref), 5, lambda ex: us.joinable_search(
            ref, k=5, method="containment", threshold=0.3, explain=ex)),
        ("fuzzy_join", str(ref), 5, lambda ex: us.fuzzy_joinable_search(ref, k=5, explain=ex)),
        ("multi_attribute", f"{qname}[0]", 5, lambda ex: us.multi_attribute_search(
            table, [0], k=5, explain=ex)),
        *[
            ("union", qname, 5, lambda ex, m=m: us.unionable_search(
                qname, k=5, method=m, explain=ex))
            for m in ("tus", "santos", "starmie")
        ],
        ("correlated", "query_000[0,2]", 5, lambda ex: js.correlated_search(
            "query_000", 0, 2, k=5, explain=ex)),
    ]


class TestResultsSummarizedWhenRead:
    def test_every_engine_with_and_without_explain(
        self, union_system, join_system, union_corpus
    ):
        expected = []
        for engine, query, k, call in _queries(union_system, join_system, union_corpus):
            for explain in (False, True):
                out = call(explain)
                hits, report = out if explain else (out, None)
                assert hits, (engine, query)
                if report is not None:
                    assert report.results == summarize_results(hits)[:20]
                expected.append(_expected(engine, query, k, hits, report))
        qname = union_corpus.groups[0][0]
        hits = union_system.search(qname, k=25)
        expected.append(_expected("federated", qname, 25, hits))
        tables = union_system.navigate("concept_000")
        expected.append(_expected("navigate", "concept_000", 0, tables))
        records = obs.QUERY_LOG.records()
        assert [_untimed(r.to_dict()) for r in records] == expected
        assert len(records[2].results) == 20  # "attr": 24 hits, 20 kept

    def test_returned_list_changed_afterwards(self, union_system, join_system):
        hits = join_system.keyword_search("attr", k=30)
        want = summarize_results(list(hits))
        hits[0] = KeywordHit("elsewhere", 99.0)
        hits.append(KeywordHit("late", 1.0))
        record = obs.QUERY_LOG.records()[-1]
        assert record.results == want
        tables = union_system.navigate("concept_000")
        want = summarize_results(list(tables))
        tables.clear()
        assert obs.QUERY_LOG.records()[-1].results == want
        assert want

    def test_partial_federated_query(self, union_system, union_corpus, monkeypatch):
        qname = union_corpus.groups[0][0]

        def boom(request):
            raise RuntimeError("index corrupted")

        monkeypatch.setattr(union_system.engines["tus"], "query", boom)
        hits = union_system.search(qname, k=5)
        (record,) = obs.QUERY_LOG.records()
        assert _untimed(record.to_dict()) == _expected(
            "federated", qname, 5, hits, status="partial",
            error="tus: RuntimeError",
        )

    def test_failing_query(self, union_system, union_corpus, monkeypatch):
        qname = union_corpus.groups[0][0]

        def boom(request):
            raise RuntimeError("index corrupted")

        monkeypatch.setattr(union_system.engines["keyword"], "query", boom)
        with pytest.raises(RuntimeError):
            union_system.keyword_search("concept", k=3)
        with pytest.raises(ConfigError):
            union_system.unionable_search(qname, method="bogus")
        assert [_untimed(r.to_dict()) for r in obs.QUERY_LOG.records()] == [
            _expected("keyword", "concept", 3, [], status="error", error="RuntimeError"),
            _expected("union", qname, 10, [], status="error", error="ConfigError"),
        ]

    def test_jsonl_sink_and_round_trip(
        self, union_system, join_system, union_corpus, tmp_path
    ):
        sink = tmp_path / "queries.jsonl"
        obs.QUERY_LOG.configure(sink=str(sink))
        expected = []
        for engine, query, k, call in _queries(union_system, join_system, union_corpus):
            expected.append(_expected(engine, query, k, call(False)))
        lines = [json.loads(line) for line in sink.read_text().splitlines()]
        assert [_untimed(line) for line in lines] == expected
        loaded = load_jsonl(str(sink))
        assert [r.results for r in loaded] == [
            [(i, s) for i, s in d["results"]] for d in expected
        ]
        assert [_untimed(r.to_dict()) for r in loaded] == expected

    def test_record_built_from_hits_or_results(self):
        hits = (KeywordHit("a", 1.0 / 3), KeywordHit("b", 0.25))
        record = QueryRecord(engine="keyword", hits=hits)
        assert record.results == [("a", 0.333333), ("b", 0.25)]
        assert record.results is record.results  # summarized once
        assert QueryRecord(engine="e", results=[("x", 1.0)]).results == [("x", 1.0)]
        assert QueryRecord(engine="e").results == []
        assert QueryRecord(engine="keyword", hits=hits) == record
