"""Integration tests: the obs layer wired through the Figure-1 stack.

Builds one traced DiscoverySystem, runs one query per online engine, and
checks the span tree and metric counters the instrumentation promises.
Also exercises the CLI surfaces (``repro profile``, ``--profile``).
"""

import json

import pytest

from repro import obs
from repro.core.cli import main
from repro.core.config import DiscoveryConfig
from repro.core.errors import ConfigError, LakeError
from repro.core.system import DiscoverySystem
from repro.datalake.generate import make_union_corpus
from repro.datalake.table import ColumnRef
from repro.obs import METRICS, TRACER


@pytest.fixture(scope="module")
def traced(union_corpus):
    """A DiscoverySystem built and queried once per engine, under tracing."""
    obs.reset()
    obs.enable_tracing()
    config = DiscoveryConfig(embedding_dim=32, num_partitions=4)
    system = DiscoverySystem(
        union_corpus.lake, config, ontology=union_corpus.ontology
    ).build()
    qname = union_corpus.groups[0][0]
    query_table = union_corpus.lake.table(qname)
    system.keyword_search("concept")
    system.joinable_search(ColumnRef(qname, 0), k=5)
    system.joinable_search(ColumnRef(qname, 0), k=5, method="containment")
    system.unionable_search(qname, k=5, method="starmie")
    system.unionable_search(qname, k=5, method="tus")
    system.correlated_search(qname, 0, min(1, query_table.num_cols - 1), k=5)
    system.multi_attribute_search(query_table, [0], k=5)
    system.fuzzy_joinable_search(ColumnRef(qname, 0), k=5)
    yield system
    obs.disable_tracing()


def span_names(tracer):
    return [s.name for s in tracer.spans()]


class TestPipelineSpans:
    def test_every_enabled_stage_has_a_span(self, traced):
        names = span_names(TRACER)
        assert "pipeline.build" in names
        for stage in traced.stats.stage_seconds:
            assert f"stage.{stage}" in names

    def test_each_engine_build_has_a_span_inside_its_stage(self, traced):
        (build_root,) = [
            r for r in TRACER.roots() if r.name == "pipeline.build"
        ]
        build_ms = traced.provenance["build_ms"]
        seen = set()
        for stage in build_root.children:
            for child in stage.children:
                if not child.name.startswith("engine."):
                    continue
                name = child.name[len("engine."):-len(".build")]
                assert child.name == f"engine.{name}.build"
                assert build_ms[name] == round(child.duration_s * 1000, 3)
                seen.add(name)
        assert seen == set(build_ms)
        assert {"embeddings", "annotation", "santos", "tus"} <= seen

    def test_stage_seconds_populated_from_spans(self, traced):
        (build_root,) = [
            r for r in TRACER.roots() if r.name == "pipeline.build"
        ]
        by_name = {c.name: c for c in build_root.children}
        for stage, seconds in traced.stats.stage_seconds.items():
            assert by_name[f"stage.{stage}"].duration_s == seconds

    def test_stage_seconds_populated_with_tracing_disabled(self, union_corpus):
        assert not TRACER.enabled or True  # runs in any order; be explicit
        was_enabled = TRACER.enabled
        TRACER.disable()
        try:
            system = DiscoverySystem(
                union_corpus.lake, DiscoveryConfig(embedding_dim=16)
            ).build()
        finally:
            if was_enabled:
                TRACER.enable()
        assert set(system.stats.stage_seconds) >= {
            "embeddings",
            "keyword_index",
            "join_index",
            "union_index",
        }
        assert all(v >= 0 for v in system.stats.stage_seconds.values())


class TestQuerySpans:
    def test_one_span_per_engine(self, traced):
        names = span_names(TRACER)
        for engine in (
            "keyword",
            "join",
            "union",
            "correlated",
            "multi_attribute",
            "fuzzy_join",
        ):
            assert f"query.{engine}" in names, f"missing query.{engine} span"

    def test_query_spans_carry_candidate_attrs(self, traced):
        by_name: dict[str, list] = {}
        for s in TRACER.spans():
            by_name.setdefault(s.name, []).append(s)

        def some_span_has(name, attr):
            return any(attr in s.attrs for s in by_name[name])

        assert some_span_has("query.keyword", "hits")
        assert some_span_has("query.join", "josie.posting_lists_read")
        assert some_span_has("query.join", "containment.candidates_checked")
        assert some_span_has("query.union", "starmie.candidates_examined")
        assert some_span_has("query.multi_attribute", "mate.rows_checked")


class TestMetricCounters:
    def test_at_least_ten_distinct_metric_names(self, traced):
        assert len(METRICS.names()) >= 10

    def test_engine_counters_recorded(self, traced):
        assert METRICS.counter("search.josie.posting_lists_read") > 0
        assert METRICS.counter("search.josie.sets_verified") > 0
        assert METRICS.counter("index.lshensemble.candidates_returned") >= 0
        assert METRICS.counter("index.lshensemble.queries") > 0
        assert METRICS.counter("search.keyword.docs_scored") > 0
        assert METRICS.counter("search.mate.rows_checked") > 0
        assert METRICS.counter("search.pexeso.queries") > 0
        assert METRICS.counter("search.qcr.queries") > 0
        assert METRICS.counter("search.starmie.candidates_examined") > 0

    def test_query_latency_histogram(self, traced):
        hist = METRICS.histogram("query.latency_ms")
        assert hist is not None
        assert hist.count >= 8  # one observation per query issued above

    def test_build_counters_recorded(self, traced):
        assert METRICS.counter("pipeline.builds") >= 1
        assert METRICS.counter("index.josie.sets_indexed") > 0
        assert METRICS.gauge("lake.tables") == len(traced.lake)

    def test_report_is_json_ready(self, traced):
        report = obs.report(extra={"run": "test"})
        blob = json.loads(json.dumps(report))
        assert blob["run"] == "test"
        assert blob["spans"] and blob["metrics"]["counters"]


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["embedding_dim", "qcr_sketch_size"])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            DiscoveryConfig(**{field: bad}).validate()

    def test_positive_accepted(self):
        DiscoveryConfig(embedding_dim=1, qcr_sketch_size=1).validate()


class TestBuildGuard:
    def test_online_methods_demand_build_first(self, union_corpus):
        fresh = DiscoverySystem(union_corpus.lake)
        qname = union_corpus.groups[0][0]
        for call in (
            lambda: fresh.keyword_search("x"),
            lambda: fresh.joinable_search(ColumnRef(qname, 0)),
            lambda: fresh.unionable_search(qname),
            lambda: fresh.correlated_search(qname, 0, 1),
            lambda: fresh.navigate("x"),
            lambda: fresh.organization(),
        ):
            with pytest.raises(LakeError, match="call build\\(\\) first"):
                call()


class TestCliProfile:
    @pytest.fixture(scope="class")
    def lake_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("obs_lake")
        corpus = make_union_corpus(
            n_groups=2, tables_per_group=2, rows_per_table=20, seed=3
        )
        corpus.lake.save_to_directory(directory)
        return directory

    def test_profile_subcommand_emits_json_report(self, lake_dir, capsys):
        assert main(["profile", str(lake_dir)]) == 0
        report = json.loads(capsys.readouterr().out)
        names = [s["name"] for s in report["spans"]]
        assert "pipeline.build" in names
        (build,) = [s for s in report["spans"] if s["name"] == "pipeline.build"]
        child_names = {c["name"] for c in build["children"]}
        for stage in report["stage_seconds"]:
            assert f"stage.{stage}" in child_names
        metric_names = (
            set(report["metrics"]["counters"])
            | set(report["metrics"]["gauges"])
            | set(report["metrics"]["histograms"])
        )
        assert len(metric_names) >= 10
        assert not TRACER.enabled  # profile cleans up after itself

    def test_profile_subcommand_writes_file(self, lake_dir, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["profile", str(lake_dir), "-o", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert report["metrics"]["counters"]
        assert "wrote" in capsys.readouterr().out

    def test_profile_flag_prints_query_span(self, lake_dir, capsys):
        rc = main(
            ["keyword", str(lake_dir), "--query", "concept", "--profile"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "-- profile: spans --" in out
        assert "query.keyword" in out
        assert "-- profile: metrics --" in out
        assert "search.keyword.docs_scored" in out
        assert not TRACER.enabled

    def test_profile_flag_on_join_prints_candidate_counters(
        self, lake_dir, capsys
    ):
        rc = main(
            [
                "join",
                str(lake_dir),
                "--table",
                "union_g00_t00",
                "--column",
                "0",
                "--profile",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "query.join" in out
        assert "search.josie.posting_lists_read" in out

    def test_verbose_flag_logs_to_stderr(self, lake_dir, capsys):
        assert main(
            ["keyword", str(lake_dir), "--query", "concept", "-v"]
        ) == 0
        err = capsys.readouterr().err
        assert "loading lake" in err
