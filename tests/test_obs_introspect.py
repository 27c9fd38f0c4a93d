"""Tests for index introspection: deep_sizeof, distributions, system stats."""

import sys

import numpy as np
import pytest

from repro import obs
from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.obs.introspect import (
    IndexStatsReport,
    clear_published,
    deep_sizeof,
    publish,
    published,
    summarize_distribution,
)


class TestDeepSizeof:
    def test_container_larger_than_empty(self):
        assert deep_sizeof({"a": [1, 2, 3]}) > deep_sizeof({})
        assert deep_sizeof(["x" * 100]) > deep_sizeof([])

    def test_numpy_counts_buffer(self):
        arr = np.zeros(10_000, dtype=np.float64)
        assert deep_sizeof(arr) >= arr.nbytes

    def test_shared_object_counted_once(self):
        shared = ["payload" * 50]
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof([shared])

    def test_object_with_dict_and_slots(self):
        class Slotted:
            __slots__ = ("a", "b")

            def __init__(self):
                self.a = list(range(100))
                self.b = "y" * 200

        class Plain:
            def __init__(self):
                self.payload = list(range(100))

        assert deep_sizeof(Slotted()) > deep_sizeof(list(range(100)))
        assert deep_sizeof(Plain()) > deep_sizeof(list(range(100)))

    def test_owned_buffer_counted_once(self):
        arr = np.zeros((11047, 48))
        assert arr.nbytes == 4_242_048
        assert arr.nbytes < deep_sizeof(arr) < arr.nbytes + 1024

    def test_views_share_their_base(self):
        arr = np.zeros((100, 48))
        views = [arr, arr[1:], arr.T, arr.reshape(-1)]
        assert deep_sizeof(views) < arr.nbytes + 2048
        assert deep_sizeof(arr[1:]) > arr.nbytes

    def test_shared_seen_set_charges_the_first_root(self):
        arr = np.zeros(10_000)
        seen: dict = {}
        assert deep_sizeof(arr, seen) > arr.nbytes
        assert deep_sizeof({"again": arr}, seen) < 1024

    def test_instance_dict_size_does_not_depend_on_history(self):
        class Many:
            def __init__(self):
                self.a, self.b, self.c = [], {}, ()

        first = deep_sizeof(Many())
        kept = [Many() for _ in range(50)]
        assert deep_sizeof(Many()) == first
        assert kept

    def test_self_referencing_terminates(self):
        loop = []
        loop.append(loop)
        assert deep_sizeof(loop) > 0


class TestSummarizeDistribution:
    def test_empty(self):
        out = summarize_distribution([])
        assert out["count"] == 0

    def test_summary_fields(self):
        out = summarize_distribution([1, 2, 3, 4, 100])
        assert out["count"] == 5
        assert out["total"] == 110
        assert out["min"] == 1
        assert out["max"] == 100
        assert out["p50"] == 3
        assert out["mean"] == pytest.approx(22.0)


class TestPublishRegistry:
    def test_publish_and_read_back(self):
        clear_published()
        report = IndexStatsReport(
            name="demo", kind="test", items=3, memory_bytes=128, detail={"k": 1}
        )
        publish([report])
        assert [r.name for r in published()] == ["demo"]
        clear_published()
        assert published() == []

    def test_report_without_build_ms_omits_it(self):
        report = IndexStatsReport(
            name="demo", kind="test", items=3, memory_bytes=128
        )
        assert "build_ms" not in report.to_dict()
        assert "built in" not in report.render()

    def test_report_to_dict_and_render(self):
        report = IndexStatsReport(
            name="demo",
            kind="test",
            items=3,
            memory_bytes=2048,
            detail={"posting_list_len": {"count": 3, "p95": 7}},
        )
        d = report.to_dict()
        assert d["name"] == "demo"
        assert d["memory_bytes"] == 2048
        text = report.render()
        assert "demo" in text and "test" in text


class TestSystemIndexStats:
    @pytest.fixture(scope="class")
    def system(self, union_corpus):
        obs.reset()
        config = DiscoveryConfig(embedding_dim=16, num_partitions=4)
        return DiscoverySystem(union_corpus.lake, config).build()

    def test_every_built_index_reports(self, system):
        reports = system.index_stats()
        names = {r.name for r in reports}
        # Every index built by the default pipeline shows up.
        assert {
            "keyword",
            "josie",
            "lshensemble",
            "jaccard_lsh",
            "tus",
            "starmie",
            "pexeso",
            "mate",
            "qcr",
            "organization",
        } <= names
        for r in reports:
            assert r.memory_bytes > 0, r.name
            assert r.items >= 0, r.name
            assert r.detail, r.name

    def test_every_built_engine_reports_build_ms(self, system):
        reports = system.index_stats()
        assert reports
        for r in reports:
            assert r.build_ms is not None and r.build_ms >= 0, r.name
            assert r.to_dict()["build_ms"] == r.build_ms
            assert "built in" in r.render().splitlines()[0]
        build_ms = system.provenance["build_ms"]
        # Foundations are timed too: the understanding split is visible.
        assert "embeddings" in build_ms
        # The shared row is built by the foundations, so it has no entry.
        assert {r.name for r in reports} - {"shared"} <= set(build_ms)
        assert all(ms >= 0 for ms in build_ms.values())

    def test_rows_sum_to_one_counted_once_total(self, system):
        reports = system.index_stats()
        assert reports[0].name == "shared"
        shared = reports[0].detail
        assert shared["lake_bytes"] > 0 and shared["space_bytes"] > 0
        assert reports[0].memory_bytes == sum(shared.values())
        parts = [
            system.lake,
            system.ontology,
            system.space,
            system.encoder,
            system.annotations,
            system.domains,
            *(e.memory_object() for e in system.engines.values() if e.is_built()),
            *(f.raw for f in system.foundations.values()),
        ]
        root = tuple(p for p in parts if p is not None)
        everything = deep_sizeof(root) - sys.getsizeof(root)
        assert sum(r.memory_bytes for r in reports) == everything

    def test_same_build_reads_the_same_bytes(self, system):
        first = {r.name: r.memory_bytes for r in system.index_stats()}
        config = DiscoveryConfig(embedding_dim=16, num_partitions=4)
        again = DiscoverySystem(system.lake, config).build()
        assert {r.name: r.memory_bytes for r in again.index_stats()} == first

    def test_distribution_stats_present(self, system):
        by_name = {r.name: r for r in system.index_stats()}
        josie = by_name["josie"]
        assert josie.detail["posting_list_len"]["count"] > 0
        keyword = by_name["keyword"]
        assert keyword.detail["vocabulary"] > 0

    def test_gauges_and_publication(self, system):
        clear_published()
        reports = system.index_stats()
        assert [r.name for r in published()] == [r.name for r in reports]
        snapshot = obs.METRICS.snapshot()
        gauges = snapshot["gauges"]
        assert gauges["index.keyword.items"] > 0
        assert gauges["index.josie.memory_bytes"] > 0
