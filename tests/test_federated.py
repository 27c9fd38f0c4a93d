"""Tests for the federated search dispatcher (DiscoverySystem.search).

One request fans out across every applicable registered engine; rankings
are merged with reciprocal-rank fusion into table-level FederatedHits.
"""

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.engine import FederatedHit
from repro.core.errors import ConfigError, LakeError
from repro.core.system import DiscoverySystem
from repro.datalake.table import ColumnRef


@pytest.fixture(scope="module")
def system(union_corpus):
    config = DiscoveryConfig(embedding_dim=32, num_partitions=4)
    return DiscoverySystem(
        union_corpus.lake, config, ontology=union_corpus.ontology
    ).build()


class TestFederatedSearch:
    def test_table_query_fans_out_to_union_engines(
        self, system, union_corpus
    ):
        qname = union_corpus.groups[0][0]
        hits = system.search(qname, k=5)
        assert hits and all(isinstance(h, FederatedHit) for h in hits)
        # The query table itself is excluded from the merged ranking.
        assert all(h.table != qname for h in hits)
        # Same-group tables should dominate the top of the fused ranking.
        group = set(union_corpus.groups[0])
        assert hits[0].table in group
        # Every hit records which engines ranked it, at which position.
        assert all(h.sources for h in hits)
        engines_seen = {name for h in hits for name in h.sources}
        assert engines_seen & {"tus", "starmie", "santos", "mate"}

    def test_column_query_hits_join_engines(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        hits = system.search(ColumnRef(qname, 0), k=5)
        assert hits
        engines_seen = {name for h in hits for name in h.sources}
        assert engines_seen & {"josie", "lshensemble", "jaccard_lsh"}

    def test_text_query_uses_keyword(self, system, union_corpus):
        header = union_corpus.lake.table(
            union_corpus.groups[0][0]
        ).columns[0].name
        token = header.split("_")[0]
        hits = system.search(token, engines=["keyword"], k=5)
        assert hits
        assert all(set(h.sources) == {"keyword"} for h in hits)

    def test_engine_restriction_respected(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        hits = system.search(qname, engines=["tus"], k=5)
        assert hits
        assert all(set(h.sources) == {"tus"} for h in hits)

    def test_unknown_engine_rejected(self, system, union_corpus):
        with pytest.raises(ConfigError, match="unknown engines"):
            system.search(union_corpus.groups[0][0], engines=["warp-drive"])

    def test_bad_query_type_rejected(self, system):
        with pytest.raises(ValueError, match="federated query"):
            system.search(12345)

    def test_k_bounds_results(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        assert len(system.search(qname, k=2)) <= 2

    def test_scores_sorted_descending(self, system, union_corpus):
        hits = system.search(union_corpus.groups[0][0], k=10)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_rrf_rewards_cross_engine_consensus(self, system, union_corpus):
        """A table ranked by several engines outscores a single-engine
        table at the same per-engine rank (the point of using RRF)."""
        hits = system.search(union_corpus.groups[0][0], k=10)
        multi = [h for h in hits if len(h.sources) >= 2]
        if multi:  # corpus-dependent, but the top hit should be consensus
            assert len(hits[0].sources) >= 2

    def test_query_logged_as_federated(self, system, union_corpus):
        from repro import obs

        system.search(union_corpus.groups[0][0], k=3)
        last = obs.QUERY_LOG.records()[-1]
        assert last.engine == "federated"
        assert last.status == "ok"

    def test_unbuilt_system_rejected(self, union_corpus):
        fresh = DiscoverySystem(union_corpus.lake)
        with pytest.raises(LakeError):
            fresh.search("anything")


class TestEngineFailureIsolation:
    def test_failing_engine_leaves_other_engines_hits(
        self, system, union_corpus, monkeypatch
    ):
        from repro import obs

        qname = union_corpus.groups[0][0]
        others = [
            name
            for name, engine in system.engines.items()
            if engine.category == "search" and name != "tus"
        ]
        expected = system.search(qname, engines=others, k=5)

        def boom(request):
            raise RuntimeError("index corrupted")

        monkeypatch.setattr(system.engines["tus"], "query", boom)
        errors_before = obs.METRICS.counter("search.federated.engine_errors")
        was_enabled = obs.TRACER.enabled
        obs.TRACER.enable()
        obs.TRACER.reset()
        try:
            hits = system.search(qname, k=5)
            spans = [
                s for s in obs.TRACER.spans() if s.name == "federated.tus"
            ]
        finally:
            if not was_enabled:
                obs.TRACER.disable()
        assert hits == expected
        assert [h.sources for h in hits] == [h.sources for h in expected]
        assert spans and spans[-1].attrs["error"] == "RuntimeError"
        assert (
            obs.METRICS.counter("search.federated.engine_errors")
            == errors_before + 1
        )
        last = obs.QUERY_LOG.records()[-1]
        assert last.engine == "federated"
        assert last.status == "partial"
        assert last.error == "tus: RuntimeError"
        assert last.results == [(h.table, round(h.score, 6)) for h in hits]
