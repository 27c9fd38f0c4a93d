"""Integration tests: DiscoverySystem end-to-end over generated corpora.

These drive the Figure-1 facade exactly as a downstream user would: build
once, then exercise every online API against ground truth.
"""

import pytest

from repro.bench.metrics import precision_at_k
from repro.core.config import DiscoveryConfig
from repro.core.errors import ConfigError, LakeError
from repro.core.pipeline import STAGES, pipeline_report
from repro.core.system import DiscoverySystem
from repro.datalake.table import ColumnRef


@pytest.fixture(scope="module")
def system(union_corpus):
    config = DiscoveryConfig(
        embedding_dim=32, enable_domains=True, num_partitions=4
    )
    return DiscoverySystem(
        union_corpus.lake, config, ontology=union_corpus.ontology
    ).build()


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            DiscoveryConfig(num_perm=2).validate()
        with pytest.raises(ConfigError):
            DiscoveryConfig(containment_threshold=0.0).validate()
        with pytest.raises(ConfigError):
            DiscoveryConfig(union_measure="bogus").validate()
        with pytest.raises(ConfigError):
            DiscoveryConfig(context_weight=1.0).validate()

    def test_defaults_valid(self):
        assert DiscoveryConfig().validate()


class TestOfflinePipeline:
    def test_unbuilt_system_rejects_queries(self, union_corpus):
        fresh = DiscoverySystem(union_corpus.lake)
        with pytest.raises(LakeError):
            fresh.keyword_search("x")

    def test_stage_timings_recorded(self, system):
        assert set(system.stats.stage_seconds) >= {
            "embeddings",
            "keyword_index",
            "join_index",
            "union_index",
        }

    def test_stats_populated(self, system, union_corpus):
        assert system.stats.tables == len(union_corpus.lake)
        assert system.stats.vocabulary > 0
        assert system.stats.domains_found > 0

    def test_run_pipeline_helper(self, union_corpus):
        sys2 = DiscoverySystem(
            union_corpus.lake, DiscoveryConfig(embedding_dim=16)
        ).build(skip={"domains", "annotation"})
        assert "embeddings" in sys2.stats.stage_seconds
        assert "domains" not in sys2.stats.stage_seconds
        report = pipeline_report(sys2)
        assert "tables" in report

    def test_run_pipeline_unknown_stage(self, union_corpus):
        with pytest.raises(ValueError):
            DiscoverySystem(union_corpus.lake).build(skip={"warp-drive"})

    def test_stage_names_documented(self):
        assert "union_index" in STAGES


class TestOnlineSearch:
    def test_keyword(self, system, union_corpus):
        hits = system.keyword_search("group 0", k=5)
        assert hits
        assert hits[0].table.startswith("union_g00")

    def test_joinable_exact_by_ref(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        res = system.joinable_search(ColumnRef(qname, 0), k=5)
        assert res
        assert all(r.ref.table != qname for r in res)

    def test_joinable_containment(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        res = system.joinable_search(
            ColumnRef(qname, 0), k=5, method="containment", threshold=0.2
        )
        assert isinstance(res, list)

    def test_joinable_unknown_method(self, system, union_corpus):
        with pytest.raises(ConfigError):
            system.joinable_search(
                ColumnRef(union_corpus.groups[0][0], 0), method="psychic"
            )

    @pytest.mark.parametrize("method", ["tus", "santos", "starmie"])
    def test_unionable_methods(self, system, union_corpus, method):
        qname = union_corpus.groups[0][0]
        res = system.unionable_search(qname, k=3, method=method)
        got = [r.table for r in res]
        p = precision_at_k(got, union_corpus.truth[qname], 3)
        assert p >= 0.6, (method, got)

    def test_unionable_unknown_method(self, system, union_corpus):
        with pytest.raises(ConfigError):
            system.unionable_search(union_corpus.groups[0][0], method="magic")

    def test_fuzzy_joinable(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        res = system.fuzzy_joinable_search(ColumnRef(qname, 0), k=5)
        assert isinstance(res, list)

    def test_multi_attribute(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        res = system.multi_attribute_search(
            union_corpus.lake.table(qname), [0, 1], k=3
        )
        assert isinstance(res, list)


class TestNavigationAndApps:
    def test_organization_builds(self, system, union_corpus):
        org = system.organization()
        assert sorted(org.root.tables) == sorted(
            union_corpus.lake.table_names()
        )

    def test_navigate_text_intent(self, system):
        tables = system.navigate("concept_000")
        assert tables

    def test_explore_results(self, system, union_corpus):
        subset = union_corpus.groups[0] + union_corpus.groups[1]
        org = system.explore_results(subset)
        assert sorted(org.root.tables) == sorted(subset)

    def test_knowledge_graph_lazy_and_cached(self, system):
        g1 = system.knowledge_graph()
        g2 = system.knowledge_graph()
        assert g1 is g2
        assert g1.graph.number_of_nodes() > 0

    def test_related_columns(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        res = system.related_columns(ColumnRef(qname, 0), k=5)
        assert isinstance(res, list)


class TestDisabledComponents:
    def test_no_embeddings_blocks_vector_apis(self, union_corpus):
        cfg = DiscoveryConfig(enable_embeddings=False)
        sys2 = DiscoverySystem(union_corpus.lake, cfg).build()
        with pytest.raises(LakeError):
            sys2.unionable_search(union_corpus.groups[0][0], method="starmie")
        with pytest.raises(LakeError):
            sys2.navigate("anything")
        with pytest.raises(LakeError):
            sys2.fuzzy_joinable_search(
                ColumnRef(union_corpus.groups[0][0], 0)
            )
        # TUS set-measure still works without embeddings.
        res = sys2.unionable_search(
            union_corpus.groups[0][0], k=3, method="tus"
        )
        assert res

    def test_no_ontology_blocks_santos(self, union_corpus):
        sys2 = DiscoverySystem(
            union_corpus.lake, DiscoveryConfig(embedding_dim=16)
        ).build()
        with pytest.raises(LakeError):
            sys2.unionable_search(union_corpus.groups[0][0], method="santos")


class TestEntityAugmentation:
    def test_by_attribute_and_examples(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        table = union_corpus.lake.table(qname)
        col = table.columns[0]
        entities = col.non_null_values()[:3]
        out = system.augment_entities(entities, attribute=col.name)
        assert out is not None
        # requesting neither attribute nor examples is an error
        with pytest.raises(ValueError):
            system.augment_entities(entities)

    def test_infogather_cached(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        entities = union_corpus.lake.table(qname).columns[0].non_null_values()[:2]
        system.augment_entities(entities, attribute="anything")
        first = system._infogather
        system.augment_entities(entities, attribute="anything")
        assert system._infogather is first


class TestMlAugmentation:
    def test_augment_for_ml_endtoend(self):
        from repro.datalake.generate import make_ml_corpus

        corpus = make_ml_corpus(n_rows=150, seed=31)
        system = DiscoverySystem(
            corpus.lake, DiscoveryConfig(enable_embeddings=False)
        ).build()
        report = system.augment_for_ml("ml_base", 0, 2)
        assert report.augmented_r2 > report.base_r2
