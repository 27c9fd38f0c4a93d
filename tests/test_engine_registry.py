"""Tests for the Engine protocol and registry (repro.core.engine).

Covers the tentpole invariants of the registry refactor: the stage DAG
derivations must reproduce the previously hand-maintained literals, every
registered engine must implement the full protocol (conformance), and the
query-label set must police SLO configuration.
"""

import json

import pytest

import repro.engines  # noqa: F401  - populate the registry
from repro.core.config import DiscoveryConfig
from repro.core.engine import (
    FEDERATED_LABEL,
    REGISTRY,
    Engine,
    EngineRegistry,
    known_query_labels,
)
from repro.core.errors import ConfigError
from repro.core.system import STAGE_DEPS, STAGES, DiscoverySystem
from repro.obs.health import SloObjective


@pytest.fixture(scope="module")
def system(union_corpus):
    config = DiscoveryConfig(
        embedding_dim=32, enable_domains=True, num_partitions=4
    )
    return DiscoverySystem(
        union_corpus.lake, config, ontology=union_corpus.ontology
    ).build()


class TestDerivedDag:
    """STAGES / STAGE_DEPS are now derived; they must equal the literals
    the system shipped with before the registry existed."""

    def test_stage_names_match_legacy_literal(self):
        assert STAGES == (
            "embeddings",
            "domains",
            "annotation",
            "keyword_index",
            "join_index",
            "union_index",
            "correlation_index",
            "mate_index",
            "navigation",
        )
        assert REGISTRY.stage_names() == STAGES

    def test_stage_deps_match_legacy_literal(self):
        # TUS indexes the column_sets foundation's rows (join_index).
        assert STAGE_DEPS == {
            "union_index": ("join_index", "embeddings", "annotation"),
            "navigation": ("embeddings",),
        }
        assert REGISTRY.stage_deps() == STAGE_DEPS

    def test_all_engines_registered(self):
        assert set(REGISTRY.names()) == {
            "keyword",
            "josie",
            "lshensemble",
            "jaccard_lsh",
            "tus",
            "starmie",
            "pexeso",
            "santos",
            "qcr",
            "mate",
            "organization",
        }

    def test_foundations_registered(self):
        assert [c.name for c in REGISTRY.foundations()] == [
            "embeddings",
            "domains",
            "annotation",
            "column_sets",
        ]


class TestRegistryValidation:
    """A fresh registry rejects malformed engine classes loudly."""

    def test_missing_name_rejected(self):
        reg = EngineRegistry()

        class Nameless(Engine):
            stage = "s"

            def build(self):
                pass

            def is_built(self):
                return False

            def stats(self):
                return {}

            def to_payload(self):
                return None

            def from_payload(self, payload):
                pass

        with pytest.raises(ValueError, match="no name"):
            reg.register(Nameless)

    def test_duplicate_name_rejected(self):
        reg = EngineRegistry()

        def make(engine_name):
            class Dummy(Engine):
                name = engine_name
                stage = "s"

                def build(self):
                    pass

                def is_built(self):
                    return False

                def stats(self):
                    return {}

                def to_payload(self):
                    return None

                def from_payload(self, payload):
                    pass

            return Dummy

        reg.register(make("dup"))
        with pytest.raises(ValueError, match="duplicate"):
            reg.register(make("dup"))

    def test_bad_category_rejected(self):
        reg = EngineRegistry()

        class BadCat(Engine):
            name = "badcat"
            stage = "s"
            category = "frobnicator"

            def build(self):
                pass

            def is_built(self):
                return False

            def stats(self):
                return {}

            def to_payload(self):
                return None

            def from_payload(self, payload):
                pass

        with pytest.raises(ValueError, match="category"):
            reg.register(BadCat)

    def test_unknown_dependency_rejected(self):
        reg = EngineRegistry()

        class Dangling(Engine):
            name = "dangling"
            stage = "s"
            depends_on = ("no_such_stage",)

            def build(self):
                pass

            def is_built(self):
                return False

            def stats(self):
                return {}

            def to_payload(self):
                return None

            def from_payload(self, payload):
                pass

        reg.register(Dangling)
        with pytest.raises(ValueError, match="unknown stage"):
            reg.stage_deps()

    def test_unknown_engine_lookup(self):
        with pytest.raises(KeyError, match="registered"):
            REGISTRY.get("warp-drive")


class TestProtocolConformance:
    """CI conformance gate: every registered engine implements the full
    protocol, and its stats are JSON-serializable."""

    @pytest.mark.parametrize(
        "cls", REGISTRY.all(), ids=lambda c: c.name
    )
    def test_declarations_complete(self, cls):
        assert cls.name and isinstance(cls.name, str)
        assert cls.stage in STAGES
        assert isinstance(cls.depends_on, tuple)
        assert all(dep in STAGES for dep in cls.depends_on)
        assert cls.category in ("search", "navigation")
        assert cls.query_label, f"{cls.name} has no query label"
        assert cls.kind, f"{cls.name} has no kind"

    @pytest.mark.parametrize(
        "name", [c.name for c in REGISTRY.all()]
    )
    def test_built_engine_serves_protocol(self, system, name):
        engine = system.engines[name]
        assert engine.is_built(), f"{name} did not build on the corpus"
        stats = engine.stats()
        assert isinstance(stats, dict)
        json.dumps(stats)  # must be JSON-serializable for /indexstats
        assert engine.items(stats) >= 0
        assert engine.kind
        assert engine.memory_object() is not None
        desc = engine.describe()
        json.dumps(desc)
        assert desc["name"] == name

    def test_foundations_report_stats(self, system):
        for name, foundation in system.foundations.items():
            stats = foundation.stats()
            assert isinstance(stats, dict)
            json.dumps(stats)


class TestQueryLabels:
    def test_label_set_contents(self):
        assert known_query_labels() == frozenset(
            {
                "keyword",
                "join",
                "fuzzy_join",
                "multi_attribute",
                "union",
                "correlated",
                "navigate",
                FEDERATED_LABEL,
            }
        )

    def test_slo_with_known_label_accepted(self):
        cfg = DiscoveryConfig(slos=(SloObjective(engine="join"),))
        assert cfg.validate()

    def test_slo_wildcard_accepted(self):
        cfg = DiscoveryConfig(slos=(SloObjective(engine="*"),))
        assert cfg.validate()

    def test_slo_with_unknown_engine_rejected(self):
        cfg = DiscoveryConfig(slos=(SloObjective(engine="warp-drive"),))
        with pytest.raises(ConfigError, match="unknown engine"):
            cfg.validate()
