"""Regression tests for the pipeline skip/config/sampler bugfixes.

Each of these fails on the pre-fix code: a skipping build used to mutate
the caller's config, index-stage skips were validated but silently
ignored, and every ``DiscoverySystem.__init__`` clobbered the
process-wide trace sampler.
"""

import logging

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.engine import REGISTRY
from repro.core.errors import LakeError
from repro.core.system import DiscoverySystem
from repro.datalake.table import ColumnRef
from repro.obs import SAMPLER


@pytest.fixture
def restore_sampler():
    rate, slow_ms = SAMPLER.rate, SAMPLER.slow_ms
    yield
    SAMPLER.configure(rate=rate, slow_ms=slow_ms)


class TestConfigNotMutated:
    def test_skip_leaves_caller_config_unchanged(self, tiny_lake):
        config = DiscoveryConfig(embedding_dim=16, embedding_min_count=1)
        DiscoverySystem(tiny_lake, config).build(
            skip={"embeddings", "domains", "annotation"}
        )
        assert config.enable_embeddings is True
        assert config.enable_annotation is True
        assert config.enable_domains is False  # the dataclass default

    def test_skip_still_takes_effect(self, tiny_lake):
        system = DiscoverySystem(
            tiny_lake, DiscoveryConfig(embedding_dim=16)
        ).build(skip={"embeddings"})
        assert "embeddings" not in system.stats.stage_seconds
        assert system.space is None


#: One facade call per registered query-serving engine, on ``tiny_lake``.
FACADE_CALLS = {
    "keyword": lambda s: s.keyword_search("cities"),
    "josie": lambda s: s.joinable_search(ColumnRef("cities", 0)),
    "lshensemble": lambda s: s.joinable_search(
        ColumnRef("cities", 0), method="containment"
    ),
    "jaccard_lsh": lambda s: s.search(
        ColumnRef("cities", 0), engines=["jaccard_lsh"]
    ),
    "tus": lambda s: s.unionable_search("cities", method="tus"),
    "starmie": lambda s: s.unionable_search("cities", method="starmie"),
    "pexeso": lambda s: s.fuzzy_joinable_search(ColumnRef("cities", 0)),
    "santos": lambda s: s.unionable_search("cities", method="santos"),
    "qcr": lambda s: s.correlated_search("cities", 0, 2),
    "mate": lambda s: s.multi_attribute_search(
        s.lake.table("cities"), [0, 1]
    ),
    "organization": lambda s: s.navigate("city"),
}


class TestIndexStageSkips:
    def test_skipped_index_stages_not_built(self, tiny_lake):
        system = DiscoverySystem(
            tiny_lake, DiscoveryConfig(enable_embeddings=False)
        ).build(skip={"keyword_index", "mate_index", "correlation_index"})
        assert system.engines["keyword"].raw is None
        assert system.engines["mate"].raw is None
        assert system.engines["qcr"].raw is None
        assert "keyword_index" not in system.stats.stage_seconds
        # Non-skipped stages still ran.
        assert system.engines["josie"].raw is not None

    def test_skipped_engines_raise_lake_error(self, tiny_lake):
        system = DiscoverySystem(
            tiny_lake, DiscoveryConfig(enable_embeddings=False)
        ).build(
            skip={
                "keyword_index",
                "join_index",
                "union_index",
                "correlation_index",
                "mate_index",
                "navigation",
            }
        )
        table = tiny_lake.table_names()[0]
        with pytest.raises(LakeError, match="keyword_index.*skipped"):
            system.keyword_search("anything")
        with pytest.raises(LakeError, match="join_index.*skipped"):
            system.joinable_search(ColumnRef(table, 0))
        with pytest.raises(LakeError, match="union_index.*skipped"):
            system.unionable_search(table, method="tus")
        with pytest.raises(LakeError, match="union_index.*skipped"):
            system.unionable_search(table, method="starmie")
        with pytest.raises(LakeError, match="union_index.*skipped"):
            system.unionable_search(table, method="santos")
        with pytest.raises(LakeError, match="correlation_index.*skipped"):
            system.correlated_search(table, 0, 1)
        with pytest.raises(LakeError, match="mate_index.*skipped"):
            system.multi_attribute_search(tiny_lake.table(table), [0])
        with pytest.raises(LakeError, match="navigation.*skipped"):
            system.organization()
        with pytest.raises(LakeError, match="navigation.*skipped"):
            system.navigate("anything")

    @pytest.mark.parametrize("cls", REGISTRY.all(), ids=lambda c: c.name)
    def test_unbuilt_engine_names_missing_stage(self, tiny_lake, cls):
        """With embeddings off, each engine's facade call either serves or
        raises a LakeError naming the first stage it depends on that did
        not run."""
        system = DiscoverySystem(
            tiny_lake, DiscoveryConfig(enable_embeddings=False)
        ).build()
        call = FACADE_CALLS[cls.name]
        if system.engines[cls.name].is_built():
            call(system)
            return
        ran = system.stats.stage_seconds
        missing = next(s for s in cls.depends_on if s not in ran)
        with pytest.raises(LakeError, match=f"stage '{missing}' did not run"):
            call(system)

    def test_unknown_skip_still_rejected(self, tiny_lake):
        with pytest.raises(ValueError, match="warp-drive"):
            DiscoverySystem(tiny_lake).build(skip={"warp-drive"})


class TestSamplerNotClobbered:
    def test_default_config_preserves_existing_sampler(
        self, tiny_lake, restore_sampler
    ):
        DiscoverySystem(
            tiny_lake,
            DiscoveryConfig(trace_sample_rate=0.5, slow_query_ms=100.0),
        )
        assert SAMPLER.rate == 0.5
        assert SAMPLER.slow_ms == 100.0
        # A second system with a *default* config must not clobber it.
        DiscoverySystem(tiny_lake)
        assert SAMPLER.rate == 0.5
        assert SAMPLER.slow_ms == 100.0

    def test_non_default_config_still_applies(self, tiny_lake, restore_sampler):
        SAMPLER.configure(rate=1.0, slow_ms=None)
        DiscoverySystem(
            tiny_lake,
            DiscoveryConfig(trace_sample_rate=0.25, slow_query_ms=50.0),
        )
        assert SAMPLER.rate == 0.25
        assert SAMPLER.slow_ms == 50.0

    def test_overwrite_warns(self, tiny_lake, restore_sampler, caplog):
        DiscoverySystem(
            tiny_lake,
            DiscoveryConfig(trace_sample_rate=0.5, slow_query_ms=100.0),
        )
        with caplog.at_level(logging.WARNING, logger="repro.core.system"):
            DiscoverySystem(
                tiny_lake,
                DiscoveryConfig(trace_sample_rate=0.25, slow_query_ms=75.0),
            )
        assert any("sampler" in r.message for r in caplog.records)
        assert SAMPLER.rate == 0.25

    def test_reapplying_same_config_does_not_warn(
        self, tiny_lake, restore_sampler, caplog
    ):
        cfg = DiscoveryConfig(trace_sample_rate=0.5, slow_query_ms=100.0)
        DiscoverySystem(tiny_lake, cfg)
        with caplog.at_level(logging.WARNING, logger="repro.core.system"):
            DiscoverySystem(tiny_lake, cfg)
        assert not any("sampler" in r.message for r in caplog.records)
