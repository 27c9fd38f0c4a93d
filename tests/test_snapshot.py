"""Snapshot layer: save/load round-trips, and rejection of stale,
mismatched, or corrupt snapshots."""

import io
import json
import pickle

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.errors import SnapshotError
from repro.core.snapshot import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    PAYLOAD_NAME,
    config_hash,
    lake_fingerprint,
    read_manifest,
)
from repro.core.system import DiscoverySystem
from repro.datalake.lake import DataLake
from repro.datalake.table import Column, ColumnRef, Table, TableMetadata
from repro.engines.union_base import UnionIndexEngine
from repro.obs import METRICS


def _config():
    return DiscoveryConfig(embedding_dim=32, num_partitions=4)


@pytest.fixture(scope="module")
def built(union_corpus):
    return DiscoverySystem(
        union_corpus.lake, _config(), ontology=union_corpus.ontology
    ).build()


@pytest.fixture(scope="module")
def snapdir(built, tmp_path_factory):
    directory = tmp_path_factory.mktemp("snapshot")
    built.save(directory)
    return directory


def _queries(corpus, system):
    qname = corpus.groups[0][0]
    ref = ColumnRef(qname, 0)
    table = corpus.lake.table(qname)
    return {
        "keyword": system.keyword_search("group 0", k=5),
        "join": system.joinable_search(ref, k=5),
        "fuzzy": system.fuzzy_joinable_search(ref, k=5),
        "mate": system.multi_attribute_search(table, [0], k=5),
        "tus": system.unionable_search(qname, k=5, method="tus"),
        "santos": system.unionable_search(qname, k=5, method="santos"),
        "starmie": system.unionable_search(qname, k=5, method="starmie"),
    }


class TestRoundTrip:
    def test_identical_results_without_rebuilding(
        self, built, snapdir, union_corpus
    ):
        from repro.search.explain import summarize_results

        loaded = DiscoverySystem.load(snapdir)
        # No pipeline stage ran: the timings are the restored originals.
        assert loaded.stats.stage_seconds == built.stats.stage_seconds
        assert loaded.provenance["source"] == "snapshot"
        want = _queries(union_corpus, built)
        got = _queries(union_corpus, loaded)
        for engine in want:
            assert summarize_results(want[engine]) == summarize_results(
                got[engine]
            ), engine
        assert loaded.navigate("concept_000") == built.navigate("concept_000")

    def test_fuzzy_join_identical_for_every_text_column(
        self, built, snapdir, union_corpus
    ):
        loaded = DiscoverySystem.load(snapdir)
        refs = [ref for ref, _ in union_corpus.lake.iter_text_columns()]
        assert refs
        for ref in refs:
            want = built.fuzzy_joinable_search(ref, k=10)
            got = loaded.fuzzy_joinable_search(ref, k=10)
            assert [(h.ref, h.score) for h in got] == [
                (h.ref, h.score) for h in want
            ], ref

    def test_mate_identical_for_every_table(self, built, snapdir, union_corpus):
        loaded = DiscoverySystem.load(snapdir)
        for table in union_corpus.lake:
            for keys in ([0], [0, 1]):
                if max(keys) >= table.num_cols:
                    continue
                want = built.multi_attribute_search(table, keys, k=10)
                got = loaded.multi_attribute_search(table, keys, k=10)
                assert got == want, (table.name, keys)

    def test_tus_identical_for_every_table(self, built, snapdir, union_corpus):
        loaded = DiscoverySystem.load(snapdir)
        for table in union_corpus.lake:
            want = built.unionable_search(table.name, k=10, method="tus")
            got = loaded.unionable_search(table.name, k=10, method="tus")
            assert got == want, table.name

    def test_load_with_matching_lake_and_config(self, snapdir, union_corpus):
        loaded = DiscoverySystem.load(
            snapdir, lake=union_corpus.lake, config=_config()
        )
        assert loaded.lake is union_corpus.lake

    def test_runtime_only_config_fields_do_not_invalidate(
        self, snapdir, union_corpus
    ):
        cfg = _config()
        cfg.build_jobs = 8
        cfg.trace_sample_rate = 0.5
        loaded = DiscoverySystem.load(snapdir, config=cfg)
        assert loaded.provenance["source"] == "snapshot"

    def test_manifest_fields(self, snapdir, built):
        manifest = read_manifest(snapdir)
        assert manifest.format_version == FORMAT_VERSION
        assert manifest.config_hash == config_hash(built.config)
        assert manifest.lake_fingerprint == lake_fingerprint(built.lake)
        assert manifest.tables == built.stats.tables
        assert "union_index" in manifest.stages

    def test_hit_metric_recorded(self, snapdir):
        before = METRICS.snapshot()["counters"].get("snapshot.load.hit", 0)
        DiscoverySystem.load(snapdir)
        after = METRICS.snapshot()["counters"]["snapshot.load.hit"]
        assert after == before + 1

    def test_index_stats_report_snapshot_provenance(self, snapdir):
        loaded = DiscoverySystem.load(snapdir)
        reports = loaded.index_stats()
        assert reports
        for report in reports:
            assert report.provenance["source"] == "snapshot"
            assert "snapshot" in report.render()

    def test_reloaded_reports_carry_no_build_ms(self, snapdir):
        """A reload builds nothing, so no engine reports a build time."""
        loaded = DiscoverySystem.load(snapdir)
        assert "build_ms" not in loaded.provenance
        for report in loaded.index_stats():
            assert report.build_ms is None, report.name
            assert "build_ms" not in report.to_dict()


def _systems(built, snapdir, lake):
    """The live system and its two reloads, by label."""
    return {
        "live": built,
        "load(lake=)": DiscoverySystem.load(snapdir, lake=lake),
        "load()": DiscoverySystem.load(snapdir),
    }


def _union_engines(system):
    engines = [
        engine
        for engine in system.engines.values()
        if isinstance(engine, UnionIndexEngine) and engine.is_built()
    ]
    assert sorted(e.name for e in engines) == ["santos", "starmie", "tus"]
    return engines


def _serves(system, lake):
    """Each union engine reaches ``lake`` through its context, the
    system, keeps no lake in its index, and answers a query by name."""
    assert system.lake is lake
    table = lake.table_names()[0]
    for engine in _union_engines(system):
        assert engine.ctx is system, engine.name
        assert getattr(engine.raw, "lake", None) is None, engine.name
        hits = system.unionable_search(table, k=5, method=engine.name)
        assert hits, engine.name


class TestOneLake:
    """A reloaded system holds exactly one lake: no engine keeps one of
    its own, and every engine that searches the lake searches that one."""

    def test_load_with_lake_serves_the_live_lake(self, snapdir, union_corpus):
        live = union_corpus.lake
        _serves(DiscoverySystem.load(snapdir, lake=live), live)

    def test_load_without_lake_shares_the_stored_lake(
        self, snapdir, union_corpus
    ):
        loaded = DiscoverySystem.load(snapdir)
        assert loaded.lake is not union_corpus.lake
        assert loaded.lake.table_names() == union_corpus.lake.table_names()
        _serves(loaded, loaded.lake)

    def test_saving_leaves_the_live_engines_their_lake(self, built, snapdir):
        # ``snapdir`` is saved from ``built``: saving changes no live engine.
        _serves(built, built.lake)

    def test_payloads_hold_no_lake_object(self, built, snapdir, union_corpus):
        """Every foundation's and built engine's ``raw``, the whole of what
        a snapshot saves, pickled as the snapshot pickles them, references
        no lake, table or column: live and after either reload."""

        class Probe(pickle.Pickler):
            def persistent_id(self, obj):
                if isinstance(obj, (DataLake, Table, Column)):
                    found.append(type(obj).__name__)
                return None

        for label, system in _systems(built, snapdir, union_corpus.lake).items():
            raws = {
                name: unit.raw
                for name, unit in {**system.foundations, **system.engines}.items()
                if unit.is_built()
            }
            assert {"tus", "starmie", "santos", "organization"} <= set(raws), label
            found = []
            Probe(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(raws)
            assert found == [], label

    def test_explore_results_equal_live_and_both_loads(
        self, built, snapdir, union_corpus
    ):
        """The organization keeps its table vectors, so a reload organizes
        a result set exactly as the live system does."""

        def shape(node):
            return (node.tables, node.centroid.tolist(), [shape(c) for c in node.children])

        tables = union_corpus.lake.table_names()[:8]
        orgs = {
            label: system.explore_results(tables)
            for label, system in _systems(built, snapdir, union_corpus.lake).items()
        }
        want = shape(orgs.pop("live").root)
        assert sorted(want[0]) == sorted(tables)
        for label, org in orgs.items():
            assert shape(org.root) == want, label

    def test_hits_and_funnels_equal_live_and_both_loads(
        self, built, snapdir, union_corpus
    ):
        systems = _systems(built, snapdir, union_corpus.lake)

        def answers(system):
            out = {}
            for table in union_corpus.groups[0][:2]:
                for method in ("tus", "starmie", "santos"):
                    out[method, table] = system.unionable_search(
                        table, k=5, method=method, explain=True
                    )
                ref = ColumnRef(table, 0)
                out["join", table] = system.joinable_search(ref, k=5, explain=True)
                out["mate", table] = system.multi_attribute_search(
                    system.lake.table(table), [0], k=5, explain=True
                )
            return out

        want = answers(systems.pop("live"))
        assert all(hits for hits, _ in want.values())
        for label, system in systems.items():
            got = answers(system)
            for key, (hits, report) in want.items():
                assert got[key][0] == hits, (label, key)
                assert got[key][1] == report, (label, key)


class TestSharedInputs:
    """Each shared input is one object that every engine reading it holds,
    live and after either reload: the foundations' payloads are their
    artifacts, and one pickle dump keeps the engines on them."""

    @pytest.mark.parametrize("source", ["live", "load(lake=)", "load()"])
    def test_one_object_each(self, built, snapdir, union_corpus, source):
        if source == "live":
            system = built
        elif source == "load(lake=)":
            system = DiscoverySystem.load(snapdir, lake=union_corpus.lake)
        else:
            system = DiscoverySystem.load(snapdir)
        space, encoder = system.space, system.encoder
        assert space is not None and space is encoder.space
        assert system.engines["pexeso"].raw.space is space
        assert system.engines["tus"].raw.space is space
        assert system.engines["starmie"].raw.encoder is encoder
        assert system.annotations
        assert system.annotations is system.foundations["annotation"].raw
        assert system.column_sets is system.foundations["column_sets"].raw

    def test_no_space_without_embeddings(self, union_corpus, tmp_path):
        config = DiscoveryConfig(num_partitions=4, enable_embeddings=False)
        system = DiscoverySystem(
            union_corpus.lake, config, ontology=union_corpus.ontology
        ).build()
        system.save(tmp_path / "snap")
        for s in (system, DiscoverySystem.load(tmp_path / "snap")):
            assert s.space is None and s.encoder is None
            assert s.foundations["embeddings"].stats() == {"vocabulary": 0, "dim": 0}


class TestRejection:
    def _assert_miss(self, snapdir, **kwargs):
        before = METRICS.snapshot()["counters"].get("snapshot.load.miss", 0)
        with pytest.raises(SnapshotError) as err:
            DiscoverySystem.load(snapdir, **kwargs)
        after = METRICS.snapshot()["counters"]["snapshot.load.miss"]
        assert after == before + 1
        return err.value

    def test_missing_directory(self, tmp_path):
        with pytest.raises(SnapshotError, match="missing"):
            DiscoverySystem.load(tmp_path / "nope")

    def test_stale_lake_refused(self, snapdir, union_corpus):
        changed = DataLake(list(union_corpus.lake))
        changed.add(Table.from_dict("extra", {"x": ["1", "2"]}))
        err = self._assert_miss(snapdir, lake=changed)
        assert "stale" in str(err)

    def test_config_mismatch_refused(self, snapdir):
        err = self._assert_miss(snapdir, config=DiscoveryConfig(num_perm=256))
        assert "config" in str(err)

    def test_future_format_version_refused(self, built, tmp_path):
        d = tmp_path / "snap"
        built.save(d)
        manifest = json.loads((d / MANIFEST_NAME).read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        (d / MANIFEST_NAME).write_text(json.dumps(manifest))
        err = self._assert_miss(d)
        assert "format version" in str(err)

    @pytest.mark.parametrize("version", range(1, FORMAT_VERSION))
    def test_old_format_version_refused(self, built, tmp_path, version):
        """Every earlier format pickles a layout this code cannot serve
        (see the ``FORMAT_VERSION`` history), so each is refused."""
        d = tmp_path / "snap"
        built.save(d)
        manifest = json.loads((d / MANIFEST_NAME).read_text())
        manifest["format_version"] = version
        (d / MANIFEST_NAME).write_text(json.dumps(manifest))
        err = self._assert_miss(d)
        assert f"format version {version}" in str(err)

    def test_format_21_refused(self, built, tmp_path):
        """A version-21 payload holds the keyword index as per-document
        term counts and a document-frequency table, which this code does
        not read: such a snapshot is refused, not served with an empty
        keyword index."""
        d = tmp_path / "snap"
        built.save(d)
        manifest = json.loads((d / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == FORMAT_VERSION == 24
        manifest["format_version"] = 21
        (d / MANIFEST_NAME).write_text(json.dumps(manifest))
        err = self._assert_miss(d)
        assert "format version 21" in str(err)

    def test_keyword_payload_holds_postings(self, snapdir):
        keyword = DiscoverySystem.load(snapdir).engines["keyword"].raw
        assert keyword._postings and not hasattr(keyword, "_docs")
        names, tfs, denoms = keyword._postings["group"]
        assert len(names) == len(tfs) == len(denoms) > 0

    def test_corrupt_payload_refused(self, built, tmp_path):
        d = tmp_path / "snap"
        built.save(d)
        blob = bytearray((d / PAYLOAD_NAME).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (d / PAYLOAD_NAME).write_bytes(bytes(blob))
        err = self._assert_miss(d)
        assert "corrupt" in str(err)

    def test_truncated_payload_refused(self, built, tmp_path):
        d = tmp_path / "snap"
        built.save(d)
        blob = (d / PAYLOAD_NAME).read_bytes()
        (d / PAYLOAD_NAME).write_bytes(blob[: len(blob) // 2])
        self._assert_miss(d)

    def test_corrupt_manifest_refused(self, built, tmp_path):
        d = tmp_path / "snap"
        built.save(d)
        (d / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SnapshotError, match="corrupt"):
            DiscoverySystem.load(d)

    def test_unbuilt_system_cannot_save(self, union_corpus, tmp_path):
        from repro.core.errors import LakeError

        fresh = DiscoverySystem(union_corpus.lake)
        with pytest.raises(LakeError):
            fresh.save(tmp_path / "snap")


class TestFingerprints:
    def test_fingerprint_sensitive_to_values(self):
        a = DataLake([Table.from_dict("t", {"x": ["1", "2"]})])
        b = DataLake([Table.from_dict("t", {"x": ["1", "3"]})])
        assert lake_fingerprint(a) != lake_fingerprint(b)

    def test_fingerprint_stable(self):
        a = DataLake([Table.from_dict("t", {"x": ["1", "2"]})])
        b = DataLake([Table.from_dict("t", {"x": ["1", "2"]})])
        assert lake_fingerprint(a) == lake_fingerprint(b)

    def test_fingerprint_golden_digest(self):
        """The digest of one column-at-a-time hashing is that of hashing
        each cell by itself: this value was made by a per-cell loop.  The
        lake has an empty column, non-ASCII cells and a non-``str`` cell
        written after construction."""
        cities = Table.from_dict(
            "cities",
            {"city": ["Zürich", "東京", ""], "pop": ["1", "2.5", "3"]},
            metadata=TableMetadata(title="Cities", tags=["geo"]),
        )
        cities.columns[1].values[2] = 30
        empty = Table.from_dict("empty", {"a": [], "b": []})
        assert lake_fingerprint(DataLake([cities, empty])) == (
            "0212fda268d42d70516312f7d4d71fb32571333bac5cf96661d512e036bb629f"
        )

    def test_config_hash_ignores_runtime_fields(self):
        a = DiscoveryConfig()
        b = DiscoveryConfig(build_jobs=16, trace_sample_rate=0.1)
        c = DiscoveryConfig(num_perm=256)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
