"""Queries by reference: a lake table or column named by address (a table
name, a ``ColumnRef``, or the lake's own ``Table``/``Column`` object) reads
what the indexes stored for it, and must answer exactly as a freshly built
equal copy does on the value path."""

from __future__ import annotations

import functools
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.config import DiscoveryConfig
from repro.core.engine import QueryRequest
from repro.core.errors import ConfigError, LakeError
from repro.core.system import STAGES, UNION_METHODS, DiscoverySystem
from repro.datalake.generate import make_join_corpus, make_union_corpus
from repro.datalake.lake import DataLake
from repro.datalake.table import Column, ColumnRef, Table
from repro.search.joinable import ColumnSets, JoinSearchConfig

COLUMN_ENGINES = ("josie", "lshensemble", "jaccard_lsh", "pexeso")
TABLE_ENGINES = ("tus", "starmie", "santos")
MODES = ("live", "reload_lake", "reload_own")


def _copy_column(column: Column) -> Column:
    return Column(column.name, list(column.values))


def _copy_table(table: Table) -> Table:
    return Table(table.name, [_copy_column(c) for c in table.columns], table.metadata)


@functools.lru_cache(maxsize=4)
def _corpus(seed: int):
    return make_union_corpus(n_groups=2, tables_per_group=3, rows_per_table=20, seed=seed)


@functools.lru_cache(maxsize=4)
def _join_corpus(seed: int):
    return make_join_corpus(n_tables=24, n_queries=2, base_size=300, seed=seed)


def _reloaded(system: DiscoverySystem, mode: str, ontology=None) -> DiscoverySystem:
    """``system`` itself (``live``), or reloaded from a snapshot with the
    caller's lake (``reload_lake``) or its own."""
    if mode == "live":
        return system
    with tempfile.TemporaryDirectory() as snap:
        system.save(snap)
        if mode == "reload_lake":
            return DiscoverySystem.load(
                snap, lake=system.lake, config=system.config, ontology=ontology
            )
        return DiscoverySystem.load(snap)


@functools.lru_cache(maxsize=12)
def _system(seed: int, mode: str) -> DiscoverySystem:
    """Every engine built over a small union lake, live or reloaded."""
    if mode != "live":
        return _reloaded(_system(seed, "live"), mode, _corpus(seed).ontology)
    corpus = _corpus(seed)
    config = DiscoveryConfig(enable_embeddings=True, embedding_min_count=1)
    return DiscoverySystem(corpus.lake, config, ontology=corpus.ontology).build()


@functools.lru_cache(maxsize=12)
def _join_system(seed: int, mode: str) -> DiscoverySystem:
    """Every engine that builds without embeddings or an ontology, over a
    small join lake (text keys and a numeric column), live or reloaded."""
    if mode != "live":
        return _reloaded(_join_system(seed, "live"), mode)
    config = DiscoveryConfig(enable_embeddings=False)
    return DiscoverySystem(_join_corpus(seed).lake, config).build()


def _engine_query(system, engine: str, **fields):
    """``(hits, report)`` of one engine on a request built by value."""
    return system.engines[engine].query(QueryRequest(**fields))


def _same(by_ref, by_copy) -> None:
    """Same hits (scores bit for bit) and the same EXPLAIN report, except
    that only the reference side may say ``by_ref``."""
    (hits, report), (copy_hits, copy_report) = by_ref, by_copy
    assert hits == copy_hits
    if report is None:
        assert copy_report is None
        return
    assert report.counts() == copy_report.counts()
    assert report.results == copy_report.results
    assert report.query == copy_report.query
    assert copy_report.params["by_ref"] is False
    assert {**report.params, "by_ref": False} == copy_report.params


class TestByReferenceEqualsByCopy:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.sampled_from([1, 4]),
        mode=st.sampled_from(MODES),
        engine=st.sampled_from(COLUMN_ENGINES),
        pick=st.integers(0, 10_000),
        k=st.integers(1, 8),
    )
    def test_column_engines(self, seed, mode, engine, pick, k):
        system = _system(seed, mode)
        refs = [ref for ref, _ in system.lake.iter_columns()]
        ref = refs[pick % len(refs)]
        column = system.lake.column(ref)
        copy = _copy_column(column)
        explain = engine != "jaccard_lsh"
        fields = dict(k=k, explain=explain, exclude_table=ref.table)
        copy_side = _engine_query(system, engine, column=copy, **fields)
        if engine == "jaccard_lsh":
            # No facade method of its own: the request the facade builds.
            request = QueryRequest(column=column, **fields)
            request.address = ref
            ref_side = system.engines[engine].query(request)
        elif engine == "pexeso":
            ref_side = system.fuzzy_joinable_search(ref, k=k, explain=True)
        else:
            method = "exact" if engine == "josie" else "containment"
            ref_side = system.joinable_search(ref, k=k, method=method, explain=True)
            # The lake's own Column object is an address too (no exclusion).
            _same(
                system.joinable_search(column, k=k, method=method, explain=True),
                system.joinable_search(copy, k=k, method=method, explain=True),
            )
        _same(ref_side, copy_side)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.sampled_from([1, 4]),
        mode=st.sampled_from(MODES),
        method=st.sampled_from(TABLE_ENGINES),
        pick=st.integers(0, 10_000),
        k=st.integers(1, 8),
    )
    def test_table_engines(self, seed, mode, method, pick, k):
        system = _system(seed, mode)
        names = system.lake.table_names()
        name = names[pick % len(names)]
        table = system.lake.table(name)
        copy_side = system.unionable_search(_copy_table(table), k=k, method=method, explain=True)
        for query in (name, table):
            _same(
                system.unionable_search(query, k=k, method=method, explain=True),
                copy_side,
            )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.sampled_from([1, 4]),
        mode=st.sampled_from(MODES),
        pick=st.integers(0, 10_000),
        k=st.integers(1, 8),
    )
    def test_federated(self, seed, mode, pick, k):
        system = _system(seed, mode)
        names = system.lake.table_names()
        table = system.lake.table(names[pick % len(names)])
        column = table.columns[pick % table.num_cols]
        for query, copy in ((table, _copy_table(table)), (column, _copy_column(column))):
            hits, copy_hits = system.search(query, k=k), system.search(copy, k=k)
            assert hits == copy_hits
            assert [h.sources for h in hits] == [h.sources for h in copy_hits]


    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.sampled_from([1, 4]),
        mode=st.sampled_from(MODES),
        pick=st.integers(0, 10_000),
        key=st.integers(0, 2),
        value=st.integers(0, 2),
        k=st.integers(1, 8),
    )
    def test_correlated(self, seed, mode, pick, key, value, k):
        """Pairs with a stored sketch (text key, numeric value) and pairs
        without one, which every side serves by value."""
        system = _join_system(seed, mode)
        names = system.lake.table_names()
        name = names[pick % len(names)]
        table = system.lake.table(name)
        copy_side = system.correlated_search(_copy_table(table), key, value, k=k, explain=True)
        for query in (name, table):
            _same(
                system.correlated_search(query, key, value, k=k, explain=True),
                copy_side,
            )


class TestByReferencePath:
    """Addresses reach the stored rows; copies never do."""

    def test_every_engine_reports_the_path_it_took(self):
        system = _system(1, "live")
        name = system.lake.table_names()[0]
        ref = ColumnRef(name, 0)
        copy = _copy_column(system.lake.column(ref))
        for method in ("exact", "containment"):
            _, report = system.joinable_search(ref, method=method, explain=True)
            assert report.params["by_ref"] is True
            _, report = system.joinable_search(copy, method=method, explain=True)
            assert report.params["by_ref"] is False
        assert system.fuzzy_joinable_search(ref, explain=True)[1].params["by_ref"]
        for method in UNION_METHODS:
            _, report = system.unionable_search(name, method=method, explain=True)
            assert report.params["by_ref"] is True
            copy_table = _copy_table(system.lake.table(name))
            _, report = system.unionable_search(copy_table, method=method, explain=True)
            assert report.params["by_ref"] is False

    def test_query_span_says_by_ref(self):
        system = _system(1, "live")
        name = system.lake.table_names()[0]
        was_enabled = obs.TRACER.enabled
        obs.TRACER.enable()
        obs.TRACER.reset()
        try:
            system.unionable_search(name, method="tus")
            system.unionable_search(_copy_table(system.lake.table(name)), method="tus")
            spans = [s for s in obs.TRACER.spans() if s.name == "query.union"]
        finally:
            if not was_enabled:
                obs.TRACER.disable()
        assert [s.attrs["by_ref"] for s in spans[-2:]] == [True, False]

    def test_tus_signs_nothing_for_an_indexed_table(self, monkeypatch):
        from repro.sketch.minhash import MinHash

        system = _system(1, "live")
        name = system.lake.table_names()[0]
        calls = []
        original = MinHash.from_values.__func__
        monkeypatch.setattr(
            MinHash,
            "from_values",
            classmethod(lambda cls, *a, **kw: calls.append(1) or original(cls, *a, **kw)),
        )
        system.unionable_search(name, method="tus")
        system.joinable_search(ColumnRef(name, 0), method="containment")
        assert calls == []
        system.unionable_search(_copy_table(system.lake.table(name)), method="tus")
        assert calls

    def test_qcr_hashes_nothing_for_an_indexed_table(self, monkeypatch):
        import repro.sketch.qcr as qcr

        system = _join_system(1, "live")
        name = system.lake.table_names()[0]
        calls = []
        original = qcr.stable_hash64
        monkeypatch.setattr(
            qcr, "stable_hash64", lambda *a: calls.append(1) or original(*a)
        )
        for query in (name, system.lake.table(name)):
            _, report = system.correlated_search(query, 0, 2, explain=True)
            assert report.params["by_ref"] is True
        assert calls == []
        _, report = system.correlated_search(
            _copy_table(system.lake.table(name)), 0, 2, explain=True
        )
        assert report.params["by_ref"] is False
        assert calls

    def test_qcr_pair_without_a_sketch_takes_the_value_path(self):
        """Column 2 is numeric: no sketch is keyed on it."""
        system = _join_system(1, "live")
        name = system.lake.table_names()[0]
        _, report = system.correlated_search(name, 2, 0, explain=True)
        assert report.params["by_ref"] is False

    def test_qcr_innermost_span_says_by_ref(self):
        system = _join_system(1, "live")
        name = system.lake.table_names()[0]
        was_enabled = obs.TRACER.enabled
        obs.TRACER.enable()
        obs.TRACER.reset()
        try:
            system.correlated_search(name, 0, 2)
            system.correlated_search(_copy_table(system.lake.table(name)), 0, 2)
            spans = [s for s in obs.TRACER.spans() if s.name == "query.correlated"]
        finally:
            if not was_enabled:
                obs.TRACER.disable()
        assert [s.attrs["by_ref"] for s in spans[-2:]] == [True, False]

    def test_unindexed_column_takes_the_value_path(self):
        """A numeric column and a one-value column are addresses that no
        join index holds: they are served by value."""
        lake = _corpus(1).lake
        extra = Table.from_dict("extra", {"n": ["1", "2", "3"], "one": ["a", "a", "a"]})
        system = DiscoverySystem(
            DataLake([*lake, extra]), DiscoveryConfig(enable_embeddings=False)
        ).build(skip=set(STAGES) - {"join_index"})
        for index in (0, 1):
            ref = ColumnRef("extra", index)
            hits, report = system.joinable_search(ref, explain=True)
            assert report.params["by_ref"] is False
            copy = _copy_column(system.lake.column(ref))
            assert hits == system.engines["josie"].query(
                QueryRequest(column=copy, exclude_table="extra")
            )[0]


class TestColumnRefIndex:
    """A ColumnRef's index follows the same rule as every column index."""

    @pytest.mark.parametrize("index", [True, False, "0", 1.0, None])
    def test_non_integer_index_is_a_config_error(self, index):
        system = _system(1, "live")
        ref = ColumnRef(system.lake.table_names()[0], index)
        with pytest.raises(ConfigError, match="column index must be an int"):
            system.joinable_search(ref)
        with pytest.raises(ConfigError, match="column index must be an int"):
            system.fuzzy_joinable_search(ref)
        with pytest.raises(ConfigError, match="column index must be an int"):
            system.search(ref)

    def test_numpy_integer_is_normalized(self):
        system = _system(1, "live")
        name = system.lake.table_names()[0]
        plain, numpy_ref = ColumnRef(name, 1), ColumnRef(name, np.int64(1))
        hits, report = system.joinable_search(numpy_ref, explain=True)
        assert report.params["by_ref"] is True
        assert hits == system.joinable_search(plain)
        assert system.fuzzy_joinable_search(numpy_ref) == system.fuzzy_joinable_search(plain)
        assert system.search(numpy_ref) == system.search(plain)

    def test_out_of_range_index_is_a_lake_error(self):
        system = _system(1, "live")
        with pytest.raises(LakeError):
            system.joinable_search(ColumnRef(system.lake.table_names()[0], 99))


class TestSantosReadsStoredSemanticsOnlyByReference:
    def test_cells_under_another_tables_name_are_annotated(self):
        """Group-1 cells under a group-0 table's name rank group-1 tables,
        as TUS does; the stored group-0 semantics are not reused."""
        system = _system(1, "live")
        impostor = Table("union_g00_t00", _copy_table(system.lake.table("union_g01_t00")).columns)
        santos = system.unionable_search(impostor, method="santos", k=2)
        tus = system.unionable_search(impostor, method="tus", k=2)
        assert [h.table[:9] for h in tus] == ["union_g01", "union_g01"]
        assert [h.table[:9] for h in santos] == ["union_g01", "union_g01"]


class TestUnionFacadeProperty:
    """``unionable_search`` on small generated lakes, every method."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.sampled_from([1, 4]),
        method=st.sampled_from(UNION_METHODS),
        pick=st.integers(0, 10_000),
        k=st.integers(1, 8),
    )
    def test_hits_bounded_sorted_and_never_the_query(self, seed, method, pick, k):
        system = _system(seed, "live")
        names = system.lake.table_names()
        name = names[pick % len(names)]
        hits = system.unionable_search(name, k=k, method=method)
        assert len(hits) <= k
        assert hits == sorted(hits)
        assert all(h.table != name for h in hits)


class TestJoinFacadeProperty:
    """``joinable_search`` (both methods) and ``search()`` over the Jaccard
    LSH on small generated join lakes, live and reloaded."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.sampled_from([1, 4]),
        mode=st.sampled_from(MODES),
        pick=st.integers(0, 10_000),
        k=st.integers(1, 8),
    )
    def test_hits_bounded_sorted_and_never_the_query(self, seed, mode, pick, k):
        system = _join_system(seed, mode)
        refs = [ref for ref, _ in system.lake.iter_columns()]
        ref = refs[pick % len(refs)]
        for method in ("exact", "containment"):
            hits = system.joinable_search(ref, k=k, method=method)
            assert len(hits) <= k
            assert hits == sorted(hits)
            assert all(h.ref.table != ref.table for h in hits)
        hits = system.search(ref, engines=["jaccard_lsh"], k=k)
        assert len(hits) <= k
        assert hits == sorted(hits)
        assert all(h.table != ref.table for h in hits)


class TestCorrelatedFacadeProperty:
    """``correlated_search`` on small generated join lakes, live and
    reloaded."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.sampled_from([1, 4]),
        mode=st.sampled_from(MODES),
        pick=st.integers(0, 10_000),
        key=st.integers(0, 2),
        value=st.integers(0, 2),
        k=st.integers(1, 8),
    )
    def test_hits_bounded_sorted_and_never_the_query(self, seed, mode, pick, key, value, k):
        system = _join_system(seed, mode)
        names = system.lake.table_names()
        name = names[pick % len(names)]
        hits = system.correlated_search(name, key, value, k=k)
        assert len(hits) <= k
        assert hits == sorted(hits)
        assert [(-abs(h.correlation), h.table) for h in hits] == sorted(
            (-abs(h.correlation), h.table) for h in hits
        )
        assert all(h.table != name for h in hits)


def _every_engine(system: DiscoverySystem, name: str, pick: int) -> dict:
    """One facade answer per built search engine for table ``name``, plus
    federated ``search()`` by table and by column."""
    table = system.lake.table(name)
    width = table.num_cols
    ref = ColumnRef(name, pick % width)

    def jaccard_lsh():
        request = QueryRequest(column=system.lake.column(ref), exclude_table=name)
        request.address = ref
        return system.engines["jaccard_lsh"].query(request)

    calls = {
        "keyword": lambda: system.keyword_search(table.columns[0].name),
        "josie": lambda: system.joinable_search(ref, method="exact"),
        "lshensemble": lambda: system.joinable_search(ref, method="containment"),
        "jaccard_lsh": jaccard_lsh,
        "pexeso": lambda: system.fuzzy_joinable_search(ref),
        "mate": lambda: system.multi_attribute_search(name, sorted({0, pick % width})),
        "qcr": lambda: system.correlated_search(name, ref.index, (ref.index + 2) % width),
        "tus": lambda: system.unionable_search(name, method="tus"),
        "starmie": lambda: system.unionable_search(name, method="starmie"),
        "santos": lambda: system.unionable_search(name, method="santos"),
    }
    answers = {
        engine.name: calls[engine.name]()
        for engine in system.engines.values()
        if engine.category == "search" and engine.is_built()
    }
    answers["search"] = system.search(name)
    answers["search_column"] = system.search(ref)
    return answers


class TestSnapshotRoundTripProperty:
    """A reloaded system answers every built engine and ``search()``
    exactly as the live one, on union and join lakes."""

    @settings(max_examples=20, deadline=None)
    @given(
        lake=st.sampled_from(["union", "join"]),
        seed=st.sampled_from([1, 4]),
        mode=st.sampled_from(["reload_lake", "reload_own"]),
        pick=st.integers(0, 10_000),
    )
    def test_identical_results(self, lake, seed, mode, pick):
        system = _system if lake == "union" else _join_system
        live, loaded = system(seed, "live"), system(seed, mode)
        names = live.lake.table_names()
        name = names[pick % len(names)]
        want, got = _every_engine(live, name, pick), _every_engine(loaded, name, pick)
        assert got == want
        for federated in ("search", "search_column"):
            assert [h.sources for h in got[federated]] == [h.sources for h in want[federated]]
        if lake == "union":
            assert {"santos", "tus", "starmie", "pexeso"} <= set(want)
        else:
            assert "qcr" in want


class TestJosieFacadeEqualsExactTopk:
    """``joinable_search(method="exact")`` equals a standalone
    ``ColumnSets.exact_topk`` over the same lake, for a ColumnRef
    (its table excluded), the lake's own Column and a copy."""

    @settings(max_examples=30, deadline=None)
    @given(
        lake=st.sampled_from(["union", "join"]),
        seed=st.sampled_from([1, 4]),
        mode=st.sampled_from(MODES),
        pick=st.integers(0, 10_000),
        k=st.integers(1, 8),
    )
    def test_equal(self, lake, seed, mode, pick, k):
        system = (_system if lake == "union" else _join_system)(seed, mode)
        reference = _reference_join_search(lake, seed)
        refs = [ref for ref, _ in system.lake.iter_columns()]
        ref = refs[pick % len(refs)]
        column = system.lake.column(ref)
        copy = _copy_column(column)
        assert system.joinable_search(ref, k=k) == reference.exact_topk(
            copy, k, exclude_table=ref.table
        )
        want = reference.exact_topk(copy, k)
        assert system.joinable_search(column, k=k) == want
        assert system.joinable_search(copy, k=k) == want


@functools.lru_cache(maxsize=4)
def _reference_join_search(lake: str, seed: int) -> ColumnSets:
    """A standalone store over the same lake, built without the facade."""
    system = (_system if lake == "union" else _join_system)(seed, "live")
    return ColumnSets(system.lake, JoinSearchConfig(num_perm=system.config.num_perm))
