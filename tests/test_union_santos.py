"""Tests for SANTOS relationship-aware union search."""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.metrics import precision_at_k
from repro.datalake.generate import make_relationship_corpus, make_union_corpus
from repro.datalake.lake import DataLake
from repro.datalake.ontology import Ontology
from repro.datalake.table import Column, Table
from repro.search.explain import ExplainReport
from repro.search.results import TableResult
from repro.search.union_santos import (
    ColumnOnlySantosBaseline,
    SantosUnionSearch,
)
from repro.understanding.annotate import OntologyAnnotator


@pytest.fixture(scope="module")
def rel_corpus():
    return make_relationship_corpus(
        n_queries=3, positives_per_query=5, confounders_per_query=5, seed=13
    )


@pytest.fixture(scope="module")
def santos(rel_corpus):
    return SantosUnionSearch(rel_corpus.ontology).build(rel_corpus.lake)


class TestLifecycle:
    def test_search_before_build_rejected(self, rel_corpus):
        s = SantosUnionSearch(rel_corpus.ontology)
        with pytest.raises(RuntimeError):
            s.search(rel_corpus.lake.table("relq_00"))


class TestRelationshipMatching:
    def test_positives_beat_confounders(self, rel_corpus, santos):
        """The SANTOS headline (E5 shape): relationship-aware matching ranks
        fact-respecting tables above domain-sharing confounders."""
        for q in rel_corpus.truth:
            res = santos.search(rel_corpus.lake.table(q), k=5)
            p5 = precision_at_k([r.table for r in res], rel_corpus.truth[q], 5)
            assert p5 >= 0.8, q

    def test_column_only_baseline_confused(self, rel_corpus, santos):
        baseline = ColumnOnlySantosBaseline(rel_corpus.ontology).build(
            rel_corpus.lake
        )
        q = sorted(rel_corpus.truth)[0]
        res_base = baseline.search(rel_corpus.lake.table(q), k=10)
        # Baseline gives confounders the same score as positives.
        scores = {r.table: r.score for r in res_base}
        pos = sorted(rel_corpus.truth[q])[0]
        neg = sorted(rel_corpus.confounders[q])[0]
        assert scores.get(pos) == pytest.approx(scores.get(neg))
        # SANTOS separates them.
        res = {r.table: r.score for r in santos.search(rel_corpus.lake.table(q), k=20)}
        assert res.get(pos, 0.0) > res.get(neg, 0.0)

    def test_scores_sorted(self, rel_corpus, santos):
        res = santos.search(rel_corpus.lake.table("relq_00"), k=10)
        scores = [r.score for r in res]
        assert scores == sorted(scores, reverse=True)

    def test_unindexed_query_table_handled(self, rel_corpus, santos):
        # A fresh table not in the lake: semantics computed on the fly.
        from repro.datalake.table import Column, Table

        src = rel_corpus.lake.table("relq_01")
        fresh = Table(
            "fresh_query",
            [Column(c.name, list(c.values)) for c in src.columns],
        )
        res = santos.search(fresh, k=5)
        got = {r.table for r in res}
        assert got & (rel_corpus.truth["relq_01"] | {"relq_01"})


class TestSynthesizedKB:
    def test_synth_kb_helps_without_full_ontology(self, rel_corpus):
        """With facts stripped from the KB, the synthesized lake KB should
        still let SANTOS find relationship support."""
        from repro.datalake.ontology import Ontology

        bare = Ontology()
        bare.add_class("thing")
        for cls in rel_corpus.ontology.classes():
            if cls != "thing":
                bare.add_class(cls, parent="thing")
        for v, c in rel_corpus.ontology._value_to_class.items():
            bare.add_value(v, c)
        # No facts, no relations in `bare`.
        with_synth = SantosUnionSearch(bare, use_synthesized_kb=True).build(
            rel_corpus.lake
        )
        without = SantosUnionSearch(bare, use_synthesized_kb=False).build(
            rel_corpus.lake
        )
        q = "relq_00"
        res_with = with_synth.search(rel_corpus.lake.table(q), k=5)
        res_without = without.search(rel_corpus.lake.table(q), k=5)
        p_with = precision_at_k(
            [r.table for r in res_with], rel_corpus.truth[q], 5
        )
        p_without = precision_at_k(
            [r.table for r in res_without], rel_corpus.truth[q], 5
        )
        assert p_with >= p_without


class ScanOntology:
    """The old lookup path over an ontology: class-level relations by a
    linear scan over the declared relation names, instance facts read from
    ``_facts``; everything else is delegated."""

    def __init__(self, onto: Ontology, declared):
        self._onto = onto
        self._declared = list(declared)
        self._facts = onto._facts

    def __getattr__(self, name):
        return getattr(self._onto, name)

    def relation_between_classes(self, a, b):
        by_name: dict[str, set] = {}
        for name, s, o in self._declared:
            by_name.setdefault(name, set()).add((s, o))
        for name, pairs in by_name.items():
            if (a, b) in pairs or (b, a) in pairs:
                return name
        return None

    def relation_between_values(self, a, b):
        fact = self._facts.get((str(a).lower(), str(b).lower()))
        if fact is None:
            fact = self._facts.get((str(b).lower(), str(a).lower()))
        if fact is not None:
            return fact
        ca, cb = self._onto.class_of(a), self._onto.class_of(b)
        if ca is None or cb is None:
            return None
        return self.relation_between_classes(ca, cb)

    # The annotator looks relations up by key; keys take the same scan.
    relation_between_keys = relation_between_values


class OldPathSantos(SantosUnionSearch):
    """SANTOS with the fact check as it read before ``Ontology.has_fact``:
    a value-level lookup (with its class-level fallback), then direct
    ``_facts`` reads, then the synthesized KB's value-level lookup."""

    def _fact_supported(self, a, b):
        if self.ontology.relation_between_values(a, b) is not None:
            if self.ontology._facts.get((a.lower(), b.lower())) is not None:
                return True
            if self.ontology._facts.get((b.lower(), a.lower())) is not None:
                return True
        if self._synth is not None:
            if ScanOntology(self._synth, ()).relation_between_values(a, b):
                return True
        return False


def _recorded(make):
    """Run a corpus generator, recording every ``add_relation`` call."""
    declared = []
    original = Ontology.add_relation

    def recording(self, name, subject_cls, object_cls):
        declared.append((name, subject_cls, object_cls))
        original(self, name, subject_cls, object_cls)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Ontology, "add_relation", recording)
        corpus = make()
    return corpus, declared


@pytest.fixture(
    scope="module",
    params=["union", "relationship"],
)
def recorded_corpus(request):
    if request.param == "union":
        return _recorded(
            lambda: make_union_corpus(
                n_groups=4, tables_per_group=4, rows_per_table=40, seed=11
            )
        )
    return _recorded(
        lambda: make_relationship_corpus(
            n_queries=3, positives_per_query=5, confounders_per_query=5, seed=13
        )
    )


class TestOldLookupPathEquivalence:
    """Annotations, SANTOS semantics and hits equal those of the old
    lookup path (class-relation scan, value-level lookup before the fact
    check)."""

    def test_annotations_equal(self, recorded_corpus):
        corpus, declared = recorded_corpus
        new = OntologyAnnotator(corpus.ontology)
        old = OntologyAnnotator(ScanOntology(corpus.ontology, declared))
        relationships = 0
        for table in corpus.lake:
            ann = new.annotate(table)
            assert ann == old.annotate(table), table.name
            relationships += len(ann.relationships)
        assert relationships > 0

    def test_santos_semantics_and_hits_equal(self, recorded_corpus):
        corpus, declared = recorded_corpus
        new = SantosUnionSearch(corpus.ontology).build(corpus.lake)
        old = OldPathSantos(ScanOntology(corpus.ontology, declared)).build(
            corpus.lake
        )
        assert new._semantics == old._semantics
        support = [
            v for sem in new._semantics.values()
            for _, v in sem.relationship_support
        ]
        assert support
        # The union corpus's KB holds no facts and its rows repeat no value
        # pair across tables; the relationship corpus's KB holds facts.
        assert any(v > 0 for v in support) == (corpus.ontology.num_facts() > 0)
        for table in corpus.lake:
            assert new.search(table, k=10) == old.search(table, k=10)


def _reference_search(santos, query, k, by_ref):
    """The per-candidate loop over ``score()`` that ``search()`` replaces."""
    query_sem = santos._semantics.get(query.name) if by_ref else None
    if query_sem is None:
        query_sem = santos._table_semantics(query)
    results = []
    for name, cand_sem in santos._semantics.items():
        if name == query.name:
            continue
        s = santos.score(query_sem, cand_sem)
        if s > 0:
            results.append(TableResult(name, s))
    return sorted(results)[:k]


GENERATED = {
    "union": lambda seed: make_union_corpus(
        n_groups=3, tables_per_group=3, rows_per_table=20, seed=seed
    ),
    "relationship": lambda seed: make_relationship_corpus(
        n_queries=2, positives_per_query=3, confounders_per_query=3, seed=seed
    ),
}


@functools.lru_cache(maxsize=8)
def _generated(kind, seed):
    return GENERATED[kind](seed)


def _group(name):
    """A generated table's group: ``g00`` of ``union_g00_t01``, ``00`` of
    ``relpos_00_01``."""
    return name.split("_")[1]


@functools.lru_cache(maxsize=16)
def _generated_index(kind, seed, hold_out, baseline):
    """SANTOS over a generated lake; ``hold_out`` leaves the first group's
    tables out of the index, so their classes and pairs may be unknown."""
    corpus = _generated(kind, seed)
    first = _group(corpus.lake.table_names()[0])
    lake = DataLake(
        [t for t in corpus.lake if not (hold_out and _group(t.name) == first)]
    )
    cls = ColumnOnlySantosBaseline if baseline else SantosUnionSearch
    return cls(corpus.ontology).build(lake)


def _mixed_query(first, second, rotate):
    """The columns of ``first`` then those of ``second``, cut to the
    shorter table's rows, with the first ``rotate`` cells of column 1
    rotated by one row: classes come from two tables, and broken fact
    pairs put relationship support strictly between 0 and 1."""
    n = min(first.num_rows, second.num_rows)
    columns = [
        Column(c.name, list(c.values[:n])) for c in (*first.columns, *second.columns)
    ]
    values = columns[1].values
    if rotate:
        values[:rotate] = values[1:rotate] + values[:1]
    return Table("mixed_query", columns)


class TestArrayPassEqualsScoreLoop:
    """``search()`` scores every candidate in one array pass; its hits and
    scores equal the per-candidate ``score()`` ranking bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(GENERATED)),
        seed=st.sampled_from([3, 7]),
        hold_out=st.booleans(),
        baseline=st.booleans(),
        form=st.sampled_from(["lake", "copy", "renamed", "mixed"]),
        pick=st.integers(0, 10_000),
        other=st.integers(0, 10_000),
        rotate=st.integers(0, 50),
        k=st.sampled_from([1, 3, 10, 1000]),
    )
    # relq_00's columns, then relq_01's: its one fact pair keeps a support
    # of 40/50 (weaker than its candidates') and 15/50, exactly the strong
    # edge threshold.
    @example("relationship", 3, False, False, "mixed", 0, 7, 10, 10)
    @example("relationship", 3, False, False, "mixed", 0, 7, 35, 10)
    def test_equal(self, kind, seed, hold_out, baseline, form, pick, other, rotate, k):
        santos = _generated_index(kind, seed, hold_out, baseline)
        lake = _generated(kind, seed).lake
        names = lake.table_names()
        table = lake.table(names[pick % len(names)])
        query = table
        if form == "mixed":
            query = _mixed_query(table, lake.table(names[other % len(names)]), rotate)
        elif form != "lake":
            name = table.name if form == "copy" else "fresh_query"
            query = Table(name, [Column(c.name, list(c.values)) for c in table.columns])
        by_ref = form == "lake"
        report = ExplainReport("santos")
        hits = santos.search(query, k=k, report=report, by_ref=by_ref)
        assert hits == _reference_search(santos, query, k, by_ref)
        assert report.params["by_ref"] is (by_ref and table.name in santos._semantics)

    @pytest.mark.parametrize("kind", sorted(GENERATED))
    def test_held_out_groups_bring_unknown_classes_and_pairs(self, kind):
        """What the property above draws covers the array pass's skips: a
        held-out table with a class and a strong pair the index lacks."""
        santos = _generated_index(kind, 3, True, False)
        lake = _generated(kind, 3).lake
        held_out = [t for t in lake if t.name not in santos._semantics]
        sems = [santos._table_semantics(t) for t in held_out]
        assert any(c not in santos._classes for sem in sems for c in sem.classes)
        if kind == "relationship":
            assert any(
                pair not in santos._pairs and support >= 0.3
                for sem in sems
                for pair, support in sem.relationship_support
            )
