"""Unit tests for the synthetic ontology / KB substrate."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalake.generate import DomainPool
from repro.datalake.ontology import Ontology, subsample_ontology


@pytest.fixture
def onto() -> Ontology:
    o = Ontology()
    o.add_class("thing")
    o.add_class("city", parent="thing")
    o.add_class("country", parent="thing")
    o.add_value("oslo", "city")
    o.add_value("rome", "city")
    o.add_value("norway", "country")
    o.add_relation("capital_of", "city", "country")
    o.add_fact("oslo", "norway", "capital_of")
    return o


class TestHierarchy:
    def test_class_of(self, onto):
        assert onto.class_of("OSLO") == "city"
        assert onto.class_of("unknown") is None

    def test_unknown_parent_rejected(self):
        o = Ontology()
        with pytest.raises(KeyError):
            o.add_class("x", parent="missing")

    def test_unknown_class_for_value_rejected(self, onto):
        with pytest.raises(KeyError):
            onto.add_value("x", "missing")

    def test_ancestors_leaf_first(self, onto):
        assert onto.ancestors("city") == ["city", "thing"]

    def test_classes_of_with_hierarchy(self, onto):
        assert onto.classes_of("oslo") == {"city", "thing"}
        assert onto.classes_of("oslo", with_ancestors=False) == {"city"}

    def test_classes_listing(self, onto):
        assert set(onto.classes()) == {"thing", "city", "country"}


class TestRelations:
    def test_class_level_relation(self, onto):
        assert onto.relation_between_classes("city", "country") == "capital_of"
        assert onto.relation_between_classes("country", "city") == "capital_of"
        assert onto.relation_between_classes("city", "city") is None

    def test_value_level_fact(self, onto):
        assert onto.relation_between_values("oslo", "norway") == "capital_of"
        assert onto.relation_between_values("norway", "oslo") == "capital_of"

    def test_value_level_class_fallback(self, onto):
        # rome->norway is not a fact but the classes relate.
        assert onto.relation_between_values("rome", "norway") == "capital_of"

    def test_uncovered_value_no_relation(self, onto):
        assert onto.relation_between_values("atlantis", "norway") is None

    def test_num_facts(self, onto):
        assert onto.num_facts() == 1


class TestAnnotation:
    def test_coverage(self, onto):
        assert onto.coverage_of(["oslo", "mystery"]) == pytest.approx(0.5)
        assert onto.coverage_of([]) == 0.0

    def test_annotate_majority(self, onto):
        assert onto.annotate_column(["oslo", "rome", "xx"]) == "city"

    def test_annotate_uncovered_none(self, onto):
        assert onto.annotate_column(["xx", "yy"]) is None

    def test_annotate_low_support_none(self, onto):
        # city and country each 50% of covered values; min_support 0.6 fails.
        res = onto.annotate_column(["oslo", "norway"], min_support=0.6)
        assert res is None


class TestSubsample:
    def test_coverage_knob(self):
        pool = DomainPool(n_domains=4, base_size=400, seed=3)
        full = pool.build_ontology()
        values = [v for d in pool.domains for v in d.values]
        half = subsample_ontology(full, coverage=0.5, seed=3)
        cov = half.coverage_of(values)
        assert 0.4 < cov < 0.6
        assert subsample_ontology(full, 0.0).coverage_of(values) == 0.0
        assert subsample_ontology(full, 1.0).coverage_of(values) == 1.0

    def test_subsample_keeps_classes_and_relations(self):
        pool = DomainPool(n_domains=3, base_size=100, seed=3)
        full = pool.build_ontology()
        sub = subsample_ontology(full, coverage=0.5, seed=1)
        assert set(sub.classes()) == set(full.classes())
        a = pool.domain(0).concept
        b = pool.domain(1).concept
        assert sub.relation_between_classes(a, b) is not None

    def test_subsample_drops_facts_of_uncovered_values(self):
        o = Ontology()
        o.add_class("c")
        o.add_value("a", "c")
        o.add_value("b", "c")
        o.add_fact("a", "b", "r")
        empty = subsample_ontology(o, coverage=0.0)
        assert empty.num_facts() == 0


def scan_relation(declared, a, b):
    """Reference: the linear scan over relation names, in order of first
    declaration, each with its set of declared (subject, object) pairs."""
    by_name: dict[str, set] = {}
    for name, s, o in declared:
        by_name.setdefault(name, set()).add((s, o))
    for name, pairs in by_name.items():
        if (a, b) in pairs or (b, a) in pairs:
            return name
    return None


CLASSES = ["c0", "c1", "c2", "c3"]
declarations = st.lists(
    st.tuples(
        st.sampled_from(["r0", "r1", "r2"]),
        st.sampled_from(CLASSES),
        st.sampled_from(CLASSES),
    ),
    max_size=12,
)


def assert_lookups_match(onto, declared):
    for a in CLASSES + ["unknown"]:
        for b in CLASSES + ["unknown"]:
            assert onto.relation_between_classes(a, b) == scan_relation(
                declared, a, b
            ), (a, b)


def declare(onto, declared):
    for name, s, o in declared:
        onto.add_relation(name, s, o)


class TestRelationIndexExactness:
    """The class-pair index answers every lookup with the name the old
    linear scan over relation names returned."""

    @settings(max_examples=200, deadline=None)
    @given(first=declarations, later=declarations)
    def test_matches_scan_including_adds_after_lookups(self, first, later):
        onto = Ontology()
        declare(onto, first)
        assert_lookups_match(onto, first)
        declare(onto, later)
        assert_lookups_match(onto, first + later)

    @settings(max_examples=100, deadline=None)
    @given(first=declarations, later=declarations, seed=st.integers(0, 99))
    def test_matches_scan_after_subsample(self, first, later, seed):
        onto = Ontology()
        for cls in CLASSES:
            onto.add_class(cls)
            onto.add_value(f"v_{cls}", cls)
        declare(onto, first)
        sub = subsample_ontology(onto, coverage=0.5, seed=seed)
        assert_lookups_match(sub, first)
        declare(sub, later)
        assert_lookups_match(sub, first + later)
        # The copy is independent of the original.
        assert_lookups_match(onto, first)

    @settings(max_examples=100, deadline=None)
    @given(first=declarations, later=declarations)
    def test_matches_scan_after_pickle_round_trip(self, first, later):
        onto = Ontology()
        declare(onto, first)
        back = pickle.loads(pickle.dumps(onto))
        assert_lookups_match(back, first)
        declare(back, later)
        assert_lookups_match(back, first + later)

    def test_pair_declared_under_two_names_keeps_first_declared_name(self):
        onto = Ontology()
        onto.add_relation("born_in", "person", "city")
        onto.add_relation("died_in", "city", "country")
        onto.add_relation("died_in", "person", "city")
        onto.add_relation("born_in", "city", "country")
        # Scan order is born_in, died_in: born_in wins both pairs, even
        # the one died_in declared first.
        assert onto.relation_between_classes("city", "person") == "born_in"
        assert onto.relation_between_classes("country", "city") == "born_in"


class TestHasFact:
    def test_either_direction_case_insensitive(self, onto):
        assert onto.has_fact("oslo", "norway")
        assert onto.has_fact("Norway", "OSLO")

    def test_class_level_relation_is_not_a_fact(self, onto):
        assert onto.relation_between_values("rome", "norway") == "capital_of"
        assert not onto.has_fact("rome", "norway")

    @settings(max_examples=100, deadline=None)
    @given(
        facts=st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from("abcdAB")),
            max_size=6,
        ),
        a=st.sampled_from("abcdeAB"),
        b=st.sampled_from("abcdeAB"),
    )
    def test_symmetric(self, facts, a, b):
        onto = Ontology()
        for s, o in facts:
            onto.add_fact(s, o, "r")
        lowered = {(s.lower(), o.lower()) for s, o in facts}
        expected = (a.lower(), b.lower()) in lowered or (
            b.lower(),
            a.lower(),
        ) in lowered
        assert onto.has_fact(a, b) == onto.has_fact(b, a) == expected
