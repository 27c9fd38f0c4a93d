"""The one cell rule: every engine keys a raw cell through ``cell_key``.

How a cell is rendered (case, padding, doubled inner spaces, a null
spelled ``N/A`` or ``NULL``) is not what it means, so a noisy rendering of
a lake must give the same hits as the clean one, and a null cell matches
nothing.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.datalake.generate import make_join_corpus, make_union_corpus
from repro.datalake.lake import DataLake
from repro.datalake.ontology import Ontology
from repro.datalake.table import NULL_TOKENS, Column, Table, cell_key
from repro.search.correlated import CorrelatedSearch, exact_join_correlation
from repro.search.explain import ExplainReport
from repro.search.infogather import InfoGather
from repro.search.joinable import ColumnSets
from repro.search.mate import MateHit, MateIndex
from repro.search.union_santos import SantosUnionSearch
from repro.sketch.minhash import MinHash
from repro.sketch.qcr import key_hashes

NULL_RENDERINGS = ["", " ", "N/A", "n/a", "NULL", " null ", "NaN", "None", "-", "?", "NA"]


def _lake(*tables):
    lake = DataLake()
    for table in tables:
        lake.add(table)
    return lake


def _mate(lake):
    index = MateIndex()
    index.index_lake(lake)
    return index


class TestCellKey:
    @pytest.mark.parametrize("raw", ["  New  York ", "NEW YORK", "new\tyork", "New York"])
    def test_renderings_share_a_key(self, raw):
        assert cell_key(raw) == "new york"

    @pytest.mark.parametrize("raw", NULL_RENDERINGS)
    def test_null_renderings_key_to_empty(self, raw):
        assert cell_key(raw) == ""

    def test_keys_are_fixed_points(self):
        for raw in ["  A  b ", "x", "N/A", "12.5"]:
            assert cell_key(cell_key(raw)) == cell_key(raw)

    def test_null_tokens_are_the_null_keys(self):
        assert all(cell_key(token) == "" for token in NULL_TOKENS)


def _noisy_city_lake():
    """The three-table lake where the old rules disagreed: ``a`` renders
    ``New York`` with a doubled space, ``b`` holds only nulls in common."""
    q = Table.from_dict(
        "q", {"city": ["New York", "N/A", "NULL", "Boston"], "v": ["1", "2", "3", "4"]}
    )
    a = Table.from_dict(
        "a", {"city": ["new  york", "Chicago", "Denver", "Austin"], "v": ["4", "3", "2", "1"]}
    )
    b = Table.from_dict(
        "b", {"city": ["n/a", "null", "Seattle", "Miami"], "v": ["1", "2", "3", "4"]}
    )
    return _lake(q, a, b)


class TestThreeTableLake:
    def test_mate_matches_the_spaced_key_not_the_nulls(self):
        lake = _noisy_city_lake()
        assert _mate(lake).search(lake.table("q"), [0]) == [MateHit("a", 1, 2)]

    def test_qcr_keeps_two_keys(self):
        hashes, present = key_hashes(_noisy_city_lake().table("q").columns[0].values)
        assert present.tolist() == [True, False, False, True]
        assert len(set(hashes[present].tolist())) == 2

    def test_josie_agrees(self):
        lake = _noisy_city_lake()
        hits = ColumnSets(lake).exact_topk(lake.table("q").columns[0], exclude_table="q")
        assert [h.ref.table for h in hits] == ["a"]


class TestNullsNeverMatch:
    def _lake(self):
        nulls = NULL_RENDERINGS * 2
        q = Table.from_dict(
            "q",
            {
                "k": nulls + ["x1", "x2", "x3", "x4"],
                "v": [str(i) for i in range(len(nulls) + 4)],
            },
        )
        c = Table.from_dict(
            "c",
            {
                "k": nulls[::-1] + ["y1", "y2", "y3", "y4"],
                "v": [str(i * i) for i in range(len(nulls) + 4)],
            },
        )
        return _lake(q, c)

    def test_mate(self):
        lake = self._lake()
        index = _mate(lake)
        assert not set(index.vocab) & (NULL_TOKENS | {""})
        assert index.search(lake.table("q"), [0]) == []
        assert index.search(lake.table("q"), [0, 1]) == []

    def test_mate_all_null_query_has_no_keys(self):
        lake = self._lake()
        query = Table.from_dict("nq", {"k": ["N/A", "null", " "], "j": ["-", "?", "NaN"]})
        report = ExplainReport("mate")
        hits = _mate(lake).search(query, [0, 1], report=report)
        assert hits == [] and report.query == "<no usable query keys>"

    def test_qcr(self):
        lake = self._lake()
        search = CorrelatedSearch(sketch_size=16).build(lake)
        # Each sketch holds only the four real keys of its table.
        assert search.hashes.size == 2 * 4
        hits = search.search(lake.table("q"), 0, 1, min_containment=0.0)
        assert [(h.table, h.containment) for h in hits] == [("c", 0.0)]

    def test_exact_join_correlation(self):
        lake = self._lake()
        assert exact_join_correlation(lake.table("q"), 0, 1, lake.table("c"), 0, 1) == 0.0

    def test_infogather_null_examples_explain_nothing(self):
        lake = _lake(
            Table.from_dict(
                "t1", {"country": ["france", "italy", "peru"], "capital": ["N/A", "null", "lima"]}
            ),
            Table.from_dict(
                "t2", {"country": ["france", "italy", "chile"], "capital": ["-", "n/a", "santiago"]}
            ),
        )
        found = InfoGather(lake).build().augment_by_example(
            ["peru", "chile"], {"France": "NULL", "italy": " ? "}
        )
        assert found.values == {} and found.sources == []


def _spaced(value: str) -> str:
    return value.replace("_", " ")


def _clean_and_noisy_keys():
    """A key column and numeric column per table, clean and noisy."""
    keys = [f"key {i} of {i % 3}" for i in range(12)]
    noisy = [
        f"  {k.upper().replace(' ', '  ')}\t" if i % 2 else k.title()
        for i, k in enumerate(keys)
    ]
    nums = [str(i * 1.5) for i in range(12)]
    return keys, noisy, nums


class TestNoisyKeyMatchesCleanForm:
    def test_mate(self):
        keys, noisy, nums = _clean_and_noisy_keys()
        lake = _lake(
            Table.from_dict("clean", {"k": keys, "t": ["p"] * 12}),
            Table.from_dict("noisy", {"k": noisy, "t": [" P "] * 12}),
        )
        index = _mate(lake)
        assert index.search(lake.table("clean"), [0]) == [MateHit("noisy", 12, 12)]
        assert index.search(lake.table("noisy"), [0, 1]) == [MateHit("clean", 12, 12)]

    def test_qcr_sketch_path(self):
        keys, noisy, nums = _clean_and_noisy_keys()
        lake = _lake(
            Table.from_dict("clean", {"k": keys, "v": nums}),
            Table.from_dict("noisy", {"k": noisy, "v": nums[::-1]}),
        )
        search = CorrelatedSearch(sketch_size=16).build(lake)
        for name, other in (("clean", "noisy"), ("noisy", "clean")):
            [hit] = search.search(lake.table(name), 0, 1)
            assert (hit.table, hit.containment) == (other, 1.0)
            assert hit.correlation == pytest.approx(-1.0)
        assert key_hashes(keys)[0].tolist() == key_hashes(noisy)[0].tolist()

    def test_exact_join_correlation(self):
        keys, noisy, nums = _clean_and_noisy_keys()
        clean = Table.from_dict("clean", {"k": keys, "v": nums})
        other = Table.from_dict("noisy", {"k": noisy, "v": nums[::-1]})
        assert exact_join_correlation(clean, 0, 1, other, 0, 1) == pytest.approx(-1.0)

    def _ontology(self):
        onto = Ontology()
        onto.add_class("city")
        onto.add_class("country")
        pairs = [("new york", "united states"), ("paris", "france"), ("rome", "italy")]
        for city, country in pairs:
            onto.add_value(city, "city")
            onto.add_value(country, "country")
            onto.add_fact(city, country, "located_in")
        return onto

    def test_ontology_lookups(self):
        onto = self._ontology()
        assert onto.class_of("  New  YORK ") == onto.class_of("new york") == "city"
        assert onto.has_fact(" PARIS", "France  ")
        assert onto.has_fact("United   States", "new york")
        assert onto.class_of("N/A") is None and not onto.has_fact("null", "-")

    def test_ontology_stores_keys(self):
        onto = Ontology()
        onto.add_class("c")
        onto.add_value("  Big  Apple ", "c")
        onto.add_value("N/A", "c")
        onto.add_fact(" X ", "NULL", "r")
        assert onto.class_of("big apple") == "c"
        assert onto.class_of("") is None and onto.num_facts() == 0

    def test_santos_relationship_support(self):
        rows = [("New York", "United States"), ("Paris", "France"), ("Rome", "Italy")] * 2
        clean = Table.from_dict(
            "clean", {"city": [c for c, _ in rows], "country": [k for _, k in rows]}
        )
        noisy = Table.from_dict(
            "noisy",
            {
                "city": [f" {c.upper().replace(' ', '  ')} " for c, _ in rows] + ["N/A"],
                "country": [f"{k.lower()}\t" for _, k in rows] + ["NULL"],
            },
        )
        santos = SantosUnionSearch(
            _lake(clean, noisy), self._ontology(), use_synthesized_kb=False
        ).build()
        want = ((("city", "country"), 1.0),)
        assert santos._semantics["clean"].relationship_support == want
        assert santos._semantics["noisy"].relationship_support == want


_CASES = [str.upper, str.lower, str.title, str.swapcase, str]
_PADS = ["", " ", "  ", "\t", " \t "]


def _render(value: str, rng: random.Random) -> str:
    """One noisy rendering of a clean cell: random case, padding and
    doubled inner spaces."""
    value = rng.choice(_CASES)(value)
    if rng.random() < 0.5:
        value = value.replace(" ", "  ")
    return rng.choice(_PADS) + value + rng.choice(_PADS)


def _noisy_lake(clean: DataLake, rng: random.Random) -> DataLake:
    """``clean`` rendered with noise, with up to three appended rows made
    only of null tokens per table."""
    out = DataLake()
    for table in clean:
        rows = [[_render(cell, rng) for cell in row] for row in table.rows()]
        rows += [
            [rng.choice(NULL_RENDERINGS) for _ in table.columns]
            for _ in range(rng.randrange(4))
        ]
        out.add(Table.from_rows(table.name, table.header, rows))
    return out


def _spaced_lake(lake: DataLake) -> DataLake:
    """The generated lake with ``_`` rendered as a space, so its keys have
    inner spaces for the noise to double."""
    out = DataLake()
    for table in lake:
        columns = [Column(c.name, list(map(_spaced, c.values))) for c in table.columns]
        out.add(Table(table.name, columns))
    return out


def _hits(lake: DataLake):
    sets, mate = ColumnSets(lake), _mate(lake)
    qcr = CorrelatedSearch(sketch_size=32).build(lake)
    out = []
    for table in lake:
        out.append(sets.exact_topk(table.columns[0], k=5, exclude_table=table.name))
        out.append(mate.search(table, [0], k=5))
        out.append(mate.search(table, [0, 1], k=5))
        out.append(qcr.search(table, 0, 2, k=5))
    return out


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), noise=st.integers(0, 2**32 - 1))
def test_noisy_rendering_gives_clean_hits(seed, noise):
    clean = _spaced_lake(
        make_join_corpus(n_tables=8, n_queries=2, base_size=40, seed=seed).lake
    )
    noisy = _noisy_lake(clean, random.Random(noise))
    assert [t.columns[2].is_numeric for t in noisy] == [True] * len(noisy)
    assert _hits(noisy) == _hits(clean)


# -- one keyed view: each text cell keyed once, each column signed once ------


def _fresh(lake: DataLake) -> DataLake:
    """An equal lake whose columns have keyed nothing yet."""
    return DataLake(
        [Table(t.name, [Column(c.name, list(c.values)) for c in t.columns]) for t in lake]
    )


def _calls(fn, code, skip_module: str | None = None) -> int:
    """How many calls of the function with ``code`` running ``fn`` makes,
    not counting calls made from the module ``skip_module``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += frame.f_back.f_globals.get("__name__") != skip_module

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


_KEY = cell_key.__code__
_SIGN = MinHash.from_values.__func__.__code__
_ONTOLOGY = "repro.datalake.ontology"


def _union_case():
    corpus = make_union_corpus(n_groups=2, tables_per_group=3, rows_per_table=20, seed=7)
    # Every key is in the vocabulary at min_count 1.
    config = DiscoveryConfig(embedding_dim=16, embedding_min_count=1, enable_domains=True)
    return _fresh(corpus.lake), config, corpus.ontology


def _union_case_min_count_2():
    """The default ``embedding_min_count``: many keys are out of the
    vocabulary, and embedding them must not key them again."""
    corpus = make_union_corpus(n_groups=2, tables_per_group=3, rows_per_table=20, seed=7)
    return _fresh(corpus.lake), DiscoveryConfig(embedding_dim=16), corpus.ontology


def _join_case():
    corpus = make_join_corpus(n_tables=12, n_queries=2, base_size=60, seed=3)
    return _fresh(corpus.lake), DiscoveryConfig(enable_embeddings=False), None


class TestKeyedOnce:
    @pytest.mark.parametrize(
        "case",
        [_union_case, _union_case_min_count_2, _join_case],
        ids=["union", "union-min-count-2", "join"],
    )
    def test_build_keys_each_text_cell_once(self, case):
        lake, config, ontology = case()
        system = DiscoverySystem(lake, config, ontology)
        text_cells = sum(len(c) for t in lake for _, c in t.text_columns())
        assert _calls(system.build, _KEY, _ONTOLOGY) == text_cells > 0

    @pytest.mark.parametrize("case", [_union_case, _join_case], ids=["union", "join"])
    def test_build_signs_each_column_once(self, case):
        system = DiscoverySystem(*case())
        signed = _calls(system.build, _SIGN)
        assert signed == len(system.foundations["column_sets"].raw.ids) > 0

    def test_lake_table_through_mate_keys_nothing(self):
        lake, config, _ = _join_case()
        system = DiscoverySystem(lake, config).build()
        for name in lake.table_names():
            query = lambda: system.multi_attribute_search(name, [0, 1], k=5)  # noqa: E731
            assert _calls(query, _KEY) == 0

    def test_keyed_view_is_what_readers_read(self):
        column = Column("c", ["  New  York ", "N/A", "boston", "BOSTON", ""])
        keys = column.cell_keys()
        assert keys == ("new york", "", "boston", "boston", "")
        assert column.cell_keys() is keys
        assert keys[2] is column.values[2]  # a cell that is its own key is kept
        assert column.non_null_values() == ["new york", "boston", "boston"]
        assert column.value_set() == {"new york", "boston"}
        assert column.null_fraction() == 2 / 5
