"""Tests for QCR-based correlated dataset search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalake.generate import make_correlation_corpus, make_join_corpus
from repro.search.correlated import CorrelatedSearch, exact_join_correlation
from repro.search.explain import ExplainReport
from repro.sketch.qcr import CorrelationSketch


@pytest.fixture(scope="module")
def corr_corpus():
    return make_correlation_corpus(n_candidates=24, n_keys=300, seed=9)


@pytest.fixture(scope="module")
def search(corr_corpus):
    return CorrelatedSearch(sketch_size=256).build(corr_corpus.lake)


class TestSearch:
    def test_top_hits_are_truly_correlated(self, corr_corpus, search):
        res = search.search(
            corr_corpus.lake.table(corr_corpus.query_table), 0, 1, k=5
        )
        assert res
        for hit in res[:3]:
            assert corr_corpus.truth[hit.table] >= 0.6

    def test_estimates_track_truth(self, corr_corpus, search):
        res = search.search(
            corr_corpus.lake.table(corr_corpus.query_table), 0, 1, k=15
        )
        for hit in res:
            assert abs(hit.correlation) == pytest.approx(
                corr_corpus.truth[hit.table], abs=0.25
            )

    def test_ranking_by_abs_correlation(self, corr_corpus, search):
        res = search.search(
            corr_corpus.lake.table(corr_corpus.query_table), 0, 1, k=10
        )
        vals = [abs(h.correlation) for h in res]
        assert vals == sorted(vals, reverse=True)

    def test_min_containment_filters(self, corr_corpus, search):
        res = search.search(
            corr_corpus.lake.table(corr_corpus.query_table),
            0,
            1,
            k=40,
            min_containment=0.99,
        )
        loose = search.search(
            corr_corpus.lake.table(corr_corpus.query_table),
            0,
            1,
            k=40,
            min_containment=0.1,
        )
        assert len(res) <= len(loose)

    def test_query_table_excluded(self, corr_corpus, search):
        res = search.search(
            corr_corpus.lake.table(corr_corpus.query_table), 0, 1, k=40
        )
        assert all(h.table != corr_corpus.query_table for h in res)


class TestExactReference:
    def test_self_join_perfect_correlation(self, corr_corpus):
        q = corr_corpus.lake.table(corr_corpus.query_table)
        assert exact_join_correlation(q, 0, 1, q, 0, 1) == pytest.approx(1.0)

    def test_no_shared_keys_zero(self, corr_corpus):
        from repro.datalake.table import Column, Table

        q = corr_corpus.lake.table(corr_corpus.query_table)
        other = Table(
            "zz",
            [Column("key", ["nope1", "nope2", "nope3"]),
             Column("x", ["1", "2", "3"])],
        )
        assert exact_join_correlation(q, 0, 1, other, 0, 1) == 0.0


class TestSketchSizeEffect:
    def test_bigger_sketch_tighter_estimates(self, corr_corpus):
        """E9 ablation shape: error shrinks as sketch size grows."""
        from repro.bench.metrics import mean_absolute_error

        errors = []
        for n in (16, 512):
            cs = CorrelatedSearch(sketch_size=n).build(corr_corpus.lake)
            res = cs.search(
                corr_corpus.lake.table(corr_corpus.query_table),
                0,
                1,
                k=24,
                min_containment=0.05,
            )
            ests = [abs(h.correlation) for h in res]
            truths = [corr_corpus.truth[h.table] for h in res]
            errors.append(mean_absolute_error(ests, truths))
        assert errors[1] <= errors[0]


def _pairs(table, key_col, num_col):
    nums = table.columns[num_col].numeric_values()
    for key, value in zip(table.columns[key_col].values, nums):
        if key.strip() and math.isfinite(value):
            yield key, float(value)


def brute_force(lake, query, key_col, value_col, n, min_containment):
    """Reference: one ``CorrelationSketch`` per indexed column pair, each
    compared with the query sketch on its own."""
    qsketch = CorrelationSketch.from_pairs(_pairs(query, key_col, value_col), n)
    hits = {}
    for table in lake:
        for ki, _ in table.text_columns():
            for ni, _ in table.numeric_columns():
                sketch = CorrelationSketch.from_pairs(_pairs(table, ki, ni), n)
                if len(sketch) < 4 or table.name == query.name:
                    continue
                containment = qsketch.containment(sketch)
                if containment >= min_containment:
                    hits[(table.name, ki, ni)] = (
                        qsketch.correlation(sketch),
                        containment,
                    )
    return hits


def assert_matches_brute_force(lake, query, key_col, value_col, n, min_c):
    got = CorrelatedSearch(sketch_size=n).build(lake).search(
        query, key_col, value_col, k=10**6, min_containment=min_c
    )
    want = brute_force(lake, query, key_col, value_col, n, min_c)
    assert {(h.table, h.key_column, h.value_column) for h in got} == set(want)
    for h in got:
        r, containment = want[(h.table, h.key_column, h.value_column)]
        assert h.containment == containment
        # Python 3.12's sum() is compensated; numpy's grouped sums are not.
        assert abs(h.correlation - r) <= 1e-12
        assert type(h.correlation) is float
        assert type(h.containment) is float
    keys = [(-abs(h.correlation), h.table) for h in got]
    assert keys == sorted(keys)
    return got


_sketch_sizes = st.sampled_from([4, 8, 16, 64])
_min_containments = st.sampled_from([0.0, 0.1, 0.3, 0.7])


class TestExactness:
    """The columnar search equals the per-pair sketch loop on every
    candidate, not only the top k."""

    @given(
        st.integers(0, 10**6),
        st.integers(2, 10),
        _sketch_sizes,
        _min_containments,
    )
    @settings(max_examples=25, deadline=None)
    def test_correlation_corpus(self, seed, n_candidates, n, min_c):
        corpus = make_correlation_corpus(
            n_candidates=n_candidates, n_keys=60, seed=seed
        )
        query = corpus.lake.table(corpus.query_table)
        assert_matches_brute_force(corpus.lake, query, 0, 1, n, min_c)

    @given(st.integers(0, 10**6), _sketch_sizes, _min_containments, st.data())
    @settings(max_examples=25, deadline=None)
    def test_join_corpus(self, seed, n, min_c, data):
        lake = make_join_corpus(
            n_tables=12, n_queries=2, base_size=60, seed=seed
        ).lake
        query = data.draw(st.sampled_from(list(lake)))
        key_col = data.draw(st.sampled_from(range(query.num_cols)))
        value_col = data.draw(st.sampled_from(range(query.num_cols)))
        assert_matches_brute_force(lake, query, key_col, value_col, n, min_c)

    def test_store_is_sorted_columns_of_per_pair_sketches(self):
        corpus = make_correlation_corpus(n_candidates=6, n_keys=80, seed=2)
        search = CorrelatedSearch(sketch_size=16).build(corpus.lake)
        assert search.hashes.dtype == np.uint64
        assert search.values.dtype == np.float64
        assert search.sketch_of.dtype == np.int32
        assert np.all(search.hashes[1:] >= search.hashes[:-1])
        for s, (name, ki, ni) in enumerate(search.keys):
            rows = search.sketch_of == s
            want = CorrelationSketch.from_pairs(
                _pairs(corpus.lake.table(name), ki, ni), 16
            ).samples()
            assert search.hashes[rows].tolist() == want[0].tolist()
            assert search.values[rows].tolist() == want[1].tolist()

    def test_no_text_numeric_pair_builds_empty_index(self):
        from repro.datalake.lake import DataLake
        from repro.datalake.table import Column, Table

        lake = DataLake()
        lake.add(Table("words", [Column("a", ["x", "y", "z", "w", "v"])]))
        lake.add(Table("nums", [Column("n", ["1", "2", "3", "4", "5"])]))
        search = CorrelatedSearch(sketch_size=16).build(lake)
        assert search.stats()["sketches"] == 0
        query = Table(
            "q",
            [Column("k", ["x", "y", "z", "w"]), Column("v", ["1", "2", "3", "4"])],
        )
        assert search.search(query, 0, 1, min_containment=0.0) == []

    def test_empty_query_sketch_returns_every_candidate(self):
        from repro.datalake.table import Column, Table

        corpus = make_correlation_corpus(n_candidates=6, n_keys=60, seed=4)
        query = Table(
            "q",
            [
                Column("k", [f"k{j:05d}" for j in range(8)]),
                Column("v", ["n/a"] * 8),
            ],
        )
        got = assert_matches_brute_force(corpus.lake, query, 0, 1, 16, 0.0)
        assert len(got) == len(corpus.lake)
        assert all(h.correlation == 0.0 for h in got)
        assert all(h.containment == 0.0 for h in got)


# Tables of a text key column and two numeric columns, the second equal to
# the first or its negation, so a table's two sketches tie on |r|; a table
# may repeat under a name that sorts before it, so tables tie too and name
# order differs from lake order.
_tie_tables = st.lists(
    st.tuples(
        st.lists(st.integers(-50, 50), min_size=8, max_size=8),
        st.sets(st.integers(0, 15), min_size=8, max_size=8),
        st.sampled_from([1, -1]),
        st.integers(1, 2),
    ),
    min_size=1,
    max_size=4,
)


class TestTopK:
    """Only the top k hits are built; they are ``sorted(all hits)[:k]``,
    the hits listed in sketch order first."""

    @given(
        _tie_tables,
        st.lists(st.integers(-50, 50), min_size=8, max_size=8),
        st.integers(1, 12),
        _min_containments,
    )
    @settings(max_examples=60, deadline=None)
    def test_top_k_is_sorted_prefix_of_every_hit(self, tables, qvals, k, min_c):
        from repro.datalake.lake import DataLake
        from repro.datalake.table import Table

        lake = DataLake()
        for t, (vals, keys, sign, copies) in enumerate(tables):
            for c in range(copies):
                lake.add(
                    Table.from_dict(
                        f"t{t}_{copies - 1 - c}",
                        {
                            "k": [f"key{x}" for x in sorted(keys)],
                            "v": vals,
                            "w": [sign * v for v in vals],
                        },
                    )
                )
        query = Table.from_dict(
            "q", {"k": [f"key{x}" for x in range(8)], "v": qvals}
        )
        index = CorrelatedSearch(sketch_size=8).build(lake)
        every = index.search(query, 0, 1, k=10**6, min_containment=min_c)
        sketch = {key: s for s, key in enumerate(index.keys)}
        in_sketch_order = sorted(
            every, key=lambda h: sketch[(h.table, h.key_column, h.value_column)]
        )
        report = ExplainReport("qcr")
        got = index.search(query, 0, 1, k=k, min_containment=min_c, report=report)
        assert got == sorted(in_sketch_order)[:k]
        assert report.counts()["passed_containment"] == len(every)
