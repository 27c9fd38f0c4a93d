"""Unit tests for LSH Ensemble containment search."""

import math
import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_
from repro.sketch.lshensemble import LSHEnsemble, containment_to_jaccard
from repro.sketch.minhash import MinHash, exact_containment


def _build_population(seed=0, n=60):
    """Indexed sets with skewed sizes plus a fixed query set."""
    rng = random.Random(seed)
    query = {f"q{i}" for i in range(100)}
    sets = {}
    for i in range(n):
        size = int(20 * (1.35 ** (i % 20)))  # skewed cardinalities
        own = {f"s{i}_{j}" for j in range(size)}
        overlap = set(rng.sample(sorted(query), rng.randint(0, 100)))
        sets[f"set{i:03d}"] = own | overlap
    return query, sets


class TestConversion:
    def test_bounds(self):
        assert containment_to_jaccard(0.0, 100, 100) == 0.0
        assert containment_to_jaccard(1.0, 100, 100) == pytest.approx(1.0)

    def test_monotone_in_threshold(self):
        js = [containment_to_jaccard(t / 10, 100, 500) for t in range(11)]
        assert js == sorted(js)

    def test_larger_candidates_need_smaller_jaccard(self):
        j_small = containment_to_jaccard(0.5, 100, 100)
        j_large = containment_to_jaccard(0.5, 100, 10000)
        assert j_large < j_small

    def test_zero_query(self):
        assert containment_to_jaccard(0.5, 0, 100) == 0.0


def _reference_jaccard(threshold, size, upper):
    """The scalar containment -> Jaccard conversion, in Python floats."""
    if size <= 0:
        return 0.0
    denom = size + upper - threshold * size
    return 1.0 if denom <= 0 else max(0.0, min(1.0, threshold * size / denom))


def _reference_rows(ens, j):
    """The scalar r rule the vectorized plan replaced: the cheapest r by a
    loop in Python floats, the first on ties."""
    best_r, best_cost = ens.rows[0], math.inf
    for r in ens.rows:
        b = ens.num_perm // r
        fn = 1.0 - (1.0 - (1.0 - j**r) ** b)
        fp = 1.0 - (1.0 - max(0.0, j - 0.2) ** r) ** b
        if 5.0 * fn + fp < best_cost:
            best_r, best_cost = r, 5.0 * fn + fp
    return best_r


def _check_plan(ens, threshold, size, uppers):
    """The ensemble's per-query plan (every partition's r in one pass)
    equals per-partition conversion plus the scalar rule."""
    js = [_reference_jaccard(threshold, size, u) for u in uppers]
    assert [containment_to_jaccard(threshold, size, u) for u in uppers] == js
    plan_js = containment_to_jaccard(threshold, size, np.array(uppers))
    assert plan_js.tolist() == js
    assert ens._banding(plan_js).tolist() == [_reference_rows(ens, j) for j in js]


class TestBanding:
    @pytest.mark.parametrize("threshold", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_plan_equals_per_partition_rule(self, threshold):
        """Sizes 0..10^4 against partition bounds spanning the same range."""
        ens = LSHEnsemble()
        uppers = [1, 7, 40, 150, 600, 2500, 7000, 10**4]
        for size in [*range(0, 200), *range(200, 10**4 + 1, 97)]:
            _check_plan(ens, threshold, size, uppers)

    def test_choose_rows_equals_scalar_rule(self):
        ens = LSHEnsemble()
        for j in np.linspace(0.0, 1.0, 401).tolist():
            assert ens.choose_rows(j) == _reference_rows(ens, j)

    @given(
        st.integers(0, 10**4),
        st.lists(st.integers(1, 10**4), min_size=1, max_size=16),
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from([16, 64, 128, 256]),
    )
    @settings(max_examples=200, deadline=None)
    def test_plan_property(self, size, uppers, threshold, num_perm):
        """Property: the plan equals per-partition ``containment_to_jaccard``
        plus the scalar r rule, for any query size, bounds and threshold."""
        _check_plan(LSHEnsemble(num_perm=num_perm), threshold, size, sorted(uppers))


class TestIndexLifecycle:
    def test_query_before_index_rejected(self):
        ens = LSHEnsemble()
        with pytest.raises(IndexError_):
            ens.query(MinHash(), 10, 0.5)

    def test_double_index_rejected(self):
        ens = LSHEnsemble(num_partitions=2)
        entries = [("a", MinHash.from_values(["x"]), 1)]
        ens.index(entries)
        with pytest.raises(IndexError_):
            ens.index(entries)

    def test_empty_index_rejected(self):
        with pytest.raises(IndexError_):
            LSHEnsemble().index([])

    def test_bad_partitions_rejected(self):
        with pytest.raises(IndexError_):
            LSHEnsemble(num_partitions=0)

    def test_duplicate_key_rejected(self):
        mh = MinHash.from_values(["x"])
        with pytest.raises(IndexError_):
            LSHEnsemble().index([("a", mh, 1), ("a", mh, 1)])

    def test_wrong_num_perm_rejected(self):
        with pytest.raises(IndexError_):
            LSHEnsemble(num_perm=128).index([("a", MinHash(num_perm=64), 1)])
        ens = LSHEnsemble(num_perm=128)
        ens.index([("a", MinHash.from_values(["x"]), 1)])
        with pytest.raises(IndexError_):
            ens.query(MinHash(num_perm=64), 1, 0.5)


class TestPartitioning:
    @pytest.mark.parametrize(
        "n,parts",
        [(1, 1), (1, 8), (3, 8), (8, 8), (15, 8), (16, 8), (97, 8),
         (100, 16), (31, 4), (240, 8), (10, 3)],
    )
    def test_equi_depth(self, n, parts):
        """Exactly min(parts, n) partitions whose occupancies differ by at
        most one, covering the entries in ascending size order."""
        rng = random.Random(n * 100 + parts)
        sizes = [rng.randint(1, 500) for _ in range(n)]
        mh = MinHash.from_values(["x"])
        ens = LSHEnsemble(num_partitions=parts)
        ens.index([(i, mh, size) for i, size in enumerate(sizes)])
        stats = ens.stats()
        occupancy = stats["partition_occupancy"]
        assert stats["partitions"] == len(occupancy) == min(parts, n)
        assert sum(occupancy) == stats["keys"] == n
        assert max(occupancy) - min(occupancy) <= 1
        ordered = sorted(sizes)
        ends = [sum(occupancy[: i + 1]) for i in range(len(occupancy))]
        assert stats["partition_upper_bounds"] == [ordered[e - 1] for e in ends]


class TestRecallPrecision:
    def test_high_recall_at_threshold(self):
        query, sets = _build_population()
        ens = LSHEnsemble(num_partitions=8)
        ens.index(
            [
                (k, MinHash.from_values(s), len(s))
                for k, s in sorted(sets.items())
            ]
        )
        qmh = MinHash.from_values(query)
        threshold = 0.5
        truth = {
            k for k, s in sets.items() if exact_containment(query, s) >= threshold
        }
        found = set(ens.query(qmh, len(query), threshold))
        recall = len(found & truth) / max(len(truth), 1)
        assert recall >= 0.9

    def test_verified_results_sorted_and_thresholded(self):
        query, sets = _build_population(seed=1)
        ens = LSHEnsemble(num_partitions=4)
        ens.index(
            [(k, MinHash.from_values(s), len(s)) for k, s in sorted(sets.items())]
        )
        qmh = MinHash.from_values(query)
        hits = ens.query_verified(qmh, len(query), 0.5)
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(s >= 0.5 for s in scores)

    def test_more_partitions_fewer_candidates(self):
        """The LSH Ensemble headline: partitioning by cardinality prunes
        false positives relative to a single-partition index."""
        query, sets = _build_population(seed=2, n=80)
        entries = [
            (k, MinHash.from_values(s), len(s)) for k, s in sorted(sets.items())
        ]
        qmh = MinHash.from_values(query)
        sizes = []
        for parts in (1, 16):
            ens = LSHEnsemble(num_partitions=parts)
            ens.index(list(entries))
            sizes.append(len(ens.query(qmh, len(query), 0.7)))
        assert sizes[1] <= sizes[0]

    def test_superset_always_candidate(self):
        query = {f"q{i}" for i in range(50)}
        superset = query | {f"extra{i}" for i in range(200)}
        ens = LSHEnsemble(num_partitions=2)
        ens.index(
            [
                ("sup", MinHash.from_values(superset), len(superset)),
                ("junk", MinHash.from_values({f"z{i}" for i in range(30)}), 30),
            ]
        )
        found = ens.query(MinHash.from_values(query), len(query), 0.8)
        assert "sup" in found


def _reference_candidates(ens, entries, mh, size, threshold):
    """Reference: per-partition bucket dicts keyed by band bytes, over the
    index's own partition layout (stable size order, its occupancies) and
    its per-partition banding choice."""
    ordered = sorted(entries, key=lambda e: e[2])
    stats = ens.stats()
    found, start = set(), 0
    for count, upper in zip(
        stats["partition_occupancy"], stats["partition_upper_bounds"]
    ):
        chunk = ordered[start : start + count]
        start += count
        j = containment_to_jaccard(threshold, size, max(upper, 1))
        r = ens.choose_rows(j)
        tables = [defaultdict(list) for _ in range(ens.num_perm // r)]
        for key, cmh, _ in chunk:
            sig = cmh.hashvalues
            for i, table in enumerate(tables):
                table[sig[i * r : (i + 1) * r].tobytes()].append(key)
        q = mh.hashvalues
        for i, table in enumerate(tables):
            found.update(table.get(q[i * r : (i + 1) * r].tobytes(), ()))
    return found


@given(
    st.lists(st.sets(st.integers(0, 40), min_size=1, max_size=30),
             min_size=1, max_size=20),
    st.sets(st.integers(0, 40), min_size=1, max_size=30),
    st.integers(1, 16),
    st.floats(0.01, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_query_equals_bucket_dicts(sets, query, parts, threshold):
    """Property: the ensemble's signature-matrix band check returns exactly
    the candidates of per-partition bucket dicts, once each."""
    entries = []
    for i, s in enumerate(sets):
        tokens = {str(x) for x in s}
        entries.append((i, MinHash.from_values(tokens), len(tokens)))
    ens = LSHEnsemble(num_partitions=parts)
    ens.index(list(entries))
    tokens = {str(x) for x in query}
    qmh = MinHash.from_values(tokens)
    found = ens.query(qmh, len(tokens), threshold)
    assert len(found) == len(set(found))
    assert set(found) == _reference_candidates(
        ens, entries, qmh, len(tokens), threshold
    )
    expected = []
    for key, cmh, size in entries:
        c = qmh.containment(cmh, len(tokens), size)
        if key in set(found) and c >= threshold:
            expected.append((key, c))
    expected.sort(key=lambda kv: (-kv[1], str(kv[0])))
    assert ens.query_verified(qmh, len(tokens), threshold) == expected
