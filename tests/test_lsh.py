"""Unit + property tests for the banded MinHash LSH index."""

import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import IndexError_
from repro.sketch.lsh import (
    MinHashLSH,
    band_collisions,
    collision_probability,
    optimal_bands,
)
from repro.sketch.lshensemble import LSHEnsemble
from repro.sketch.minhash import MinHash


class TestCollisionProbability:
    def test_monotone_in_similarity(self):
        ps = [collision_probability(j / 10, 16, 8) for j in range(11)]
        assert ps == sorted(ps)

    def test_extremes(self):
        assert collision_probability(0.0, 16, 8) == 0.0
        assert collision_probability(1.0, 16, 8) == 1.0

    def test_more_bands_more_collisions(self):
        assert collision_probability(0.5, 32, 4) > collision_probability(
            0.5, 8, 4
        )


def _optimal_bands_loop(num_perm, threshold, fp_weight=0.5):
    """Reference: the per-r loop ``optimal_bands`` replaced, one trapezoid
    integral per side of the threshold per r."""

    def integrate(f, lo, hi, steps=100):
        xs = np.linspace(lo, hi, steps)
        return float(np.trapezoid([f(x) for x in xs], xs))

    best, best_cost = (1, num_perm), float("inf")
    for r in range(1, num_perm + 1):
        b = num_perm // r
        fp = integrate(lambda j: collision_probability(j, b, r), 0.0, threshold)
        fn = integrate(
            lambda j: 1.0 - collision_probability(j, b, r), threshold, 1.0
        )
        cost = fp_weight * fp + (1.0 - fp_weight) * fn
        if cost < best_cost:
            best, best_cost = (b, r), cost
    return best


class TestOptimalBands:
    @pytest.mark.parametrize("num_perm", [16, 64, 128, 256])
    @pytest.mark.parametrize("fp_weight", [0.1, 0.5, 0.9])
    def test_matches_per_r_loop(self, num_perm, fp_weight):
        for threshold in (0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6,
                          0.7, 0.8, 0.85, 0.9, 0.95, 0.99, 1.0):
            assert optimal_bands(num_perm, threshold, fp_weight) == (
                _optimal_bands_loop(num_perm, threshold, fp_weight)
            ), (num_perm, threshold, fp_weight)

    def test_fits_budget(self):
        b, r = optimal_bands(128, 0.5)
        assert b * r <= 128

    def test_high_threshold_wants_long_bands(self):
        _, r_low = optimal_bands(128, 0.2)
        _, r_high = optimal_bands(128, 0.9)
        assert r_high > r_low

    def test_fp_weight_shifts_curve(self):
        b_fp, r_fp = optimal_bands(128, 0.5, fp_weight=0.9)
        b_fn, r_fn = optimal_bands(128, 0.5, fp_weight=0.1)
        # Penalizing false positives favors longer rows (stricter bands).
        assert r_fp >= r_fn

    def test_second_construction_is_a_cache_hit(self):
        optimal_bands.cache_clear()
        first = MinHashLSH(threshold=0.37, num_perm=96, fp_weight=0.4)
        hits = optimal_bands.cache_info().hits
        second = MinHashLSH(threshold=0.37, num_perm=96, fp_weight=0.4)
        assert optimal_bands.cache_info().hits == hits + 1
        assert (second.b, second.r) == (first.b, first.r)
        assert (first.b, first.r) == _optimal_bands_loop(96, 0.37, 0.4)


class TestIndex:
    def test_insert_query_roundtrip(self):
        lsh = MinHashLSH(threshold=0.5)
        mh = MinHash.from_values(["a", "b", "c"])
        lsh.insert("k", mh)
        assert "k" in lsh
        assert lsh.query(mh) == ["k"]

    def test_identical_always_found(self):
        lsh = MinHashLSH(threshold=0.9)
        for i in range(20):
            lsh.insert(i, MinHash.from_values([f"set{i}_{j}" for j in range(30)]))
        probe = MinHash.from_values([f"set7_{j}" for j in range(30)])
        assert 7 in lsh.query(probe)

    def test_duplicate_key_rejected(self):
        lsh = MinHashLSH()
        lsh.insert("k", MinHash.from_values(["a"]))
        with pytest.raises(IndexError_):
            lsh.insert("k", MinHash.from_values(["b"]))

    def test_wrong_num_perm_rejected(self):
        lsh = MinHashLSH(num_perm=128)
        with pytest.raises(IndexError_):
            lsh.insert("k", MinHash(num_perm=64))
        with pytest.raises(IndexError_):
            lsh.query(MinHash(num_perm=64))

    def test_bad_threshold_rejected(self):
        with pytest.raises(IndexError_):
            MinHashLSH(threshold=0.0)
        with pytest.raises(IndexError_):
            MinHashLSH(threshold=1.5)

    def test_query_verified_filters_and_sorts(self):
        lsh = MinHashLSH(threshold=0.4)
        base = [f"v{i}" for i in range(60)]
        lsh.insert("near", MinHash.from_values(base[:55] + ["x1", "x2"]))
        lsh.insert("far", MinHash.from_values([f"w{i}" for i in range(60)]))
        hits = lsh.query_verified(MinHash.from_values(base))
        keys = [k for k, _ in hits]
        assert keys == ["near"]
        assert all(s >= 0.4 for _, s in hits)

    def test_recall_on_similar_population(self):
        rng = random.Random(3)
        universe = [f"u{i}" for i in range(200)]
        lsh = MinHashLSH(threshold=0.5)
        truth = []
        query_set = set(universe[:100])
        qmh = MinHash.from_values(query_set)
        for i in range(50):
            size = rng.randint(50, 150)
            s = set(rng.sample(universe, size))
            inter = len(s & query_set)
            jac = inter / len(s | query_set)
            lsh.insert(i, MinHash.from_values(s))
            if jac >= 0.7:
                truth.append(i)
        found = set(lsh.query(qmh))
        assert all(t in found for t in truth)


@given(st.sets(st.text(min_size=1, max_size=5), min_size=5, max_size=50))
@settings(max_examples=25, deadline=None)
def test_no_false_negative_on_identity(values):
    """Property: querying with an indexed signature always returns its key."""
    lsh = MinHashLSH(threshold=0.8)
    mh = MinHash.from_values(values)
    lsh.insert("self", mh)
    assert "self" in lsh.query(mh)


def _bucket_candidates(signatures, query, b, r):
    """Reference: classic per-band bucket dicts keyed by the band's bytes;
    returns the set of keys sharing at least one bucket with the query."""
    tables = [defaultdict(list) for _ in range(b)]
    for key, sig in signatures:
        for i, table in enumerate(tables):
            table[sig[i * r : (i + 1) * r].tobytes()].append(key)
    found = set()
    for i, table in enumerate(tables):
        found.update(table.get(query[i * r : (i + 1) * r].tobytes(), ()))
    return found


@given(
    st.lists(st.sets(st.integers(0, 30), min_size=1, max_size=25),
             min_size=1, max_size=15),
    st.sets(st.integers(0, 30), min_size=1, max_size=25),
    st.floats(0.01, 1.0),
    st.sampled_from([16, 32, 128]),
)
@settings(max_examples=60, deadline=None)
def test_query_equals_bucket_dicts(sets, query, threshold, num_perm):
    """Property: the signature-matrix band check returns exactly the keys a
    per-band bucket-dict index returns, in insertion order."""
    lsh = MinHashLSH(threshold=threshold, num_perm=num_perm)
    sigs = []
    for i, s in enumerate(sets):
        mh = MinHash.from_values({str(x) for x in s}, num_perm=num_perm)
        lsh.insert(i, mh)
        sigs.append((i, mh.hashvalues))
    qmh = MinHash.from_values({str(x) for x in query}, num_perm=num_perm)
    found = lsh.query(qmh)
    assert found == sorted(found)
    assert set(found) == _bucket_candidates(sigs, qmh.hashvalues, lsh.b, lsh.r)


@pytest.mark.parametrize("r", sorted({*LSHEnsemble.ROWS, 3, 5}))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_band_collisions_equal_bucket_dicts(r, data):
    """Property: the word-view band check flags exactly the rows a per-band
    bucket-dict index returns, for every band width the ensemble uses and
    for odd widths, on all or only the first bands of the signature."""
    num_perm = data.draw(st.sampled_from([32, 64, 128]))
    b = data.draw(st.integers(1, num_perm // r))
    n = data.draw(st.integers(0, 12))
    # A two-letter alphabet makes band collisions common.
    sigs = data.draw(hnp.arrays(np.uint64, (n, num_perm), elements=st.integers(0, 1)))
    query = data.draw(hnp.arrays(np.uint64, num_perm, elements=st.integers(0, 1)))
    mask = band_collisions(sigs == query, b, r)
    assert mask.shape == (n,) and mask.dtype == bool
    assert set(np.flatnonzero(mask).tolist()) == _bucket_candidates(
        list(enumerate(sigs)), query, b, r
    )


def test_insert_after_query_is_indexed():
    """Inserts stay incremental: a key added after a query is found by the
    next query."""
    lsh = MinHashLSH(threshold=0.5)
    a = MinHash.from_values(["a", "b", "c"])
    lsh.insert("a", a)
    assert lsh.query(a) == ["a"]
    lsh.insert("b", a.copy())
    assert lsh.query(a) == ["a", "b"]
    assert len(lsh) == 2 and lsh.stats()["signatures"] == [2, 128]
