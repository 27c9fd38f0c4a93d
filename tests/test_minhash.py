"""Unit + property tests for MinHash signatures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.minhash import (
    MinHash,
    exact_containment,
    exact_jaccard,
)


class TestBasics:
    def test_empty_signature(self):
        assert MinHash().is_empty()

    def test_golden_signature(self):
        """Pinned signature prefixes: indexes and snapshots built from
        these values stay valid only while the kernel reproduces them."""
        mh = MinHash.from_values(["berlin", "paris", "rome", "madrid", "lisbon"])
        assert mh.hashvalues[:8].tolist() == [
            269707473, 255974437, 359312505, 398131405,
            339741919, 1486139027, 40517827, 44540809,
        ]
        mh = MinHash.from_values(["x"], num_perm=64, seed=5)
        assert mh.hashvalues[:8].tolist() == [
            622654840, 396957175, 736154783, 601298685,
            661799046, 1355315089, 827074527, 1776643138,
        ]

    def test_update_changes_signature(self):
        mh = MinHash()
        mh.update("x")
        assert not mh.is_empty()

    def test_batch_equals_sequential(self):
        a = MinHash()
        a.update_batch(["x", "y", "z"])
        b = MinHash()
        for t in ["x", "y", "z"]:
            b.update(t)
        assert a.jaccard(b) == 1.0

    def test_identical_sets_jaccard_one(self):
        a = MinHash.from_values(["a", "b", "c"])
        b = MinHash.from_values(["c", "b", "a"])
        assert a.jaccard(b) == 1.0

    def test_disjoint_sets_jaccard_near_zero(self):
        a = MinHash.from_values([f"a{i}" for i in range(100)])
        b = MinHash.from_values([f"b{i}" for i in range(100)])
        assert a.jaccard(b) < 0.05

    def test_incompatible_signatures_rejected(self):
        with pytest.raises(ValueError):
            MinHash(num_perm=64).jaccard(MinHash(num_perm=128))
        with pytest.raises(ValueError):
            MinHash(seed=1).jaccard(MinHash(seed=2))

    def test_copy_is_independent(self):
        a = MinHash.from_values(["x"])
        b = a.copy()
        b.update("y")
        assert a.jaccard(b) < 1.0


class TestEstimation:
    def test_jaccard_estimate_accuracy(self):
        rng = random.Random(0)
        a = {f"v{i}" for i in range(400)}
        b = set(rng.sample(sorted(a), 200)) | {f"w{i}" for i in range(200)}
        ma = MinHash.from_values(a, num_perm=256)
        mb = MinHash.from_values(b, num_perm=256)
        assert ma.jaccard(mb) == pytest.approx(exact_jaccard(a, b), abs=0.08)

    def test_containment_estimate_accuracy(self):
        rng = random.Random(1)
        a = {f"v{i}" for i in range(300)}
        b = set(rng.sample(sorted(a), 210)) | {f"w{i}" for i in range(100)}
        ma = MinHash.from_values(a, num_perm=256)
        mb = MinHash.from_values(b, num_perm=256)
        est = ma.containment(mb, len(a), len(b))
        assert est == pytest.approx(exact_containment(a, b), abs=0.12)

    def test_containment_empty_query(self):
        a = MinHash.from_values([])
        b = MinHash.from_values(["x"])
        assert a.containment(b, 0, 1) == 0.0

    def test_containment_clipped_to_unit(self):
        a = MinHash.from_values(["x", "y"])
        b = MinHash.from_values(["x", "y"])
        assert 0.0 <= a.containment(b, 2, 2) <= 1.0


class TestMerge:
    def test_merge_is_union(self):
        a_vals = {f"a{i}" for i in range(100)}
        b_vals = {f"b{i}" for i in range(100)}
        union = MinHash.from_values(a_vals | b_vals)
        merged = MinHash.from_values(a_vals).merge(MinHash.from_values(b_vals))
        assert merged.jaccard(union) == 1.0

    def test_merge_commutes(self):
        a = MinHash.from_values(["x", "y"])
        b = MinHash.from_values(["z"])
        assert a.merge(b).jaccard(b.merge(a)) == 1.0


class TestExactReferences:
    def test_exact_jaccard_empty_sets(self):
        assert exact_jaccard(set(), set()) == 1.0
        assert exact_jaccard({"a"}, set()) == 0.0

    def test_exact_containment(self):
        assert exact_containment({"a", "b"}, {"a"}) == 0.5
        assert exact_containment(set(), {"a"}) == 0.0


@given(
    st.sets(st.text(min_size=1, max_size=6), min_size=1, max_size=60),
    st.sets(st.text(min_size=1, max_size=6), min_size=1, max_size=60),
)
@settings(max_examples=25, deadline=None)
def test_jaccard_estimate_within_bound(a, b):
    """Property: with 128 perms, |estimate - truth| stays within 4 standard
    errors (~0.35) — a loose but meaningful statistical bound."""
    ma = MinHash.from_values(a)
    mb = MinHash.from_values(b)
    assert abs(ma.jaccard(mb) - exact_jaccard(a, b)) <= 0.36


@given(st.sets(st.text(min_size=1, max_size=6), min_size=1, max_size=40))
@settings(max_examples=25, deadline=None)
def test_self_jaccard_is_one(values):
    """Property: a signature always matches itself perfectly."""
    mh = MinHash.from_values(values)
    assert mh.jaccard(mh) == 1.0


@given(
    st.sets(st.text(min_size=1, max_size=6), min_size=1, max_size=40),
    st.sets(st.text(min_size=1, max_size=6), min_size=0, max_size=10),
)
@settings(max_examples=25, deadline=None)
def test_superset_signature_dominates(base, extra):
    """Property: each signature slot of a union is <= the subset's slot."""
    sub = MinHash.from_values(base)
    sup = MinHash.from_values(base | extra)
    assert (sup.hashvalues <= sub.hashvalues).all()
