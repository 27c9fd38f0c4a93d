"""Tests for stable hashing and the universal hash family."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sketch.hashing import (
    MERSENNE_31,
    UniversalHashFamily,
    hash_tokens,
    stable_hash64,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("abc") == stable_hash64("abc")

    def test_seed_changes_hash(self):
        assert stable_hash64("abc", 0) != stable_hash64("abc", 1)

    def test_distinct_tokens_differ(self):
        assert stable_hash64("abc") != stable_hash64("abd")

    def test_hash_tokens_vectorized(self):
        hs = hash_tokens(["a", "b", "a"])
        assert hs.dtype == np.uint64
        assert hs[0] == hs[2] != hs[1]

    def test_golden_values(self):
        """Pinned digests: MinHash signatures, MATE super keys, QCR and KMV
        samples and every snapshot depend on these exact values."""
        assert stable_hash64("abc") == 6455300059550759896
        assert stable_hash64("abc", 1) == 4882607893960367073
        assert stable_hash64("", 29) == 16722964009528494090
        assert stable_hash64("naïve café", 7) == 862776001498878009
        assert hash_tokens(["a", "b", "ünïcode", "", "a"], seed=3).tolist() == [
            8305383444425282872,
            8967852628973505840,
            5160710660986408896,
            5076052440324505997,
            8305383444425282872,
        ]


class TestUniversalFamily:
    def test_output_range(self):
        fam = UniversalHashFamily(8, seed=1)
        out = fam.apply(hash_tokens([f"t{i}" for i in range(100)]))
        assert out.shape == (8, 100)
        assert out.max() < MERSENNE_31

    def test_functions_differ(self):
        fam = UniversalHashFamily(16, seed=1)
        out = fam.apply(hash_tokens(["x"]))
        assert len(set(out[:, 0].tolist())) > 8

    def test_apply_one_matches_apply(self):
        fam = UniversalHashFamily(4, seed=2)
        v = hash_tokens(["hello"])
        assert np.array_equal(fam.apply_one(int(v[0])), fam.apply(v)[:, 0])

    def test_seeded_reproducibility(self):
        a = UniversalHashFamily(4, seed=5)
        b = UniversalHashFamily(4, seed=5)
        assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)

    def test_extreme_coefficients(self):
        """a = b = p - 1 on v = p - 1: the largest a*v + b the fold sees."""
        fam = UniversalHashFamily(2, seed=0)
        fam.a[:] = MERSENNE_31 - 1
        fam.b[:] = MERSENNE_31 - 1
        values = [MERSENNE_31 - 1, MERSENNE_31 - 2, 2**64 - 2]
        assert fam.apply(np.array(values, dtype=np.uint64)).tolist() == (
            _reference_apply(fam, values)
        )


def _reference_apply(fam, values):
    """(a*v + b) mod p in Python integers: the definition of the family."""
    p = MERSENNE_31
    return [
        [(int(a) * (v % p) + int(b)) % p for v in values]
        for a, b in zip(fam.a, fam.b)
    ]


@given(st.text(max_size=30), st.integers(0, 2**31 - 1))
def test_stable_hash_is_pure(token, seed):
    """Property: hashing is a pure function of (token, seed)."""
    assert stable_hash64(token, seed) == stable_hash64(token, seed)


@given(st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=30,
                unique=True))
def test_family_collision_rate_low(tokens):
    """Property: pairwise-independent family rarely collides on small sets."""
    fam = UniversalHashFamily(1, seed=0)
    out = fam.apply(hash_tokens(tokens))[0]
    # With p ~ 2^31 and <= 30 inputs, collisions should be essentially absent.
    assert len(set(out.tolist())) >= len(tokens) - 1


@given(st.lists(st.text(max_size=20), max_size=40), st.integers(0, 2**64 - 1))
def test_hash_tokens_equal_per_token_hashes(tokens, seed):
    """Property: the batch kernel is ``stable_hash64`` token by token."""
    assert hash_tokens(tokens, seed).tolist() == [
        stable_hash64(t, seed) for t in tokens
    ]


@given(
    hnp.arrays(np.uint64, st.integers(0, 30)),
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
)
def test_apply_equals_modular_reference(values, k, seed):
    """Property: the Mersenne fold equals (a*v + b) mod p exactly, on any
    uint64 input and on 0, p - 1, p, p + 1 and 2^64 - 1."""
    edges = [0, MERSENNE_31 - 1, MERSENNE_31, MERSENNE_31 + 1, 2**64 - 1]
    values = np.concatenate([values, np.array(edges, dtype=np.uint64)])
    fam = UniversalHashFamily(k, seed)
    out = fam.apply(values)
    assert out.shape == (k, len(values)) and out.dtype == np.uint64
    assert out.tolist() == _reference_apply(fam, values.tolist())
