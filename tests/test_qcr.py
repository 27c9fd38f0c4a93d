"""Unit + property tests for the QCR correlation sketch."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.qcr import CorrelationSketch, pearson


class TestPearson:
    def test_perfect_positive(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, xs) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_undefined_cases(self):
        assert pearson([1.0], [1.0]) == 0.0
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
        assert pearson([1.0, 2.0], [1.0]) == 0.0


class TestSketch:
    def test_size_bounded(self):
        sk = CorrelationSketch(n=16)
        for i in range(200):
            sk.update(f"k{i}", float(i))
        assert len(sk) == 16

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            CorrelationSketch(n=2)

    def test_duplicate_keys_keep_first(self):
        sk = CorrelationSketch(n=16)
        sk.update("k", 1.0)
        sk.update("k", 99.0)
        assert len(sk) == 1

    def test_non_finite_skipped(self):
        sk = CorrelationSketch(n=16)
        sk.update("a", math.nan)
        sk.update("b", math.inf)
        assert len(sk) == 0

    def test_same_keys_sampled(self):
        """The keyed-minima property: two sketches over the same key universe
        sample the same keys, so their samples align."""
        a = CorrelationSketch(n=32)
        b = CorrelationSketch(n=32)
        for i in range(500):
            a.update(f"k{i}", float(i))
            b.update(f"k{i}", float(i) * 2)
        xs, ys = a.aligned_values(b)
        assert len(xs) == 32

    def test_correlation_estimate(self):
        rng = random.Random(0)
        a = CorrelationSketch(n=128)
        b = CorrelationSketch(n=128)
        for i in range(2000):
            y = rng.gauss(0, 1)
            x = 0.8 * y + 0.6 * rng.gauss(0, 1)
            a.update(f"k{i}", y)
            b.update(f"k{i}", x)
        assert a.correlation(b) == pytest.approx(0.8, abs=0.15)

    def test_uncorrelated_near_zero(self):
        rng = random.Random(1)
        a = CorrelationSketch(n=128)
        b = CorrelationSketch(n=128)
        for i in range(2000):
            a.update(f"k{i}", rng.gauss(0, 1))
            b.update(f"k{i}", rng.gauss(0, 1))
        assert abs(a.correlation(b)) < 0.3

    def test_containment_full_overlap(self):
        a = CorrelationSketch(n=64)
        b = CorrelationSketch(n=64)
        for i in range(300):
            a.update(f"k{i}", 1.0)
            b.update(f"k{i}", 2.0)
        assert a.containment(b) == pytest.approx(1.0)

    def test_containment_disjoint(self):
        a = CorrelationSketch(n=64)
        b = CorrelationSketch(n=64)
        for i in range(300):
            a.update(f"a{i}", 1.0)
            b.update(f"b{i}", 1.0)
        assert a.containment(b) == 0.0

    def test_containment_empty(self):
        assert CorrelationSketch().containment(CorrelationSketch()) == 0.0


@given(
    st.lists(
        st.tuples(
            st.text(min_size=1, max_size=6),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=4,
        max_size=100,
        unique_by=lambda kv: kv[0],
    )
)
@settings(max_examples=30, deadline=None)
def test_perfectly_correlated_streams(pairs):
    """Property: sketches of (key, v) and (key, 2v + 1) estimate r = 1
    whenever the sampled values have variance."""
    a = CorrelationSketch.from_pairs(pairs, n=64)
    b = CorrelationSketch.from_pairs([(k, 2 * v + 1) for k, v in pairs], n=64)
    xs, ys = a.aligned_values(b)
    n = len(xs)
    if n >= 3:
        mx = sum(xs) / n
        variance = sum((x - mx) ** 2 for x in xs)
        # Skip subnormal-variance inputs where float underflow makes the
        # estimator legitimately return 0.
        if variance > 1e-12:
            assert a.correlation(b) == pytest.approx(1.0, abs=1e-6)


_base_keys = st.sampled_from(["alpha", "beta", "gamma", "delta", "k1", "k2"])
_key_variants = st.one_of(
    st.text(min_size=1, max_size=4),
    st.builds(
        lambda key, upper, pad: pad + (key.upper() if upper else key) + pad,
        _base_keys,
        st.booleans(),
        st.sampled_from(["", " ", "\t", "  "]),
    ),
)
_stream_values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@given(
    st.lists(st.tuples(_key_variants, _stream_values), max_size=80),
    st.integers(4, 12),
)
@settings(max_examples=200, deadline=None)
def test_from_pairs_equals_streamed_updates(pairs, n):
    """Property: the batch sampling rule and one-at-a-time ``update()``
    keep the same sample — the n smallest distinct normalized-key hashes,
    each with its first finite value — for duplicate keys, keys differing
    only in case or surrounding whitespace, non-finite values, and streams
    longer than n."""
    batch = CorrelationSketch.from_pairs(pairs, n=n)
    streamed = CorrelationSketch(n=n)
    for key, value in pairs:
        streamed.update(str(key), float(value))
    assert len(batch) == len(streamed) <= n
    (bh, bv), (sh, sv) = batch.samples(), streamed.samples()
    assert bh.tolist() == sh.tolist()
    assert bv.tolist() == sv.tolist()
    assert bh.tolist() == sorted(bh.tolist())


def test_first_occurrence_wins_across_case_and_whitespace():
    pairs = [("Key", 1.0), (" key ", 2.0), ("KEY", 3.0), ("other", math.nan)]
    batch = CorrelationSketch.from_pairs(pairs, n=8)
    streamed = CorrelationSketch(n=8)
    for key, value in pairs:
        streamed.update(key, value)
    for sketch in (batch, streamed):
        hashes, values = sketch.samples()
        assert len(sketch) == 1
        assert values.tolist() == [1.0]
