"""Tests for repro.obs.metrics: counters, gauges, histogram bucketing."""

import json
import math
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry


class TestCounters:
    def test_inc_defaults_to_one_and_accumulates(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        assert m.counter("a") == 5

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().counter("nope") == 0


class TestGauges:
    def test_set_overwrites(self):
        m = MetricsRegistry()
        m.set_gauge("g", 1.5)
        m.set_gauge("g", 2.5)
        assert m.gauge("g") == 2.5
        assert m.gauge("missing") is None


class TestHistogram:
    def test_boundary_value_lands_in_its_bucket(self):
        # `le` semantics: a value exactly on a bound belongs to that bucket.
        h = Histogram(buckets=(1.0, 5.0, 10.0))
        h.observe(1.0)
        h.observe(5.0)
        h.observe(10.0)
        assert h.counts == [1, 1, 1]
        assert h.overflow == 0

    def test_below_first_and_above_last(self):
        h = Histogram(buckets=(1.0, 5.0))
        h.observe(-3.0)
        h.observe(0.0)
        h.observe(5.0001)
        h.observe(1e9)
        assert h.counts == [2, 0]
        assert h.overflow == 2

    def test_count_sum_min_max(self):
        h = Histogram(buckets=(10.0,))
        for v in (2.0, 4.0, 6.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 12.0
        assert h.min == 2.0
        assert h.max == 6.0

    def test_unsorted_bucket_spec_is_sorted(self):
        h = Histogram(buckets=(10.0, 1.0, 5.0))
        assert h.buckets == (1.0, 5.0, 10.0)

    def test_to_dict_buckets_labelled(self):
        h = Histogram(buckets=(1.0, 5.0))
        h.observe(0.5)
        h.observe(99.0)
        d = h.to_dict()
        assert d["buckets"] == {"<=1": 1, "<=5": 0, "+inf": 1}

    def test_empty_histogram_min_max_none(self):
        d = Histogram().to_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None

    def test_registry_observe_creates_default_buckets(self):
        m = MetricsRegistry()
        m.observe("lat", 3.0)
        assert m.histogram("lat").buckets == tuple(sorted(DEFAULT_BUCKETS))

    def test_registry_custom_buckets_only_on_first_observe(self):
        m = MetricsRegistry()
        m.observe("lat", 3.0, buckets=(1.0, 10.0))
        m.observe("lat", 4.0, buckets=(99.0,))  # ignored: already created
        assert m.histogram("lat").buckets == (1.0, 10.0)
        assert m.histogram("lat").count == 2


def _loop_bucket(buckets: tuple[float, ...], value: float) -> int | None:
    """The bucket the first-``value <= bound`` scan picks (None: overflow)."""
    for i, bound in enumerate(buckets):
        if value <= bound:
            return i
    return None


def _landed(h: Histogram, value: float) -> int | None:
    before, overflow = list(h.counts), h.overflow
    h.observe(value)
    if h.overflow != overflow:
        return None
    (i,) = [i for i, (a, b) in enumerate(zip(before, h.counts)) if a != b]
    return i


class TestBucketSearch:
    """``observe`` finds the bucket by bisection; it must pick the bucket
    the linear first-``value <= bound`` scan picks, edges included."""

    def test_value_equal_to_a_bound(self):
        h = Histogram(buckets=DEFAULT_BUCKETS)
        for i, bound in enumerate(h.buckets):
            assert _landed(h, bound) == i

    def test_value_above_the_last_bound_overflows(self):
        h = Histogram(buckets=(1.0, 5.0))
        assert _landed(h, 5.0000001) is None
        assert _landed(h, math.inf) is None
        assert h.to_dict()["buckets"]["+inf"] == 2

    def test_nan_overflows(self):
        # A bare bisect_left puts NaN in the first bucket.
        h = Histogram(buckets=(1.0, 5.0))
        assert _landed(h, math.nan) is None
        assert h.counts == [0, 0] and h.overflow == 1

    def test_minus_infinity_and_repeated_bounds(self):
        h = Histogram(buckets=(1.0, 1.0, 5.0))
        assert _landed(h, -math.inf) == 0
        assert _landed(h, 1.0) == 0
        h = Histogram(buckets=(1.0, math.inf))
        assert _landed(h, math.inf) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=8),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    def test_matches_the_linear_scan(self, bounds, value):
        h = Histogram(buckets=tuple(bounds))
        assert _landed(h, value) == _loop_bucket(h.buckets, value)


class TestSnapshot:
    def test_snapshot_is_deterministic(self):
        # Same metrics recorded in different orders -> identical JSON.
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x"), a.inc("y", 2), a.set_gauge("g", 1), a.observe("h", 3.0)
        b.observe("h", 3.0), b.set_gauge("g", 1), b.inc("y", 2), b.inc("x")
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())

    def test_snapshot_keys_sorted(self):
        m = MetricsRegistry()
        m.inc("zz")
        m.inc("aa")
        assert list(m.snapshot()["counters"]) == ["aa", "zz"]

    def test_snapshot_round_trips_through_json(self):
        m = MetricsRegistry()
        m.inc("c", 2)
        m.set_gauge("g", 0.5)
        m.observe("h", 1.0)
        again = json.loads(json.dumps(m.snapshot()))
        assert again["counters"]["c"] == 2
        assert again["histograms"]["h"]["count"] == 1

    def test_names_lists_every_kind(self):
        m = MetricsRegistry()
        m.inc("c")
        m.set_gauge("g", 1)
        m.observe("h", 1.0)
        assert m.names() == ["c", "g", "h"]

    def test_reset(self):
        m = MetricsRegistry()
        m.inc("c")
        m.set_gauge("g", 1)
        m.observe("h", 1.0)
        m.reset()
        assert m.names() == []


class TestRender:
    def test_render_mentions_every_metric(self):
        m = MetricsRegistry()
        m.inc("my.counter", 3)
        m.set_gauge("my.gauge", 7)
        m.observe("my.hist", 2.0)
        text = m.render()
        assert "my.counter = 3" in text
        assert "my.gauge = 7" in text
        assert "my.hist: count=1" in text


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self):
        m = MetricsRegistry()

        def worker():
            for _ in range(1000):
                m.inc("n")
                m.observe("h", 1.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n") == 8000
        assert m.histogram("h").count == 8000
