"""Unit + property tests for the HNSW graph index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_
from repro.obs import METRICS
from repro.sketch.hnsw import HNSW, brute_force_knn


def _random_vectors(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    return {i: rng.normal(size=dim) for i in range(n)}


class TestConstruction:
    def test_empty_search(self):
        assert HNSW(dim=4).search(np.zeros(4)) == []

    def test_single_element(self):
        h = HNSW(dim=4)
        h.add("only", np.ones(4))
        assert h.search(np.ones(4), k=3) == [("only", pytest.approx(0.0))]

    def test_duplicate_key_rejected(self):
        h = HNSW(dim=2)
        h.add("k", np.ones(2))
        with pytest.raises(IndexError_):
            h.add("k", np.zeros(2))

    def test_wrong_dim_rejected(self):
        h = HNSW(dim=3)
        with pytest.raises(IndexError_):
            h.add("k", np.ones(4))

    def test_bad_metric_rejected(self):
        with pytest.raises(IndexError_):
            HNSW(dim=2, metric="hamming")

    def test_len(self):
        h = HNSW(dim=2)
        for i in range(5):
            h.add(i, np.array([i, 0.0]))
        assert len(h) == 5

    def test_degree_bound_enforced(self):
        h = HNSW(dim=4, m=4, seed=2)
        vecs = _random_vectors(200, 4, seed=2)
        for k, v in vecs.items():
            h.add(k, v)
        for node, layers in enumerate(h._links):
            for level, links in enumerate(layers):
                limit = h.m0 if level == 0 else h.m
                assert len(links) <= limit

    def test_links_are_bidirectional(self):
        h = HNSW(dim=4, m=4, seed=3)
        for k, v in _random_vectors(100, 4, seed=3).items():
            h.add(k, v)
        for node, layers in enumerate(h._links):
            for level, links in enumerate(layers):
                for nb in links:
                    assert node in h._links[nb][level]


class TestSearchQuality:
    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_recall_at_10(self, metric):
        vecs = _random_vectors(400, 16, seed=1)
        h = HNSW(dim=16, m=8, ef_construction=80, metric=metric, seed=1)
        for k, v in vecs.items():
            h.add(k, v)
        recalls = []
        for q in range(20):
            approx = {k for k, _ in h.search(vecs[q], k=10, ef=80)}
            exact = {k for k, _ in brute_force_knn(vecs, vecs[q], k=10, metric=metric)}
            recalls.append(len(approx & exact) / 10)
        assert np.mean(recalls) >= 0.85

    def test_higher_ef_not_worse(self):
        vecs = _random_vectors(300, 8, seed=4)
        h = HNSW(dim=8, m=6, seed=4)
        for k, v in vecs.items():
            h.add(k, v)
        rec = []
        for ef in (8, 128):
            hits = 0
            for q in range(15):
                approx = {k for k, _ in h.search(vecs[q], k=5, ef=ef)}
                exact = {k for k, _ in brute_force_knn(vecs, vecs[q], k=5)}
                hits += len(approx & exact)
            rec.append(hits)
        assert rec[1] >= rec[0]

    def test_distances_ascending(self):
        vecs = _random_vectors(100, 8, seed=5)
        h = HNSW(dim=8, seed=5)
        for k, v in vecs.items():
            h.add(k, v)
        res = h.search(vecs[0], k=10)
        ds = [d for _, d in res]
        assert ds == sorted(ds)

    def test_self_is_nearest(self):
        vecs = _random_vectors(150, 8, seed=6)
        h = HNSW(dim=8, seed=6)
        for k, v in vecs.items():
            h.add(k, v)
        for q in (0, 50, 100):
            assert h.search(vecs[q], k=1, ef=64)[0][0] == q


class TestMetricCounters:
    def test_build_and_search_record_counters(self):
        before = {
            name: METRICS.counter(f"index.hnsw.{name}")
            for name in (
                "nodes_added",
                "insert_distance_computations",
                "queries",
                "distance_computations",
            )
        }
        h = HNSW(dim=8, seed=7)
        for k, v in _random_vectors(50, 8, seed=7).items():
            h.add(k, v)
        h.search(np.ones(8), k=5)

        def delta(name):
            return METRICS.counter(f"index.hnsw.{name}") - before[name]

        assert delta("nodes_added") == 50
        assert delta("insert_distance_computations") > 0
        assert delta("queries") == 1
        assert delta("distance_computations") > 0


class TestBruteForce:
    def test_exact_ordering(self):
        vecs = {i: np.array([float(i), 0.0]) for i in range(10)}
        res = brute_force_knn(vecs, np.array([3.2, 0.0]), k=3, metric="l2")
        assert [k for k, _ in res] == [3, 4, 2]

    def test_k_larger_than_population(self):
        vecs = {0: np.ones(2)}
        assert len(brute_force_knn(vecs, np.ones(2), k=10)) == 1


@given(st.integers(2, 40), st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_search_returns_k_unique_keys(n, seed):
    """Property: search returns min(k, n) distinct keys."""
    vecs = _random_vectors(n, 6, seed=seed)
    h = HNSW(dim=6, seed=seed)
    for k, v in vecs.items():
        h.add(k, v)
    res = h.search(vecs[0], k=10, ef=64)
    keys = [k for k, _ in res]
    assert len(keys) == len(set(keys)) == min(10, n)
