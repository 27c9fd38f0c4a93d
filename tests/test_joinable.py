"""Tests for joinable search over a lake: JOSIE, LSH Ensemble and the
Jaccard LSH baseline, each through its engine."""

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.engine import QueryRequest
from repro.core.errors import LakeError
from repro.core.system import STAGES, DiscoverySystem


def _config() -> DiscoveryConfig:
    return DiscoveryConfig(enable_embeddings=False, num_partitions=4)


@pytest.fixture(scope="module")
def system(join_corpus):
    return DiscoverySystem(join_corpus.lake, _config()).build(
        skip=set(STAGES) - {"join_index"}
    )


def _josie(system, column, k=10, exclude_table=None):
    return system.engines["josie"].raw.exact_topk(
        column, k, exclude_table=exclude_table
    )


def _containment(system, column, threshold, exclude_table=None):
    hits, _ = system.engines["lshensemble"].query(
        QueryRequest(
            column=column, k=10**6, threshold=threshold, exclude_table=exclude_table
        )
    )
    return hits


class TestLifecycle:
    def test_query_before_build_rejected(self, join_corpus):
        system = DiscoverySystem(join_corpus.lake, _config())
        q = join_corpus.lake.column(join_corpus.queries[0].column)
        for method in ("exact", "containment"):
            with pytest.raises(LakeError):
                system.joinable_search(q, method=method)
        assert not system.engines["josie"].is_built()


class TestExactTopk:
    def test_recovers_planted_candidates(self, join_corpus, system):
        q = join_corpus.queries[0]
        qcol = join_corpus.lake.column(q.column)
        results = _josie(system, qcol, k=5, exclude_table=q.column.table)
        # The top hit must be the containment-1.0 planted candidate.
        assert results[0].score == pytest.approx(1.0)
        truth_best = max(q.containments.items(), key=lambda kv: kv[1])
        assert results[0].ref == truth_best[0]

    def test_scores_monotone(self, join_corpus, system):
        q = join_corpus.queries[1]
        qcol = join_corpus.lake.column(q.column)
        res = _josie(system, qcol, k=10)
        scores = [r.score for r in res]
        assert scores == sorted(scores, reverse=True)

    def test_exclude_table_respected(self, join_corpus, system):
        q = join_corpus.queries[0]
        qcol = join_corpus.lake.column(q.column)
        res = _josie(system, qcol, k=10, exclude_table=q.column.table)
        assert all(r.ref.table != q.column.table for r in res)


class TestContainment:
    def test_high_recall_vs_truth(self, join_corpus, system):
        q = join_corpus.queries[0]
        qcol = join_corpus.lake.column(q.column)
        truth = q.relevant(0.6)
        got = {
            r.ref for r in _containment(system, qcol, 0.6, q.column.table)
        }
        recall = len(got & truth) / max(len(truth), 1)
        assert recall >= 0.8

    def test_threshold_monotone(self, join_corpus, system):
        q = join_corpus.queries[2]
        qcol = join_corpus.lake.column(q.column)
        low = _containment(system, qcol, 0.3)
        high = _containment(system, qcol, 0.9)
        assert len(high) <= len(low)

    def test_candidates_superset_of_verified(self, join_corpus, system):
        from repro.sketch.minhash import MinHash

        q = join_corpus.queries[0]
        qcol = join_corpus.lake.column(q.column)
        values = qcol.value_set()
        ensemble = system.engines["lshensemble"].raw
        keys = system.engines["josie"].raw.josie.keys
        mh = MinHash.from_values(values, num_perm=ensemble.num_perm)
        cands = {keys[i] for i in ensemble.query(mh, len(values), 0.5)}
        verified = {r.ref for r in _containment(system, qcol, 0.5)}
        assert verified <= cands


class TestJaccardBaseline:
    def test_jaccard_misses_large_supersets(self, join_corpus, system):
        """The LSH Ensemble motivation: Jaccard-threshold search misses
        candidates that *contain* the query but are much larger."""
        q = join_corpus.queries[0]
        qcol = join_corpus.lake.column(q.column)
        truth = q.relevant(0.9)
        jac, _ = system.engines["jaccard_lsh"].query(
            QueryRequest(column=qcol, k=10**6)
        )
        cont = {r.ref for r in _containment(system, qcol, 0.9)}
        assert len(cont & truth) >= len({r.ref for r in jac} & truth)
