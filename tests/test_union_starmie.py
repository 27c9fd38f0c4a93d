"""Tests for Starmie-style contextual-embedding union search."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.datalake.generate import make_union_corpus
from repro.datalake.table import ColumnRef
from repro.search.aggregate import table_unionability
from repro.search.results import TableResult
from repro.search.union_starmie import StarmieConfig, StarmieUnionSearch
from repro.sketch.hnsw import HNSW
from repro.understanding.contextual import ContextualColumnEncoder


@pytest.fixture(scope="module")
def encoder(union_space):
    return ContextualColumnEncoder(union_space, context_weight=0.3)


@pytest.fixture(scope="module")
def starmie(union_corpus, encoder):
    return StarmieUnionSearch(union_corpus.lake, encoder).build()


def _column_vectors(lake, encoder):
    """The vectors Starmie indexes: every non-numeric, non-zero column."""
    vectors = {}
    for table in lake:
        vecs = encoder.encode_table(table)
        for i, col in enumerate(table.columns):
            if not col.is_numeric and np.linalg.norm(vecs[i]) > 0:
                vectors[ColumnRef(table.name, i)] = vecs[i]
    return vectors


def _linear(vectors, dim):
    """Exact scan: every column ranked by ``np.dot``."""
    refs = sorted(vectors, key=str)
    matrix = np.array([vectors[ref] for ref in refs])

    def nearest(v):
        return [refs[j] for j in np.argsort(-(matrix @ v), kind="stable")]

    return nearest


def _lsh(vectors, dim, planes=16, tables=8, seed=0):
    """Cosine LSH: columns sharing a sign pattern under random hyperplanes
    in any of ``tables`` tables, ranked by ``np.dot``."""
    rng = np.random.default_rng(seed)
    hyperplanes = [rng.normal(size=(planes, dim)) for _ in range(tables)]
    buckets = [{} for _ in range(tables)]
    for ref, v in vectors.items():
        for h, b in zip(hyperplanes, buckets):
            b.setdefault(tuple(h @ v > 0), []).append(ref)

    def nearest(v):
        found = {
            ref
            for h, b in zip(hyperplanes, buckets)
            for ref in b.get(tuple(h @ v > 0), ())
        }
        return sorted(
            found, key=lambda ref: (-float(np.dot(v, vectors[ref])), str(ref))
        )

    return nearest


def _hnsw(vectors, dim, m=8, ef=48, k=20):
    """Standalone HNSW graph over the column vectors."""
    graph = HNSW(dim=dim, m=m, metric="cosine", seed=0)
    for ref in sorted(vectors, key=str):
        graph.add(ref, vectors[ref])

    def nearest(v):
        return [ref for ref, _ in graph.search(v, k=k, ef=ef)]

    return nearest


_NEAREST = {"linear": _linear, "lsh": _lsh, "hnsw": _hnsw}


class TestLifecycle:
    def test_search_before_build_rejected(self, union_corpus, encoder):
        s = StarmieUnionSearch(union_corpus.lake, encoder)
        with pytest.raises(RuntimeError):
            s.search(next(iter(union_corpus.lake)))

    def test_stats_report_the_vector_matrix(self, starmie, encoder):
        stats = starmie.stats()
        dim = encoder.space.dim
        assert stats["dim"] == dim
        assert stats["columns"] > 0
        assert stats["matrix_bytes"] == stats["columns"] * dim * 8

    def test_rebuild_keeps_one_row_per_column(self, union_corpus, encoder):
        """A second build replaces the table -> rows map instead of adding
        to it, so a query by reference reads each column once."""
        s = StarmieUnionSearch(union_corpus.lake, encoder).build()
        query = union_corpus.lake.table(union_corpus.groups[0][0])
        rows = {name: list(r) for name, r in s._table_rows.items()}
        want = s.search(query, k=5, by_ref=True)
        s.build()
        assert s._table_rows == rows
        assert s.search(query, k=5, by_ref=True) == want


class TestRetrieval:
    def test_group_members_rank_top(self, union_corpus, starmie):
        for g in range(2):
            qname = union_corpus.groups[g][0]
            res = starmie.search(union_corpus.lake.table(qname), k=3)
            got = {r.table for r in res}
            assert len(got & union_corpus.truth[qname]) >= 2

    def test_no_self_match(self, union_corpus, starmie):
        qname = union_corpus.groups[0][0]
        res = starmie.search(union_corpus.lake.table(qname), k=10)
        assert all(r.table != qname for r in res)

    def test_scores_sorted_and_bounded(self, union_corpus, starmie):
        qname = union_corpus.groups[1][0]
        res = starmie.search(union_corpus.lake.table(qname), k=8)
        scores = [r.score for r in res]
        assert scores == sorted(scores, reverse=True)
        assert all(0 <= s <= 1.0 + 1e-9 for s in scores)

    @pytest.mark.parametrize("index", ["linear", "lsh", "hnsw"])
    def test_all_index_kinds_agree_on_top1(self, union_corpus, encoder, index):
        """The exact scan and the ANN indexes it replaced, each built over
        the same column vectors, find a unionable table as some query
        column's nearest non-self column."""
        vectors = _column_vectors(union_corpus.lake, encoder)
        nearest = _NEAREST[index](vectors, encoder.space.dim)
        qname = union_corpus.groups[0][0]
        qvecs = [v for ref, v in vectors.items() if ref.table == qname]
        top1 = set()
        for v in qvecs:
            hits = [ref for ref in nearest(v) if ref.table != qname]
            if hits:
                top1.add(hits[0].table)
        assert top1 & union_corpus.truth[qname], index

    def test_alignment_indices_valid(self, union_corpus, starmie):
        qname = union_corpus.groups[0][0]
        res = starmie.search(union_corpus.lake.table(qname), k=1)
        cand = union_corpus.lake.table(res[0].table)
        for qi, cj, s in res[0].alignment:
            assert 0 <= cj < cand.num_cols
            assert s > 0


def _brute_force(lake, encoder, query, k, config=StarmieConfig()):
    """Reference Starmie: rank every indexed column by ``np.dot`` with a
    ``(-score, str(ref))`` tie-break per query column, keep the top
    ``candidates_per_column``, then align each candidate table."""
    vectors = _column_vectors(lake, encoder)
    qvecs = encoder.encode_table(query)
    qcols = [
        qvecs[i]
        for i, col in enumerate(query.columns)
        if not col.is_numeric and np.linalg.norm(qvecs[i]) > 0
    ]
    table_cols = {}
    for v in qcols:
        scored = sorted(
            ((ref, float(np.dot(v, u))) for ref, u in vectors.items()),
            key=lambda kv: (-kv[1], str(kv[0])),
        )
        for ref, _ in scored[: config.candidates_per_column]:
            if ref.table != query.name:
                table_cols.setdefault(ref.table, set()).add(ref.index)
    results = []
    for name, col_ids in table_cols.items():
        cols = sorted(col_ids)
        scores = np.array(
            [
                [max(0.0, float(np.dot(v, vectors[ColumnRef(name, c)])))
                 for c in cols]
                for v in qcols
            ]
        )
        total, pairs = table_unionability(scores, method=config.alignment)
        if total > 0:
            alignment = tuple((qi, cols[cj], s) for qi, cj, s in pairs)
            results.append(TableResult(name, total, alignment))
    return sorted(results)[:k]


def _assert_same_hits(got, want):
    assert [r.table for r in got] == [r.table for r in want]
    assert [r.score for r in got] == pytest.approx(
        [r.score for r in want], rel=1e-12
    )
    for g, w in zip(got, want):
        assert [p[:2] for p in g.alignment] == [p[:2] for p in w.alignment]


@functools.lru_cache(maxsize=3)
def _system(seed):
    corpus = make_union_corpus(
        n_groups=4, tables_per_group=4, rows_per_table=30, seed=seed
    )
    config = DiscoveryConfig(
        embedding_dim=16, embedding_min_count=1, enable_annotation=False
    )
    return DiscoverySystem(corpus.lake, config).build()


class TestExactProperty:
    """The exact scan equals the brute-force reference, both called
    directly and through the ``unionable_search`` facade."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.sampled_from([1, 2, 5]),
        pick=st.integers(min_value=0, max_value=10_000),
        k=st.sampled_from([1, 3, 10]),
    )
    def test_search_equals_brute_force(self, seed, pick, k):
        system = _system(seed)
        names = system.lake.table_names()
        query = system.lake.table(names[pick % len(names)])
        want = _brute_force(system.lake, system.encoder, query, k)
        direct = StarmieUnionSearch(system.lake, system.encoder).build()
        _assert_same_hits(direct.search(query, k=k), want)
        _assert_same_hits(
            system.unionable_search(query.name, k=k, method="starmie"), want
        )


class TestContextEffect:
    def test_contextual_no_worse_than_plain(self, union_corpus, union_space):
        """E6 ablation shape: context-aware encoding should not lose to the
        plain value-bag encoding on context-dependent corpora."""
        from repro.bench.metrics import precision_at_k

        plain = StarmieUnionSearch(
            union_corpus.lake,
            ContextualColumnEncoder(union_space, context_weight=0.0),
        ).build()
        ctx = StarmieUnionSearch(
            union_corpus.lake,
            ContextualColumnEncoder(union_space, context_weight=0.4),
        ).build()

        def quality(engine):
            total = 0.0
            for g, members in union_corpus.groups.items():
                q = members[0]
                res = engine.search(union_corpus.lake.table(q), k=3)
                total += precision_at_k(
                    [r.table for r in res], union_corpus.truth[q], 3
                )
            return total

        assert quality(ctx) >= quality(plain) - 0.34
