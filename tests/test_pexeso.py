"""Tests for PEXESO fuzzy joinable search."""

import dataclasses
import functools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.datalake.generate import make_union_corpus
from repro.datalake.lake import DataLake
from repro.datalake.table import Column, Table
from repro.search.explain import ExplainReport
from repro.search.pexeso import (
    SCREEN_MARGIN,
    PexesoConfig,
    PexesoIndex,
    exact_fuzzy_join_fraction,
    reach_counts,
    reach_matrix,
)
from repro.search.results import ColumnResult
from repro.understanding.embedding import train_embeddings


@pytest.fixture(scope="module")
def pexeso(union_corpus, union_space):
    return PexesoIndex(
        union_space, PexesoConfig(tau=0.7, sigma=0.4)
    ).build(union_corpus.lake)


class TestSearch:
    def test_search_before_build_rejected(self, union_space):
        idx = PexesoIndex(union_space)
        with pytest.raises(RuntimeError):
            idx.search(Column("q", ["a"]))

    def test_finds_same_domain_columns(self, union_corpus, pexeso):
        qname = union_corpus.groups[0][0]
        qtable = union_corpus.lake.table(qname)
        res = pexeso.search(qtable.columns[0], k=8, exclude_table=qname)
        assert res
        group_tables = union_corpus.truth[qname]
        assert any(r.ref.table in group_tables for r in res)

    def test_exclude_table(self, union_corpus, pexeso):
        qname = union_corpus.groups[0][0]
        qtable = union_corpus.lake.table(qname)
        res = pexeso.search(qtable.columns[0], k=10, exclude_table=qname)
        assert all(r.ref.table != qname for r in res)

    def test_scores_meet_sigma(self, union_corpus, pexeso):
        qname = union_corpus.groups[1][0]
        qtable = union_corpus.lake.table(qname)
        for r in pexeso.search(qtable.columns[0], k=10):
            assert r.score >= pexeso.config.sigma

    def test_oov_query_returns_empty(self, union_corpus, pexeso):
        query = Column("q", ["never-seen-1", "never-seen-2"])
        assert pexeso.search(query) == []
        report = ExplainReport("pexeso")
        hits = pexeso.search(query, report=report)
        assert hits == []
        assert report.counts()["columns_indexed"] == pexeso.stats()["columns"]
        assert report.counts()["columns_blocked"] == 0

    def test_index_holds_vocabulary_ids_not_vectors(self, pexeso):
        stats = pexeso.stats()
        assert stats["ids"] > 0
        assert stats["id_bytes"] == stats["ids"] * 4
        assert not any(
            isinstance(v, np.ndarray) and v.dtype.kind == "f"
            for v in vars(pexeso).values()
        )

    def test_stats_report_the_reach_matrix(self, pexeso):
        stats = pexeso.stats()
        reach = pexeso._reach
        assert stats["reach_nnz"] == reach.nnz > 0
        assert stats["reach_bytes"] == (
            reach.data.nbytes + reach.indices.nbytes + reach.indptr.nbytes
        )

    def test_config_is_frozen(self, pexeso):
        """``tau`` is baked into the reach matrix, so it cannot change."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            pexeso.config.tau = 0.5

    def test_block_agrees_with_exact_verification(
        self, union_corpus, union_space, pexeso
    ):
        """Scores reported by search equal brute-force fractions exactly."""
        qname = union_corpus.groups[0][0]
        qtable = union_corpus.lake.table(qname)
        res = pexeso.search(qtable.columns[0], k=10, exclude_table=qname)
        assert res
        for r in res:
            cand_col = union_corpus.lake.column(r.ref)
            exact = exact_fuzzy_join_fraction(
                union_space,
                set(qtable.columns[0].value_set()),
                set(cand_col.value_set()),
                tau=pexeso.config.tau,
            )
            assert r.score == exact

    def test_exclude_every_candidate_returns_empty(self, union_space):
        lake = DataLake(
            [Table.from_dict("only", {"a": list(union_space.vocab[:20])})]
        )
        idx = PexesoIndex(union_space, PexesoConfig(tau=0.7, sigma=0.4))
        idx.build(lake)
        query = lake.table("only").columns[0]
        assert idx.search(query, k=5)  # the column matches itself
        assert idx.search(query, k=5, exclude_table="only") == []
        report = ExplainReport("pexeso")
        hits = idx.search(query, k=5, exclude_table="only", report=report)
        assert hits == []
        assert report.counts()["columns_blocked"] == 0

    def test_lake_without_embeddable_text_returns_empty(
        self, union_corpus, union_space
    ):
        lake = DataLake(
            [
                Table.from_dict("nums", {"n": ["1", "2", "3"]}),
                Table.from_dict("oov", {"s": ["never-seen-1", "never-seen-2"]}),
            ]
        )
        idx = PexesoIndex(union_space).build(lake)
        assert idx.stats()["columns"] == 0
        query = union_corpus.lake.table(union_corpus.groups[0][0]).columns[0]
        assert idx.search(query, k=5) == []
        report = ExplainReport("pexeso")
        hits = idx.search(query, k=5, report=report)
        assert hits == []
        assert report.counts()["columns_indexed"] == 0


def _brute_force_topk(lake, space, config, query_ref, k):
    """Exact top-k from ``exact_fuzzy_join_fraction`` over every other
    table's text columns, with PEXESO's sigma filter and result order."""
    query = lake.column(query_ref).value_set()
    return _brute_force_values(lake, space, config, query, k, query_ref.table)


def _brute_force_values(lake, space, config, query, k, exclude_table=None):
    """:func:`_brute_force_topk` for a set of query values."""
    out = []
    for ref, col in lake.iter_text_columns():
        if ref.table == exclude_table:
            continue
        frac = exact_fuzzy_join_fraction(
            space,
            query,
            col.value_set(),
            config.tau,
            cap=config.max_values_per_column,
        )
        if frac >= config.sigma:
            out.append(ColumnResult(ref, frac))
    return sorted(out)[:k]


@functools.lru_cache(maxsize=3)
def _small_lake(seed):
    corpus = make_union_corpus(
        n_groups=3, tables_per_group=3, rows_per_table=25, seed=seed
    )
    return corpus.lake, train_embeddings(corpus.lake, dim=16, seed=seed)


class TestExactProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.sampled_from([2, 5, 8]),
        pick=st.integers(min_value=0, max_value=10_000),
        tau=st.sampled_from([0.6, 0.7, 0.8, 0.9]),
        sigma=st.sampled_from([0.2, 0.4, 0.6]),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_topk_equals_brute_force(self, seed, pick, tau, sigma, k):
        lake, space = _small_lake(seed)
        config = PexesoConfig(tau=tau, sigma=sigma)
        index = PexesoIndex(space, config).build(lake)
        refs = [ref for ref, _ in lake.iter_text_columns()]
        ref = refs[pick % len(refs)]
        got = index.search(lake.column(ref), k=k, exclude_table=ref.table)
        assert got == _brute_force_topk(lake, space, config, ref, k)


class TestReachMatrix:
    """The build-time reach matrix answers what the query-time product of
    the query's vectors with the whole vocabulary answered."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.sampled_from([2, 5, 8]),
        tau=st.sampled_from([0.6, 0.7, 0.8, 0.9]),
    )
    def test_slice_counts_equal_the_vocabulary_product(self, seed, tau):
        lake, space = _small_lake(seed)
        index = PexesoIndex(space, PexesoConfig(tau=tau)).build(lake)
        cols, vectors = index._columns, space.vectors
        assert cols.shape[0] > 0
        for row in range(cols.shape[0]):
            q = cols.indices[cols.indptr[row] : cols.indptr[row + 1]]
            product = (cols @ (vectors[q] @ vectors.T >= tau).T).sum(axis=1)
            counts = index._reach[:, q].getnnz(axis=1)
            assert counts.tolist() == np.asarray(product).ravel().tolist()

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.sampled_from([2, 5, 8]),
        picks=st.lists(st.integers(min_value=0, max_value=10_000), max_size=30),
    )
    def test_counts_equal_the_sliced_matrix(self, seed, picks):
        """Gathering the query ids' index runs counts what scipy's column
        slice counts, repeated ids included."""
        lake, space = _small_lake(seed)
        reach = PexesoIndex(space).build(lake)._reach
        qids = np.array([p % reach.shape[1] for p in picks], dtype=np.int32)
        got = reach_counts(reach, qids)
        assert got.tolist() == reach[:, qids].getnnz(axis=1).tolist()

    def test_no_query_ids_count_zero_everywhere(self, pexeso):
        counts = reach_counts(pexeso._reach, np.zeros(0, dtype=np.int32))
        assert counts.tolist() == [0] * pexeso._reach.shape[0]

    def test_pairs_at_the_threshold_are_decided_in_float64(self):
        """Dots within the float32 screen's margin of ``tau``, on either
        side of it, are decided as the float64 product decides them."""
        tau = 0.8
        offsets = [-SCREEN_MARGIN / 2, -1e-9, 0.0, 1e-9, SCREEN_MARGIN / 2]
        cosines = [tau + d for d in offsets]
        vectors = np.array(
            [[1.0, 0.0]] + [[c, np.sqrt(1 - c * c)] for c in cosines]
        )
        n = len(vectors)
        columns = csr_matrix(np.eye(n, dtype=bool))
        want = columns @ csr_matrix(vectors @ vectors.T >= tau)
        got = reach_matrix(columns, vectors, tau)
        assert (got != want).nnz == 0
        # The screen leaves every pair with vector 0 to float64, and those
        # pairs fall on both sides of tau.
        screen = vectors.astype(np.float32) @ vectors[0].astype(np.float32)
        assert (abs(screen[1:] - tau) < SCREEN_MARGIN).all()
        matched = want.toarray()[0, 1:]
        assert matched.any() and not matched.all()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.sampled_from([2, 5, 8]),
        picks=st.lists(st.integers(min_value=0, max_value=10_000), max_size=20),
        renders=st.lists(
            st.sampled_from(
                [str.upper, str.title, lambda v: f"  {v} ", lambda v: v.replace(" ", "  ")]
            ),
            max_size=6,
        ),
        n_oov=st.integers(min_value=0, max_value=5),
        tau=st.sampled_from([0.6, 0.7, 0.8, 0.9]),
        sigma=st.sampled_from([0.2, 0.4, 0.6]),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_query_outside_the_lake_equals_brute_force(
        self, seed, picks, renders, n_oov, tau, sigma, k
    ):
        """A by-value query mixing vocabulary values, renderings of them
        that key alike, out-of-vocabulary values and nulls."""
        lake, space = _small_lake(seed)
        config = PexesoConfig(tau=tau, sigma=sigma)
        index = PexesoIndex(space, config).build(lake)
        known = [space.vocab[p % len(space.vocab)] for p in picks]
        cells = known + [f(v) for f, v in zip(renders, known)]
        cells += [f"never-seen-{i}" for i in range(n_oov)] + ["NULL", "n/a"]
        query = Column("q", cells)
        want = _brute_force_values(lake, space, config, query.value_set(), k)
        assert index.search(query, k=k) == want


@functools.lru_cache(maxsize=3)
def _small_system(seed):
    corpus = make_union_corpus(
        n_groups=3, tables_per_group=3, rows_per_table=25, seed=seed
    )
    return DiscoverySystem(
        corpus.lake,
        DiscoveryConfig(embedding_dim=16, num_partitions=4),
        ontology=corpus.ontology,
    ).build()


class TestFacadeProperty:
    """``DiscoverySystem.fuzzy_joinable_search`` on small generated lakes."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.sampled_from([2, 5, 8]),
        pick=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=6),
    )
    def test_hits_bounded_sorted_exclusive_and_exact(self, seed, pick, k):
        system = _small_system(seed)
        lake = system.lake
        refs = [ref for ref, _ in lake.iter_text_columns()]
        ref = refs[pick % len(refs)]
        hits = system.fuzzy_joinable_search(ref, k=k)
        assert len(hits) <= k
        assert hits == sorted(hits)
        assert all(h.ref.table != ref.table for h in hits)
        config = system.engines["pexeso"].raw.config
        assert hits == _brute_force_topk(lake, system.space, config, ref, k)


class TestFuzzyVsExact:
    def test_fuzzy_recovers_disjoint_same_domain(
        self, union_corpus, union_space
    ):
        """E19 shape: equi-join containment can be ~0 while fuzzy matching
        by embedding finds the same-domain column."""
        qname, cname = union_corpus.groups[0][0], union_corpus.groups[0][1]
        q = union_corpus.lake.table(qname).columns[0]
        # Align by ontology concept.
        onto = union_corpus.ontology
        q_cls = onto.annotate_column(q.non_null_values())
        cand_table = union_corpus.lake.table(cname)
        for ci, ccol in cand_table.text_columns():
            if onto.annotate_column(ccol.non_null_values()) == q_cls:
                qset = set(q.value_set())
                cset = set(ccol.value_set())
                exact_containment = len(qset & cset) / len(qset)
                fuzzy = exact_fuzzy_join_fraction(
                    union_space, qset, cset, tau=0.7
                )
                assert fuzzy >= exact_containment
                return
        pytest.fail("no aligned candidate column")
