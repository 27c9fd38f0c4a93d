"""Tests for PPMI+SVD embedding training and the embedding space."""

import random
from collections import Counter
from math import log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix

from repro.datalake.generate import make_union_corpus
from repro.datalake.lake import DataLake
from repro.datalake.table import Table, normalize_cell
from repro.understanding.embedding import (
    EmbeddingSpace,
    ppmi_matrix,
    train_embeddings,
)


class TestEmbeddingSpace:
    def test_vectors_unit_norm(self):
        space = EmbeddingSpace(["a", "b"], np.array([[3.0, 4.0], [1.0, 0.0]]))
        assert np.linalg.norm(space.vector("a")) == pytest.approx(1.0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingSpace(["a"], np.zeros((2, 3)))

    def test_oov_returns_none(self):
        space = EmbeddingSpace(["a"], np.ones((1, 2)))
        assert space.vector("zzz") is None
        assert "zzz" not in space

    def test_case_insensitive_lookup(self):
        space = EmbeddingSpace(["abc"], np.ones((1, 2)))
        assert space.vector("ABC") is not None

    def test_embed_set_of_unknowns_is_zero(self):
        space = EmbeddingSpace(["a"], np.ones((1, 2)))
        assert np.allclose(space.embed_set(["x", "y"]), 0.0)

    def test_embed_set_unit_norm(self):
        space = EmbeddingSpace(
            ["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        v = space.embed_set(["a", "b"])
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_embed_set_independent_of_iteration_order(self):
        words = [f"w{i}" for i in range(60)]
        rng = np.random.default_rng(3)
        space = EmbeddingSpace(words, rng.normal(size=(60, 8)))
        forward = space.embed_set(frozenset(words))
        backward = space.embed_set(list(reversed(words)))
        assert forward.tobytes() == backward.tobytes()

    def test_ids_keep_order_and_drop_unknowns(self):
        space = EmbeddingSpace(["a", "b", "c"], np.eye(3))
        ids = space.ids(["C", "zzz", "a", "c", "", "b"])
        assert ids.dtype == np.int32
        # Keys are looked up as given: "C" is not a key, so it is dropped
        # (vector() still keys it).
        assert ids.tolist() == [0, 2, 1]
        assert space.vector("C") is not None
        assert space.ids([]).tolist() == []

    def test_cosine_oov_zero(self):
        space = EmbeddingSpace(["a"], np.ones((1, 2)))
        assert space.cosine("a", "zzz") == 0.0

    def test_nearest_excludes_self(self):
        space = EmbeddingSpace(
            ["a", "b", "c"],
            np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]),
        )
        names = [n for n, _ in space.nearest("a", k=2)]
        assert "a" not in names
        assert names[0] == "b"


def loop_embed_set(space, values, sample=200):
    """Reference: one ``vector`` lookup and one in-place add per value."""
    vals = sorted(values)
    if len(vals) > sample:
        vals = random.Random(0).sample(vals, sample)
    acc = np.zeros(space.dim)
    n = 0
    for v in vals:
        # embed_set takes cell keys and looks each up as given: "W1" is not
        # the key "w1", though vector() would key it.
        vec = space.vector(v) if v in space.vocab else None
        if vec is not None:
            acc += vec
            n += 1
    if n == 0:
        return acc
    acc /= n
    norm = np.linalg.norm(acc)
    return acc / norm if norm > 0 else acc


class TestEmbedSetProperty:
    """``embed_set`` (an id lookup and one gather) equals the per-value
    loop bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_vocab=st.integers(1, 80),
        dim=st.integers(1, 12),
        vector_seed=st.integers(0, 10_000),
        picks=st.lists(
            st.one_of(
                st.integers(0, 79).map(lambda i: f"w{i}"),
                st.integers(0, 79).map(lambda i: f"W{i}"),
                st.text(alphabet="xyz ", max_size=4),
            ),
            max_size=260,
        ),
        sample=st.sampled_from([1, 7, 50, 200]),
    )
    def test_equals_loop_reference(
        self, n_vocab, dim, vector_seed, picks, sample
    ):
        vocab = [f"w{i}" for i in range(n_vocab)]
        rng = np.random.default_rng(vector_seed)
        space = EmbeddingSpace(vocab, rng.normal(size=(n_vocab, dim)))
        got = space.embed_set(picks, sample=sample)
        want = loop_embed_set(space, picks, sample=sample)
        assert got.shape == want.shape == (dim,)
        assert got.tobytes() == want.tobytes()


class TestTraining:
    def test_same_domain_closer_than_cross(self, union_corpus, union_space):
        pool = union_corpus.pool
        d0 = pool.domain(0).values
        d9 = pool.domain(9).values
        same = union_space.cosine(d0[0], d0[1])
        cross = union_space.cosine(d0[0], d9[0])
        assert same > cross + 0.2

    def test_deterministic(self, union_corpus):
        a = train_embeddings(union_corpus.lake, dim=16, seed=5)
        b = train_embeddings(union_corpus.lake, dim=16, seed=5)
        assert a.vocab == b.vocab
        assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_min_count_filters_vocab(self, union_corpus):
        strict = train_embeddings(union_corpus.lake, dim=8, min_count=5)
        loose = train_embeddings(union_corpus.lake, dim=8, min_count=1)
        assert len(strict.vocab) <= len(loose.vocab)

    def test_tiny_lake_degenerates_gracefully(self):
        lake = DataLake([Table.from_dict("t", {"a": ["x", "y"]})])
        space = train_embeddings(lake, dim=8, min_count=1)
        assert isinstance(space, EmbeddingSpace)

    def test_requested_dim_respected(self, union_corpus):
        space = train_embeddings(union_corpus.lake, dim=24)
        assert space.dim == 24


def naive_ppmi(lake, min_count, max_pairs_per_column, row_context, seed):
    """Reference: one Python ``record`` call and one ``Counter`` update per
    sampled pair, then one Python loop over the pairs for the PPMI
    triplets."""
    rng = random.Random(seed)
    counts: Counter[str] = Counter()
    for _, col in lake.iter_text_columns():
        counts.update(col.non_null_values())
    vocab = sorted(v for v, c in counts.items() if c >= min_count)
    index = {v: i for i, v in enumerate(vocab)}
    pair_counts: Counter[tuple[int, int]] = Counter()

    def record(a, b):
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None or ia == ib:
            return
        pair_counts[(min(ia, ib), max(ia, ib))] += 1

    for table in lake:
        text_cols = [c for _, c in table.text_columns()]
        for col in text_cols:
            vals = col.non_null_values()
            if len(vals) < 2:
                continue
            for _ in range(min(max_pairs_per_column, 4 * len(vals))):
                record(rng.choice(vals), rng.choice(vals))
        if row_context and len(text_cols) >= 2:
            for i in range(table.num_rows):
                cells = [normalize_cell(c.values[i]) for c in text_cols]
                for a in range(len(cells)):
                    for b in range(a + 1, len(cells)):
                        record(cells[a], cells[b])

    total = sum(pair_counts.values()) * 2.0
    marginal = np.zeros(len(vocab))
    for (a, b), c in pair_counts.items():
        marginal[a] += c
        marginal[b] += c
    rows, cols, data = [], [], []
    for (a, b), c in pair_counts.items():
        pmi = log((c * total) / (marginal[a] * marginal[b]))
        if pmi > 0:
            rows.extend((a, b))
            cols.extend((b, a))
            data.extend((pmi, pmi))
    mat = coo_matrix((data, (rows, cols)), shape=(len(vocab), len(vocab)))
    return vocab, mat.tocsr()


class TestExactness:
    """``ppmi_matrix`` hands ``svds`` the very matrix the per-pair Python
    loop built: same vocabulary, same CSR arrays bit for bit (one ulp in
    one entry can flip trailing singular vectors)."""

    @settings(max_examples=25, deadline=None)
    @given(
        n_groups=st.integers(1, 3),
        tables_per_group=st.integers(1, 3),
        cols_per_table=st.integers(1, 3),
        rows_per_table=st.integers(4, 20),
        corpus_seed=st.integers(0, 10_000),
        min_count=st.sampled_from([1, 2]),
        row_context=st.booleans(),
        max_pairs=st.sampled_from([3, 4000]),
        seed=st.integers(0, 100),
    )
    def test_csr_equals_naive_reference(
        self,
        n_groups,
        tables_per_group,
        cols_per_table,
        rows_per_table,
        corpus_seed,
        min_count,
        row_context,
        max_pairs,
        seed,
    ):
        lake = make_union_corpus(
            n_groups=n_groups,
            tables_per_group=tables_per_group,
            cols_per_table=cols_per_table,
            rows_per_table=rows_per_table,
            seed=corpus_seed,
        ).lake
        args = (lake, min_count, max_pairs, row_context, seed)
        vocab, mat = ppmi_matrix(*args)
        ref_vocab, ref = naive_ppmi(*args)
        assert vocab == ref_vocab
        assert mat.shape == ref.shape
        assert mat.indptr.dtype == ref.indptr.dtype
        assert mat.indices.dtype == ref.indices.dtype
        assert (mat.indptr == ref.indptr).all()
        assert (mat.indices == ref.indices).all()
        assert (mat.data == ref.data).all()

    def test_48_table_lake_matrix_equals_reference(self):
        """At this size and ``min_count=2`` one of ~22k PMI entries comes
        out one ulp off under ``np.log``; ``math.log`` matches."""
        lake = make_union_corpus(
            n_groups=8, tables_per_group=6, rows_per_table=60, seed=1
        ).lake
        vocab, mat = ppmi_matrix(lake, 2, 4000, True, 0)
        ref_vocab, ref = naive_ppmi(lake, 2, 4000, True, 0)
        assert vocab == ref_vocab
        assert mat.nnz == ref.nnz > 0
        assert (mat.indptr == ref.indptr).all()
        assert (mat.indices == ref.indices).all()
        assert (mat.data == ref.data).all()

    def test_padded_cells_count_in_row_context(self):
        """Row context normalizes cells as the vocabulary does: a lake with
        padded, upper-cased cells gives the matrix of its clean copy."""
        clean = {
            "a": ["new york", "new york", "oslo", "oslo"],
            "b": ["usa", "usa", "norway", "norway"],
        }
        padded = {
            "a": ["new  york", " New York", "oslo ", "OSLO"],
            "b": ["usa", "USA  ", "norway", " norway"],
        }
        got_vocab, got = ppmi_matrix(
            DataLake([Table.from_dict("t", padded)]), 1, 0, True, 0
        )
        want_vocab, want = ppmi_matrix(
            DataLake([Table.from_dict("t", clean)]), 1, 0, True, 0
        )
        assert got_vocab == want_vocab == ["new york", "norway", "oslo", "usa"]
        assert got.nnz > 0
        assert (got.toarray() == want.toarray()).all()
        ref_vocab, ref = naive_ppmi(
            DataLake([Table.from_dict("t", padded)]), 1, 0, True, 0
        )
        assert ref_vocab == got_vocab
        assert (ref.toarray() == got.toarray()).all()
