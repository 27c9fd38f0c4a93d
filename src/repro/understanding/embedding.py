"""Distributional value embeddings trained on the lake itself (PPMI + SVD).

Substitute for the pre-trained word/language-model embeddings used by the
surveyed systems (TUS's NL measure, PEXESO, Starmie, WarpGate).  Values that
appear in similar contexts — the same columns and the same rows — receive
nearby vectors, which is exactly the geometric property those systems
exploit.  Training is classic count-based distributional semantics:
positive pointwise mutual information over co-occurrence counts, factorized
with truncated SVD.
"""

from __future__ import annotations

import random
from collections import Counter
from math import log

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import svds

from repro.datalake.lake import DataLake
from repro.datalake.table import cell_key


class EmbeddingSpace:
    """A trained value -> vector map with cosine-similarity utilities."""

    def __init__(self, vocab: list[str], vectors: np.ndarray):
        if len(vocab) != vectors.shape[0]:
            raise ValueError("vocab/vector row count mismatch")
        self.vocab = vocab
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self.vectors = vectors / norms
        self._index = {v: i for i, v in enumerate(vocab)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def _row(self, value) -> int | None:
        # The vocabulary holds cell keys: a value_set member needs no keying.
        row = self._index.get(value)
        return row if row is not None else self._index.get(cell_key(value))

    def __contains__(self, value: str) -> bool:
        return self._row(value) is not None

    def vector(self, value: str) -> np.ndarray | None:
        """Unit vector for a value, or None if out-of-vocabulary."""
        i = self._row(value)
        return self.vectors[i] if i is not None else None

    def ids(self, keys) -> np.ndarray:
        """Rows of ``vectors`` for the known cell keys, in the given order
        (int32; out-of-vocabulary keys are dropped).  Each is looked up as
        given: every caller passes keys (``value_set`` members), so a miss
        is not keyed again."""
        index = self._index
        return np.fromiter(
            (i for v in keys if (i := index.get(v)) is not None), dtype=np.int32
        )

    def embed_set(self, values, sample: int = 200) -> np.ndarray:
        """Mean vector of (a sample of) the cell keys ``values``, each
        looked up as given (:meth:`ids`); zero vector if none known.

        Values are summed in sorted order, so the result does not depend on
        the iteration order of ``values`` (a set's varies with the hash
        seed, and float addition is not associative).
        """
        vals = sorted(values)
        if len(vals) > sample:
            vals = random.Random(0).sample(vals, sample)
        ids = self.ids(vals)
        if len(ids) == 0:
            return np.zeros(self.dim)
        acc = self.vectors[ids].sum(axis=0) / len(ids)
        norm = np.linalg.norm(acc)
        return acc / norm if norm > 0 else acc

    def cosine(self, a: str, b: str) -> float:
        va, vb = self.vector(a), self.vector(b)
        if va is None or vb is None:
            return 0.0
        return float(np.dot(va, vb))

    def nearest(self, value: str, k: int = 10) -> list[tuple[str, float]]:
        """k most-similar vocabulary values by cosine."""
        i = self._row(value)
        if i is None:
            return []
        sims = self.vectors @ self.vectors[i]
        order = np.argsort(-sims)
        return [(self.vocab[j], float(sims[j])) for j in order[order != i][:k]]


def ppmi_matrix(
    lake: DataLake,
    min_count: int = 2,
    max_pairs_per_column: int = 4000,
    row_context: bool = True,
    seed: int = 0,
) -> tuple[list[str], csr_matrix]:
    """The lake's vocabulary and its symmetric PPMI co-occurrence matrix.

    The vocabulary is every normalized text value seen at least
    ``min_count`` times, sorted.  Contexts: (1) column membership — pairs
    of values sampled from the same text column; (2) row adjacency — pairs
    of values from text cells of the same row.  Pair sampling bounds the
    quadratic blow-up on long columns.  Pairs are counted as integer keys
    ``min * V + max`` with numpy; only the logarithm runs per entry, with
    :func:`math.log`, whose rounding the factorization downstream depends
    on bit for bit.
    """
    rng = random.Random(seed)
    tables = []
    counts: Counter[str] = Counter()
    for table in lake:
        text_cols = [c for _, c in table.text_columns()]
        values = [c.non_null_values() for c in text_cols]
        for vals in values:
            counts.update(vals)
        tables.append((text_cols, values))
    vocab = sorted(v for v, c in counts.items() if c >= min_count)
    index = {v: i for i, v in enumerate(vocab)}
    n = len(vocab)

    left: list[np.ndarray] = []
    right: list[np.ndarray] = []
    for text_cols, values in tables:
        # Column context: values of one column share a domain.
        for vals in values:
            if len(vals) < 2:
                continue
            ids = [index.get(v, -1) for v in vals]
            n_pairs = min(max_pairs_per_column, 4 * len(vals))
            picks = np.array(
                [rng.choice(ids) for _ in range(2 * n_pairs)], dtype=np.int64
            )
            left.append(picks[0::2])
            right.append(picks[1::2])
        # Row context: values co-occurring in a row are related.
        if row_context and len(text_cols) >= 2:
            cells = [
                np.array([index.get(key, -1) for key in c.cell_keys()], dtype=np.int64)
                for c in text_cols
            ]
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    left.append(cells[i])
                    right.append(cells[j])

    a = np.concatenate(left) if left else np.zeros(0, dtype=np.int64)
    b = np.concatenate(right) if right else np.zeros(0, dtype=np.int64)
    keep = (a >= 0) & (b >= 0) & (a != b)
    a, b = a[keep], b[keep]
    keys, pair_counts = np.unique(
        np.minimum(a, b) * n + np.maximum(a, b), return_counts=True
    )
    lo, hi = np.divmod(keys, max(n, 1))
    total = float(pair_counts.sum()) * 2.0
    marginal = np.bincount(
        np.concatenate([lo, hi]),
        weights=np.concatenate([pair_counts, pair_counts]).astype(np.float64),
        minlength=n,
    )
    ratio = (pair_counts * total) / (marginal[lo] * marginal[hi])
    pmi = np.fromiter(map(log, ratio.tolist()), dtype=np.float64, count=len(ratio))
    pos = pmi > 0
    lo, hi, pmi = lo[pos], hi[pos], pmi[pos]
    rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    mat = coo_matrix(
        (np.concatenate([pmi, pmi]), (rows, cols)), shape=(n, n)
    ).tocsr()
    return vocab, mat


def train_embeddings(
    lake: DataLake,
    dim: int = 64,
    min_count: int = 2,
    max_pairs_per_column: int = 4000,
    row_context: bool = True,
    seed: int = 0,
) -> EmbeddingSpace:
    """Train PPMI+SVD embeddings over the lake's value co-occurrences
    (see :func:`ppmi_matrix` for the contexts counted)."""
    vocab, mat = ppmi_matrix(
        lake, min_count, max_pairs_per_column, row_context, seed
    )
    if len(vocab) < 8 or mat.nnz == 0:
        return EmbeddingSpace(vocab, np.zeros((len(vocab), max(dim, 1))))
    k = min(dim, len(vocab) - 1)
    u, s, _ = svds(mat, k=k, random_state=seed)
    vectors = u * np.sqrt(np.maximum(s, 0.0))[None, :]
    if vectors.shape[1] < dim:
        pad = np.zeros((vectors.shape[0], dim - vectors.shape[1]))
        vectors = np.hstack([vectors, pad])
    return EmbeddingSpace(vocab, vectors)
