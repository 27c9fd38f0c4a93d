"""Leva: relational-embedding data augmentation (Zhao & Fernandez,
SIGMOD'22; survey §2.7).

Where ARDA joins explicit feature columns, Leva learns *representations* of
entities from the whole lake's relational structure and feeds them to the
downstream model.  The reproduction builds the standard tripartite lake
graph — entity values ↔ rows ↔ columns — embeds it with random-walk
co-occurrence + PPMI + SVD (the DeepWalk factorization equivalence), and
exposes entity vectors as ML features.
"""

from __future__ import annotations

import random
from collections import Counter
from math import log

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import svds

from repro.datalake.lake import DataLake
from repro.datalake.table import cell_key


class LakeGraphEmbedding:
    """Random-walk embeddings of the lake's value/row/column graph."""

    def __init__(
        self,
        dim: int = 32,
        walk_length: int = 8,
        walks_per_node: int = 6,
        window: int = 3,
        seed: int = 0,
    ):
        self.dim = dim
        self.walk_length = walk_length
        self.walks_per_node = walks_per_node
        self.window = window
        self.seed = seed
        self._vectors: dict[str, np.ndarray] = {}

    # -- graph construction -----------------------------------------------------

    def _build_adjacency(self, lake: DataLake) -> dict[str, list[str]]:
        """Tripartite adjacency: value <-> row <-> column."""
        adj: dict[str, list[str]] = {}

        def link(a: str, b: str) -> None:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)

        for table in lake:
            cols = [(ci, col.cell_keys()) for ci, col in table.text_columns()]
            for ri in range(table.num_rows):
                row_node = f"row:{table.name}:{ri}"
                for ci, keys in cols:
                    value = keys[ri]
                    if not value:
                        continue
                    col_node = f"col:{table.name}:{ci}"
                    link(f"val:{value}", row_node)
                    link(row_node, col_node)
        return adj

    # -- training ------------------------------------------------------------------

    def fit(self, lake: DataLake) -> "LakeGraphEmbedding":
        """Run walks, count windowed co-occurrences, factorize PPMI."""
        rng = random.Random(self.seed)
        adj = self._build_adjacency(lake)
        nodes = sorted(adj)
        if len(nodes) < 4:
            return self
        index = {n: i for i, n in enumerate(nodes)}

        pair_counts: Counter[tuple[int, int]] = Counter()
        for start in nodes:
            for _ in range(self.walks_per_node):
                walk = [start]
                for _ in range(self.walk_length - 1):
                    walk.append(rng.choice(adj[walk[-1]]))
                ids = [index[n] for n in walk]
                for i in range(len(ids)):
                    for j in range(i + 1, min(i + 1 + self.window, len(ids))):
                        a, b = ids[i], ids[j]
                        if a != b:
                            pair_counts[(min(a, b), max(a, b))] += 1

        total = sum(pair_counts.values()) * 2.0
        marginal = np.zeros(len(nodes))
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
        if not data:
            return self
        mat = coo_matrix(
            (data, (rows, cols)), shape=(len(nodes), len(nodes))
        ).tocsr()
        k = min(self.dim, len(nodes) - 1)
        u, s, _ = svds(mat, k=k, random_state=self.seed)
        vectors = u * np.sqrt(np.maximum(s, 0.0))[None, :]
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        vectors = vectors / norms
        if vectors.shape[1] < self.dim:
            vectors = np.hstack(
                [vectors, np.zeros((len(nodes), self.dim - vectors.shape[1]))]
            )
        self._vectors = {n: vectors[i] for n, i in index.items()}
        return self

    # -- lookups -----------------------------------------------------------------------

    def entity_vector(self, value: str) -> np.ndarray:
        """Embedding of an entity value (zeros when unseen)."""
        return self._vectors.get(
            f"val:{cell_key(value)}", np.zeros(self.dim)
        )

    def column_vector(self, table: str, column: int) -> np.ndarray:
        return self._vectors.get(f"col:{table}:{column}", np.zeros(self.dim))

    def featurize_entities(self, values: list[str]) -> np.ndarray:
        """(n, dim) feature matrix for a list of entity values."""
        return np.vstack([self.entity_vector(v) for v in values])
