"""MinHash signatures for Jaccard (and containment) estimation.

MinHash is the workhorse sketch behind LSH-based joinable and unionable
table search (survey §2.4-2.5).  The estimator is the classic one: the
probability that two sets share a minimum under a random permutation equals
their Jaccard similarity.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.sketch.hashing import MERSENNE_31, UniversalHashFamily, hash_tokens

_FAMILIES: dict[tuple[int, int], UniversalHashFamily] = {}


def _family(num_perm: int, seed: int) -> UniversalHashFamily:
    """Share hash families across sketches with the same (k, seed)."""
    key = (num_perm, seed)
    if key not in _FAMILIES:
        _FAMILIES[key] = UniversalHashFamily(num_perm, seed)
    return _FAMILIES[key]


class MinHash:
    """A MinHash signature over a set of string tokens."""

    def __init__(self, num_perm: int = 128, seed: int = 1):
        self.num_perm = num_perm
        self.seed = seed
        self.hashvalues = np.full(num_perm, MERSENNE_31, dtype=np.uint64)
        self._size = 0  # number of update calls (not distinct count)

    @classmethod
    def from_values(
        cls, values: Iterable[str], num_perm: int = 128, seed: int = 1
    ) -> "MinHash":
        mh = cls(num_perm, seed)
        mh.update_batch(values)
        return mh

    @classmethod
    def from_hashvalues(
        cls, hashvalues: np.ndarray, seed: int = 1
    ) -> "MinHash":
        """A signature holding a copy of ``hashvalues`` (a stored row)."""
        mh = cls.__new__(cls)
        mh.num_perm, mh.seed = len(hashvalues), seed
        mh.hashvalues = np.array(hashvalues, dtype=np.uint64)
        mh._size = 0
        return mh

    def update(self, token: str) -> None:
        self.update_batch([token])

    def update_batch(self, tokens: Iterable[str]) -> None:
        """Fold a batch of tokens into the signature (vectorized)."""
        toks = list(tokens)
        if not toks:
            return
        hashed = hash_tokens(toks, seed=0)
        table = _family(self.num_perm, self.seed).apply(hashed)  # (k, n)
        np.minimum(self.hashvalues, table.min(axis=1), out=self.hashvalues)
        self._size += len(toks)

    def is_empty(self) -> bool:
        return bool(np.all(self.hashvalues == MERSENNE_31))

    def jaccard(self, other: "MinHash") -> float:
        """Estimate Jaccard similarity with another signature."""
        self._check_compatible(other)
        return float(np.mean(self.hashvalues == other.hashvalues))

    def containment(self, other: "MinHash", my_cardinality: int,
                    other_cardinality: int) -> float:
        """Estimate containment |A ∩ B| / |A| from Jaccard and cardinalities.

        Uses the inclusion-exclusion identity
        c = j * (|A| + |B|) / (|A| * (1 + j)), clipped to [0, 1].
        """
        j = self.jaccard(other)
        if my_cardinality == 0:
            return 0.0
        c = j * (my_cardinality + other_cardinality) / (
            my_cardinality * (1.0 + j)
        )
        return min(1.0, max(0.0, c))

    def merge(self, other: "MinHash") -> "MinHash":
        """Signature of the union of the two underlying sets."""
        self._check_compatible(other)
        out = MinHash(self.num_perm, self.seed)
        out.hashvalues = np.minimum(self.hashvalues, other.hashvalues)
        out._size = self._size + other._size
        return out

    def copy(self) -> "MinHash":
        out = MinHash(self.num_perm, self.seed)
        out.hashvalues = self.hashvalues.copy()
        out._size = self._size
        return out

    def _check_compatible(self, other: "MinHash") -> None:
        if self.num_perm != other.num_perm or self.seed != other.seed:
            raise ValueError(
                "incompatible MinHash signatures: "
                f"({self.num_perm}, {self.seed}) vs ({other.num_perm}, {other.seed})"
            )


def exact_jaccard(a: set, b: set) -> float:
    """Exact Jaccard similarity (test/benchmark reference)."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def exact_containment(query: set, candidate: set) -> float:
    """Exact containment |Q ∩ C| / |Q| (test/benchmark reference)."""
    if not query:
        return 0.0
    return len(query & candidate) / len(query)
