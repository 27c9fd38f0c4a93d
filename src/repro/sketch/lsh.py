"""Banded MinHash LSH index for Jaccard-threshold search.

Signatures are split into b bands of r rows; two sets collide in a band with
probability j^r, so the probability of colliding in at least one band is
1 - (1 - j^r)^b — the classic S-curve.  ``optimal_bands`` picks (b, r)
minimizing weighted false positives + negatives at a target threshold, as in
datasketch and the LSH Ensemble paper.

Indexed signatures live in one uint64 ``(keys, num_perm)`` matrix.  A query
compares the matrix with its signature once; a band collides when all r of
its rows match (``band_collisions``), which is exactly the key equality a
per-band bucket dict would hash.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable

import numpy as np

from repro.core.errors import IndexError_
from repro.sketch.minhash import MinHash


def collision_probability(j: float | np.ndarray, b, r) -> float | np.ndarray:
    """P[at least one band collides] for true Jaccard j under (b, r)
    (elementwise over arrays, as ``optimal_bands`` uses it)."""
    return 1.0 - (1.0 - j**r) ** b


@lru_cache
def optimal_bands(
    num_perm: int,
    threshold: float,
    fp_weight: float = 0.5,
) -> tuple[int, int]:
    """Choose (b, r) with b*r <= num_perm minimizing the weighted integral of
    false-positive area below the threshold and false-negative area above
    (all r scored in one array pass; ties go to the smallest r).  Cached:
    every index construction with the same arguments reuses the choice."""
    r = np.arange(1, num_perm + 1)[:, None]
    b = num_perm // r
    below = np.linspace(0.0, threshold, 100)
    above = np.linspace(threshold, 1.0, 100)
    fp = np.trapezoid(collision_probability(below, b, r), below, axis=1)
    fn = np.trapezoid(1.0 - collision_probability(above, b, r), above, axis=1)
    best = int(np.argmin(fp_weight * fp + (1.0 - fp_weight) * fn))
    return int(b[best, 0]), best + 1


def check_num_perm(mh: MinHash, num_perm: int) -> None:
    """Reject a signature whose length is not the index's ``num_perm``."""
    if mh.num_perm != num_perm:
        raise IndexError_(
            f"signature has {mh.num_perm} perms, index expects {num_perm}"
        )


#: The all-ones pattern of an r-byte word of a bool matrix (True is byte 1).
_ALL_MATCH = {
    r: np.array(int.from_bytes(b"\x01" * r, "little"), dtype=f"u{r}")
    for r in (2, 4, 8)
}


def band_collisions(eq: np.ndarray, b: int, r: int) -> np.ndarray:
    """Mask of the rows of the bool ``(n, num_perm)`` match matrix ``eq``
    (signatures == query) that match on all ``r`` rows of at least one of
    the first ``b`` bands.

    The rows of a band are adjacent bytes, so a run of 2, 4 or 8 of them is
    one unsigned word of a zero-copy view, all ones exactly when every row
    in it matches; a band of r rows becomes a band of r / word words, down
    to single cells.  Odd band widths AND their rows column by column."""
    eq = eq[:, : b * r]
    word = min(r & -r, 8)  # the largest power of two dividing r, at most 8
    if word > 1:
        return band_collisions(eq.view(f"u{word}") == _ALL_MATCH[word], b, r // word)
    if r == 1:
        return eq.any(axis=1)
    bands = eq.reshape(len(eq), b, r)
    match = bands[:, :, 0] & bands[:, :, 1]
    for i in range(2, r):
        match &= bands[:, :, i]
    return match.any(axis=1)


class MinHashLSH:
    """LSH index over MinHash signatures for a Jaccard threshold."""

    def __init__(
        self,
        threshold: float = 0.5,
        num_perm: int = 128,
        bands: tuple[int, int] | None = None,
        fp_weight: float = 0.5,
    ):
        if not 0.0 < threshold <= 1.0:
            raise IndexError_(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.num_perm = num_perm
        self.b, self.r = bands or optimal_bands(num_perm, threshold, fp_weight)
        if self.b * self.r > num_perm:
            raise IndexError_(
                f"b*r = {self.b * self.r} exceeds num_perm = {num_perm}"
            )
        self._keys: list[Hashable] = []
        #: key -> its row of the signature matrix
        self._rows: dict[Hashable, int] = {}
        self._sigs = np.empty((0, num_perm), dtype=np.uint64)
        self._pending: list[np.ndarray] = []  # stacked onto _sigs on query

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._rows

    def _matrix(self) -> np.ndarray:
        if self._pending:
            self._sigs = np.vstack([self._sigs, *self._pending])
            self._pending = []
        return self._sigs

    def insert(self, key: Hashable, mh: MinHash) -> None:
        """Add a keyed signature to the index."""
        check_num_perm(mh, self.num_perm)
        if key in self._rows:
            raise IndexError_(f"duplicate key {key!r}")
        self._rows[key] = len(self._keys)
        self._keys.append(key)
        self._pending.append(mh.hashvalues.copy())

    def insert_rows(self, keys: list[Hashable], sigs: np.ndarray) -> None:
        """Add keyed signatures at once: row i of the uint64
        ``(n, num_perm)`` matrix ``sigs`` is ``keys[i]``'s.  An empty index
        keeps ``sigs`` itself, not a copy (the index never writes to it)."""
        if sigs.shape != (len(keys), self.num_perm):
            raise IndexError_(
                f"expected {len(keys)} signatures of {self.num_perm} perms, "
                f"got shape {sigs.shape}"
            )
        rows = dict(zip(keys, range(len(self._keys), len(self._keys) + len(keys))))
        if len(rows) != len(keys) or not rows.keys().isdisjoint(self._rows):
            raise IndexError_("duplicate key in MinHashLSH rows")
        if self._keys:
            self._pending.append(sigs)
        else:
            self._sigs = sigs
        self._rows.update(rows)
        self._keys.extend(keys)

    def signature(self, key: Hashable) -> MinHash | None:
        """A copy of the stored signature of ``key`` (``None`` if absent)."""
        row = self._rows.get(key)
        return None if row is None else MinHash.from_hashvalues(self._matrix()[row])

    def _candidate_rows(self, mh: MinHash) -> tuple[np.ndarray, np.ndarray]:
        """Colliding rows and the match matrix they were banded on."""
        check_num_perm(mh, self.num_perm)
        eq = self._matrix() == mh.hashvalues
        return np.flatnonzero(band_collisions(eq, self.b, self.r)), eq

    def query(self, mh: MinHash) -> list[Hashable]:
        """Keys colliding with the query in at least one band (candidates),
        in insertion order."""
        return [self._keys[i] for i in self._candidate_rows(mh)[0]]

    def query_verified(self, mh: MinHash) -> list[tuple[Hashable, float]]:
        """Candidates with estimated Jaccard >= threshold, sorted descending."""
        rows, eq = self._candidate_rows(mh)
        jaccard = eq[rows].mean(axis=1)
        scored = [
            (self._keys[i], float(j))
            for i, j in zip(rows, jaccard)
            if j >= self.threshold
        ]
        scored.sort(key=lambda kv: (-kv[1], str(kv[0])))
        return scored

    def stats(self) -> dict:
        """Introspection: banding shape and the signature matrix's size."""
        sigs = self._matrix()
        return {
            "keys": len(self._keys),
            "threshold": self.threshold,
            "bands": self.b,
            "rows": self.r,
            "signatures": list(sigs.shape),
            "signature_bytes": int(sigs.nbytes),
        }
