"""QCR correlation sketches (Santos et al., "A Sketch-based Index for
Correlated Dataset Search", ICDE'22).

Goal: find tables that are joinable with a query table AND whose numeric
column is correlated with a numeric query column *after the join* — without
executing the join.  The sketch samples join keys by hashed-key minima (so
two sketches of the same key universe sample the *same* keys) and stores the
paired numeric values; the correlation of the aligned samples estimates the
post-join correlation.  QCR additionally quantizes (key, sign-of-deviation)
pairs so that inner-product of sketch sets estimates correlation strength.

The sampling rule lives in one place, :func:`bottom_n`: keep the ``n``
smallest distinct key hashes, each with the value of its *first*
occurrence, skipping non-finite values.  :class:`CorrelationSketch` (one
sketch, streamed) and the columnar correlated-search index both use it.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.datalake.table import cell_key
from repro.sketch.hashing import stable_hash64

DEFAULT_SEED = 13


def hash_keys(
    keys, seed: int = DEFAULT_SEED, memo: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """uint64 hashes of cell keys (a column's ``cell_keys()``), and which
    are keys: a null's ``""`` is not (its hash reads 0).

    ``memo`` maps keys to hashes (None for a null); pass one dict to
    several calls to hash a key repeated across columns once.
    """
    memo = {} if memo is None else memo
    for key in set(keys).difference(memo):
        memo[key] = stable_hash64(key, seed) if key else None
    hashes = list(map(memo.__getitem__, keys))
    present = np.array([h is not None for h in hashes], dtype=bool)
    return np.array([h or 0 for h in hashes], dtype=np.uint64), present


def key_hashes(cells: list[str], seed: int = DEFAULT_SEED) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hash_keys` of raw join-key cells, each keyed by ``cell_key``."""
    return hash_keys([cell_key(raw) for raw in cells], seed)


def bottom_n(
    hashes: np.ndarray, values: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The keyed bottom-``n`` sample of aligned (key hash, value) arrays.

    Returns the ``n`` smallest distinct hashes, ascending, with the value
    of each hash's first occurrence; pairs with a non-finite value are
    skipped before anything else.
    """
    finite = np.isfinite(values)
    hashes, values = hashes[finite], values[finite]
    # return_index gives each distinct hash's first position (stable sort).
    distinct, first = np.unique(hashes, return_index=True)
    return distinct[:n], values[first[:n]]


class CorrelationSketch:
    """Keyed bottom-n sample of (join key, numeric value) pairs."""

    def __init__(self, n: int = 256, seed: int = DEFAULT_SEED):
        if n < 4:
            raise ValueError("sketch size must be >= 4")
        self.n = n
        self.seed = seed
        self._samples: dict[int, float] = {}  # key hash -> value
        self._heap: list[int] = []  # negated sampled hashes (a max-heap)

    @classmethod
    def from_pairs(
        cls, pairs, n: int = 256, seed: int = DEFAULT_SEED
    ) -> "CorrelationSketch":
        """Build from an iterable of (key, value); null keys and non-finite
        values are skipped."""
        sk = cls(n, seed)
        pairs = list(pairs)
        hashes, present = key_hashes([str(key) for key, _ in pairs], seed)
        values = np.array([float(value) for _, value in pairs], dtype=np.float64)
        hashes, kept = bottom_n(hashes[present], values[present], n)
        hs = hashes.tolist()
        sk._samples = dict(zip(hs, kept.tolist()))
        sk._heap = [-h for h in hs]
        heapq.heapify(sk._heap)
        return sk

    def update(self, key: str, value: float) -> None:
        hashes, present = key_hashes([str(key)], self.seed)
        if not (present[0] and math.isfinite(value)):
            return
        h = int(hashes[0])
        if h in self._samples:
            return
        if len(self._samples) >= self.n:
            # Keep bottom-n: a hash above the largest sampled one is never
            # kept, otherwise it evicts that largest one.
            if h > -self._heap[0]:
                return
            del self._samples[-heapq.heappushpop(self._heap, -h)]
        else:
            heapq.heappush(self._heap, -h)
        self._samples[h] = value

    def __len__(self) -> int:
        return len(self._samples)

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(hashes ascending, values): the same arrays :func:`bottom_n`
        returns for the pairs streamed so far."""
        hashes = sorted(self._samples)
        return (
            np.asarray(hashes, dtype=np.uint64),
            np.asarray([self._samples[h] for h in hashes], dtype=np.float64),
        )

    def aligned_values(
        self, other: "CorrelationSketch"
    ) -> tuple[list[float], list[float]]:
        """Values of keys sampled by *both* sketches, aligned by key."""
        common = sorted(self._samples.keys() & other._samples.keys())
        xs = [self._samples[h] for h in common]
        ys = [other._samples[h] for h in common]
        return xs, ys

    def correlation(self, other: "CorrelationSketch") -> float:
        """Estimated post-join Pearson correlation (0 if too few shared keys)."""
        xs, ys = self.aligned_values(other)
        return pearson(xs, ys)

    def containment(self, other: "CorrelationSketch") -> float:
        """Estimated fraction of this sketch's keys present in the other —
        the joinability signal accompanying the correlation signal."""
        if not self._samples:
            return 0.0
        shared = len(self._samples.keys() & other._samples.keys())
        return shared / len(self._samples)


def pearson(xs: list[float], ys: list[float]) -> float:
    """Plain Pearson correlation; 0.0 when undefined (n < 3 or 0 variance)."""
    n = len(xs)
    if n < 3 or n != len(ys):
        return 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = sum((a - mx) ** 2 for a in xs)
    vy = sum((b - my) ** 2 for b in ys)
    if vx <= 0 or vy <= 0:
        return 0.0
    return cov / math.sqrt(vx * vy)
