"""LSH Ensemble: internet-scale set *containment* search (Zhu et al., VLDB'16).

Jaccard-threshold LSH is biased against large candidate sets, which is fatal
under the skewed cardinality distributions of data lakes.  LSH Ensemble
partitions the indexed domains by cardinality (equi-depth), converts the
query's containment threshold into a per-partition Jaccard threshold using
the partition's *upper* cardinality bound

    j_p(t) = t * |Q| / (|Q| + u_p - t * |Q|)

and probes each partition with banding parameters tuned to j_p.  One
partition degenerates to plain containment-converted LSH (the ablation
baseline in E2).

The index is one uint64 signature matrix sorted by set size; a partition is
a row range of it.  A query computes every partition's banding in one array
expression, compares the matrix with its signature once, and bands each run
of consecutive partitions that share a band width with one
:func:`repro.sketch.lsh.band_collisions` call on that run's rows.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.core.errors import IndexError_
from repro.obs import METRICS, TRACER
from repro.sketch.lsh import band_collisions, check_num_perm, collision_probability
from repro.sketch.minhash import MinHash


def containment_to_jaccard(
    t: float, query_size: int, upper_size: int | np.ndarray
) -> float | np.ndarray:
    """Lower bound on Jaccard given containment >= t and |X| <= upper_size
    (elementwise when ``upper_size`` is an array of bounds)."""
    upper = np.asarray(upper_size, dtype=np.float64)
    if query_size <= 0:
        j = np.zeros_like(upper)
    else:
        denom = query_size + upper - t * query_size
        j = np.divide(
            t * query_size, denom, out=np.ones_like(upper), where=denom > 0
        )
        np.clip(j, 0.0, 1.0, out=j)
    return j if upper.ndim else float(j)


class LSHEnsemble:
    """Containment-threshold index over (key, MinHash, set size) triples.

    Build with ``index(entries)`` (a single bulk call, which computes the
    equi-depth cardinality partitioning), then probe with
    ``query(minhash, size, threshold)``.
    """

    #: Band widths a partition may be probed with (b = num_perm // r).
    ROWS = (1, 2, 4, 8, 16, 32)

    def __init__(self, num_partitions: int = 8, num_perm: int = 128):
        if num_partitions < 1:
            raise IndexError_("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self.num_perm = num_perm
        self.rows = [r for r in self.ROWS if r <= num_perm]
        # Keys, signatures and set sizes in ascending size order; a partition
        # covers rows start:end and has upper cardinality bound `upper`
        # (no partitions until index()).
        self._keys: list[Hashable] = []
        #: key -> its row of ``_sigs`` / ``_sizes``
        self._rows: dict[Hashable, int] = {}
        self._sigs = np.empty((0, num_perm), dtype=np.uint64)
        self._sizes = np.empty(0, dtype=np.int64)
        self._partitions: list[tuple[int, int, int]] = []  # (start, end, upper)

    def index(self, entries: list[tuple[Hashable, MinHash, int]]) -> None:
        """Bulk-build from ``(key, signature, set size)`` triples
        (:meth:`index_rows` on their stacked signatures)."""
        for _, mh, _ in entries:
            check_num_perm(mh, self.num_perm)
        self.index_rows(
            [key for key, _, _ in entries],
            np.array([mh.hashvalues for _, mh, _ in entries], dtype=np.uint64),
            np.array([size for _, _, size in entries], dtype=np.int64),
        )

    def index_rows(
        self, keys: list[Hashable], sigs: np.ndarray, sizes: np.ndarray
    ) -> None:
        """Bulk-build from keys, their uint64 ``(n, num_perm)`` signature
        rows and their set sizes: sort by size (ties keep input order) and
        cut min(num_partitions, n) equi-depth partitions whose occupancies
        differ by at most one."""
        if self._partitions:
            raise IndexError_("LSHEnsemble.index may only be called once")
        if not keys:
            raise IndexError_("cannot index an empty entry list")
        order = np.argsort(sizes, kind="stable")
        keys = [keys[i] for i in order.tolist()]
        n = len(keys)
        rows = dict(zip(keys, range(n)))
        if len(rows) != n:
            raise IndexError_("duplicate key in LSHEnsemble entries")
        self._keys, self._rows = keys, rows
        self._sigs = sigs[order]
        self._sizes = np.asarray(sizes, dtype=np.int64)[order]
        parts = min(self.num_partitions, n)
        cuts = [n * i // parts for i in range(parts + 1)]
        self._partitions = [
            (start, end, int(self._sizes[end - 1]))
            for start, end in zip(cuts, cuts[1:])
        ]
        METRICS.inc("index.lshensemble.keys_indexed", n)
        METRICS.set_gauge("index.lshensemble.partitions", len(self._partitions))

    def entry(self, key: Hashable) -> tuple[MinHash, int] | None:
        """The indexed ``(signature, set size)`` of ``key`` (a copy of its
        stored row), or ``None`` if the key is not indexed."""
        row = self._rows.get(key)
        if row is None:
            return None
        return MinHash.from_hashvalues(self._sigs[row]), int(self._sizes[row])

    def choose_rows(self, j: float) -> int:
        """Pick r (b = num_perm//r) near threshold j (``_banding`` on one j)."""
        return int(self._banding(np.array([j]))[0])

    def _banding(self, j: np.ndarray) -> np.ndarray:
        """Band width r for each Jaccard threshold in ``j``: the r of
        ``rows`` with the least cost 5*fn + fp, the first on ties.

        False negatives are weighted heavily: the ensemble's contract is
        recall at the containment threshold (the paper optimizes partitions
        for zero false negatives and accepts extra candidates, which the
        caller verifies anyway).
        """
        r = np.array(self.rows)
        b = self.num_perm // r
        # One pass over (2, thresholds, r): collisions at j and at j - 0.2.
        at = np.concatenate((j, np.maximum(0.0, j - 0.2))).reshape(2, -1, 1)
        hit = collision_probability(at, b, r)
        return r[(5.0 * (1.0 - hit[0]) + hit[1]).argmin(axis=1)]

    def stats(self) -> dict:
        """Introspection: per-partition occupancy and cardinality bounds.

        Equi-depth partitioning should yield near-uniform occupancy; a
        skewed histogram means the cardinality distribution shifted under
        the index and per-partition Jaccard thresholds are mistuned.
        """
        from repro.obs.introspect import summarize_distribution

        occupancy = [end - start for start, end, _ in self._partitions]
        return {
            "keys": len(self._keys),
            "num_perm": self.num_perm,
            "partitions": len(self._partitions),
            "partition_occupancy": occupancy,
            "partition_upper_bounds": [u for _, _, u in self._partitions],
            "occupancy": summarize_distribution(occupancy),
            "signatures": list(self._sigs.shape),
            "signature_bytes": int(self._sigs.nbytes),
        }

    def _candidate_rows(
        self, mh: MinHash, size: int, threshold: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows colliding with the query in some band of their partition's
        banding, each partition banded for its own Jaccard threshold, and
        the match matrix they were banded on."""
        if not self._partitions:
            raise IndexError_("query before index()")
        check_num_perm(mh, self.num_perm)
        starts, ends, uppers = zip(*self._partitions)
        widths = self._banding(
            containment_to_jaccard(threshold, size, np.maximum(uppers, 1))
        )
        eq = self._sigs == mh.hashvalues
        mask = np.empty(len(eq), dtype=bool)
        # Runs of consecutive partitions with one band width share a call.
        cuts = [0, *(np.flatnonzero(np.diff(widths)) + 1), len(widths)]
        for first, stop in zip(cuts, cuts[1:]):
            r = int(widths[first])
            start, end = starts[first], ends[stop - 1]
            mask[start:end] = band_collisions(
                eq[start:end], self.num_perm // r, r
            )
        hits = np.flatnonzero(mask)
        METRICS.inc("index.lshensemble.queries")
        METRICS.inc("index.lshensemble.partitions_probed", len(self._partitions))
        METRICS.inc("index.lshensemble.candidates_returned", len(hits))
        sp = TRACER.current()
        sp.set("lshensemble.partitions_probed", len(self._partitions))
        sp.set("lshensemble.candidates_returned", len(hits))
        return hits, eq

    def query(
        self, mh: MinHash, size: int, threshold: float
    ) -> list[Hashable]:
        """Candidate keys whose containment of the query likely >= threshold."""
        rows, _ = self._candidate_rows(mh, size, threshold)
        return [self._keys[i] for i in rows]

    def query_verified(
        self, mh: MinHash, size: int, threshold: float
    ) -> list[tuple[Hashable, float]]:
        """Candidates with *estimated* containment >= threshold, sorted.

        Containment comes from the MinHash Jaccard estimate and the two
        cardinalities, as in :meth:`MinHash.containment`."""
        rows, eq = self._candidate_rows(mh, size, threshold)
        if size == 0:
            est = np.zeros(len(rows))
        else:
            j = eq[rows].mean(axis=1)
            est = np.clip(
                j * (size + self._sizes[rows]) / (size * (1.0 + j)), 0.0, 1.0
            )
        scored = [
            (self._keys[i], float(c)) for i, c in zip(rows, est) if c >= threshold
        ]
        scored.sort(key=lambda kv: (-kv[1], str(kv[0])))
        METRICS.inc("index.lshensemble.candidates_verified", len(scored))
        return scored
