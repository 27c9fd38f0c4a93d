"""JOSIE: exact top-k overlap set similarity search (Zhu et al., SIGMOD'19).

Given a query set of values, return the k indexed columns with the largest
exact overlap |Q ∩ X|.  The algorithm processes the query tokens'
posting lists in ascending document-frequency order (rare first) and
interleaves *candidate verification* (reading a candidate's full value set)
with *list probing*, terminating early once no unverified candidate's upper
bound — current partial count plus remaining unprocessed tokens — can beat
the k-th best verified overlap.  Results are exact; early termination only
skips work that provably cannot change the answer.

Sets live in one CSR token-set store (:class:`InvertedIndex`) whose token
ids follow sorted token order, so an indexed set's forward row is already
a query in tie-break order.  The query's posting lists are gathered in one
numpy pass; the probe's stop point is a binary search over prefix counts
of that gather, and the work counters report the lists and sets the
algorithm needed, not the gather's copy.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Callable, Hashable, Iterable

import numpy as np

from repro.core.errors import IndexError_
from repro.obs import METRICS, TRACER
from repro.sketch.inverted import InvertedIndex


class JosieIndex:
    """Exact top-k overlap search over one CSR token-set store.

    ``insert`` buffers; the first read freezes the buffer into an
    :class:`InvertedIndex` whose key ids follow ``str(key)`` order, so
    ranking ties break by key on plain ids, and whose token ids follow
    token order.  Ids become keys only in results.
    """

    def __init__(self):
        self._pending: dict[Hashable, frozenset[str]] = {}
        self._keys: list[Hashable] = []  # key id -> key, once frozen
        self._inv = InvertedIndex()

    def __len__(self) -> int:
        return len(self._keys) + len(self._pending)

    def insert(self, key: Hashable, values: Iterable[str]) -> None:
        if self._keys:  # frozen: fold the store back into the buffer
            self._pending = dict(zip(self._keys, self._inv.token_sets()))
            self._keys = []
        if key in self._pending:
            raise IndexError_(f"duplicate key {key!r}")
        vset = frozenset(map(str, values))
        self._pending[key] = vset
        METRICS.inc("index.josie.sets_indexed")
        METRICS.inc("index.josie.values_indexed", len(vset))

    @property
    def inverted(self) -> InvertedIndex:
        """The frozen store; key id ``i`` is ``keys[i]``."""
        if self._pending:
            self._keys = sorted(self._pending, key=str)
            self._inv = InvertedIndex(
                (self._pending[key] for key in self._keys), sort_tokens=True
            )
            self._pending = {}
        return self._inv

    @property
    def keys(self) -> list[Hashable]:
        """Indexed keys by key id (``str(key)`` order)."""
        self.inverted  # freezes pending inserts
        return self._keys

    def key_id(self, key: Hashable) -> int | None:
        """Key id of an indexed key (``None`` if it is not indexed): a
        binary search over the ``str(key)`` order."""
        keys = self.keys
        i = bisect_left(keys, str(key), key=str)
        return i if i < len(keys) and keys[i] == key else None

    def set_of(self, key: Hashable) -> frozenset[str]:
        """The key's value set (decodes the store; for introspection)."""
        return self.inverted.token_sets()[self._keys.index(key)]

    def stats(self) -> dict:
        """Introspection: set-size skew plus the inverted index's posting
        distribution (the two drivers of JOSIE's probe/verify cost)."""
        return self.inverted.stats()

    # -- baseline -------------------------------------------------------------------

    def full_merge_topk(
        self, query: Iterable[str], k: int = 10
    ) -> list[tuple[Hashable, int]]:
        """Exact top-k by merging *all* posting lists (the MergeList baseline
        JOSIE compares against)."""
        counts = self.inverted.overlaps(str(v) for v in query)
        ids = np.flatnonzero(counts)
        ranked = ids[np.argsort(-counts[ids], kind="stable")][:k]
        return [(self._keys[i], int(counts[i])) for i in ranked]

    # -- JOSIE ------------------------------------------------------------------------

    def topk(
        self, query: Iterable[str], k: int = 10
    ) -> list[tuple[Hashable, int]]:
        """Exact top-k overlap search with early termination.

        Returns [(key, overlap)] sorted by overlap desc; ties by key.
        """
        return self.topk_with_stats(query, k)[0]

    def topk_with_stats(
        self,
        query: Iterable[str],
        k: int = 10,
        exclude: Callable[[Hashable], bool] | None = None,
    ) -> tuple[list[tuple[Hashable, int]], dict]:
        """As ``topk`` but also reports probe/verification work counters.

        Keys for which ``exclude`` returns true are never ranked; the
        bounds are exact over the remaining keys.
        """
        inv = self.inverted
        # Token ids ascend in token order.
        return self._topk(np.sort(inv.token_ids({str(v) for v in query})), k, exclude)

    def topk_of_key(
        self,
        key_id: int,
        k: int = 10,
        exclude: Callable[[Hashable], bool] | None = None,
    ) -> tuple[list[tuple[Hashable, int]], dict]:
        """``topk_with_stats`` with indexed key ``key_id``'s own set as the
        query, read from its forward row."""
        return self._topk(self.inverted.row(key_id), k, exclude)

    def _topk(
        self,
        tids: np.ndarray,
        k: int,
        exclude: Callable[[Hashable], bool] | None,
    ) -> tuple[list[tuple[Hashable, int]], dict]:
        """JOSIE over the query's known token ids, given ascending."""
        inv = self.inverted
        n = len(inv)
        # Rare tokens first: smallest posting lists shrink candidates fastest
        # (ties by token).
        tids = tids[np.argsort(np.diff(inv.offsets)[tids], kind="stable")]
        total = tids.size
        flat, bounds = inv.gather(tids)
        seen = np.unique(flat).tolist() if exclude else []
        drop = [i for i in seen if exclude(self._keys[i])]

        def partial(lists: int) -> np.ndarray:
            """Per-key counts after probing the first ``lists`` lists."""
            counts = np.bincount(flat[: bounds[lists]], minlength=n)
            counts[drop] = 0
            return counts

        def saturated(lists: int) -> bool:
            # Strict: an unseen candidate reaching exactly `remaining` could
            # otherwise tie with the kth result and win the key tie-break.
            kth = n - k
            return 0 <= kth and np.partition(partial(lists), kth)[kth] > total - lists

        # Phase 1 — probe posting lists until no *unseen* candidate can still
        # reach the top-k: the kth largest partial count (a lower bound on
        # exact overlap) must beat the lists left (an upper bound for
        # unseen).  Both sides move monotonically, so the first list count
        # where that holds is found by binary search (else all are read).
        read = min(total, 1 + bisect_left(range(1, total), True, key=saturated))
        counts = partial(read)
        remaining = total - read

        # Phase 2 — verify candidates in upper-bound order (ties by key id);
        # stop when the next upper bound cannot beat the kth best verified
        # exact overlap.
        cand = np.flatnonzero(counts)
        cand = cand[np.argsort(-counts[cand], kind="stable")]
        mask = inv.token_mask(tids)
        verified: list[tuple[int, int]] = []
        best: list[int] = []  # min-heap of top-k exact overlaps
        for i, cnt in zip(cand.tolist(), counts[cand].tolist()):
            if len(best) >= k and cnt + remaining < best[0]:
                break  # no later candidate can beat or tie the kth verified
            # With every list probed, the partial count is exact.
            overlap = inv.overlap(i, mask) if remaining else cnt
            verified.append((i, overlap))
            heapq.heappush(best, overlap)
            if len(best) > k:
                heapq.heappop(best)

        verified.sort(key=lambda kv: (-kv[1], kv[0]))
        ranked = [(self._keys[i], ov) for i, ov in verified[:k]]
        stats = {
            "posting_lists_read": read,
            "posting_entries_read": int(bounds[read]),
            "candidates_examined": int(cand.size),
            "sets_verified": len(verified),
            "query_tokens": total,
        }
        METRICS.inc("index.inverted.postings_reads", read)
        METRICS.inc("search.josie.queries")
        for name, value in stats.items():
            METRICS.inc(f"search.josie.{name}", value)
            TRACER.current().set(f"josie.{name}", value)
        return ranked, stats
