"""MATE: multi-attribute joinable table search (Esmailoghli et al., VLDB'22).

Single-attribute overlap search cannot find tables joinable on *composite*
keys: candidates may share many values of each individual column without
containing the combinations.  MATE looks up the rows holding one query key
cell in an inverted index, then hashes each row into a fixed-width *super
key* — a bitmap OR of the hashes of the row's cell values — so a candidate
row can be cheaply tested for "may contain all query key cells" before
exact verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from repro.datalake.lake import DataLake
from repro.datalake.table import Table, cell_key
from repro.obs import METRICS, TRACER
from repro.search.explain import ExplainReport
from repro.sketch.hashing import stable_hash64
from repro.sketch.inverted import InvertedIndex


def _cell_mask(key: str, bits: int) -> int:
    """Bitmap with ``k`` bits set derived from a cell key's hash (k = 2)."""
    h = stable_hash64(key, seed=29)
    b1 = h % bits
    b2 = (h >> 32) % bits
    return (1 << b1) | (1 << b2)


def row_super_key(cells: list[str], bits: int = 64) -> int:
    """OR-aggregate the cell masks of a row's non-null cell keys."""
    mask = 0
    for raw in cells:
        if key := cell_key(raw):
            mask |= _cell_mask(key, bits)
    return mask


@dataclass(frozen=True)
class MateHit:
    table: str
    matched: int
    total: int

    @property
    def score(self) -> float:
        return self.matched / self.total if self.total else 0.0

    def __lt__(self, other: "MateHit") -> bool:
        return (-self.score, self.table) < (-other.score, other.table)


@dataclass
class _Probe:
    """One pass of the query keys over the index."""

    keys: int  # distinct usable query keys
    matched: np.ndarray  # per table index: query keys it joins on
    rows_checked: int  # posting rows of the rarest cell, summed over keys
    rows_passed_filter: int  # of those, rows whose super key covers the key


class MateIndex:
    """Inverted index from text cells to the rows holding them, plus one
    super key per row.

    A cell is a text-column value's non-null key, read from
    :meth:`~repro.datalake.table.Column.cell_keys` (so a lake table queried
    by reference is not keyed again).  Rows are numbered across the
    lake in table order, and cell ids in the order cells are first seen
    there (row by row, column by column).  The build
    puts each row's cells in an :class:`InvertedIndex` and keeps only its
    posting side: ``vocab`` (cell → id) and
    ``postings[offsets[c]:offsets[c + 1]]``, the ascending rows holding cell
    ``c``.  ``cell_masks`` holds each cell's super-key bits,
    ``super_keys`` each row's super key, and table ``t`` owns rows
    ``table_rows[t]:table_rows[t + 1]``.
    """

    def __init__(self, bits: int = 64):
        if not 0 < bits <= 64:
            raise ValueError(f"super keys are uint64: bits must be 1-64, got {bits}")
        self.bits = bits
        self.tables: list[str] = []
        self.vocab: dict[str, int] = {}
        self.offsets = np.zeros(1, dtype=np.int64)
        self.postings = np.zeros(0, dtype=np.int32)
        self.cell_masks = np.zeros(0, dtype=np.uint64)
        self.table_rows = np.zeros(1, dtype=np.int64)
        self.super_keys = np.zeros(0, dtype=np.uint64)

    def index_lake(self, lake: DataLake) -> None:
        tables: list[str] = []
        table_rows = [0]
        row_cells: list[dict[str, None]] = []
        for table in lake:
            tables.append(table.name)
            cols = [c.cell_keys() for _, c in table.text_columns()]
            for keys in zip(*cols) if cols else repeat((), table.num_rows):
                # A dict keeps the cells in column order, so cell ids do not
                # depend on string hashing.
                row_cells.append(dict.fromkeys(filter(None, keys)))
            table_rows.append(len(row_cells))
        cells = InvertedIndex(row_cells)
        masks = np.fromiter(
            (_cell_mask(cell, self.bits) for cell in cells.vocab),
            dtype=np.uint64,
            count=cells.num_tokens,
        )
        rows = np.repeat(np.arange(len(cells)), np.diff(cells.set_offsets))
        super_keys = np.zeros(len(cells), dtype=np.uint64)
        np.bitwise_or.at(super_keys, rows, masks[cells.set_tokens])
        self.tables = tables
        # The probe reads only the posting side; the forward rows
        # (``set_offsets``/``set_tokens``) are needed only for the super
        # keys above, so they are not kept.
        self.vocab, self.offsets = cells.vocab, cells.offsets
        self.postings = cells.posting_ids
        self.cell_masks = masks
        self.table_rows = np.asarray(table_rows, dtype=np.int64)
        self.super_keys = super_keys
        METRICS.inc("index.mate.rows_indexed", len(row_cells))

    def stats(self) -> dict:
        """Introspection: indexed row counts per table (super-key store)."""
        from repro.obs.introspect import summarize_distribution

        return {
            "tables": len(self.tables),
            "rows": int(self.table_rows[-1]),
            "bits": self.bits,
            "rows_per_table": summarize_distribution(np.diff(self.table_rows).tolist()),
        }

    def _probe(
        self, query: Table, key_columns: list[int], exclude: str | None
    ) -> _Probe:
        """Match every distinct query key against the lake, in a fixed
        number of array passes.

        Per key: take the postings of its rarest cell (fewest rows; ties go
        to the lowest cell id), keep the rows whose super key covers the
        key's cell masks, keep those that appear in every other cell's
        postings, and credit each of their tables once.  A key with a cell
        that no row holds matches nothing.
        """
        cols = [query.columns[c].cell_keys() for c in key_columns]
        keys = list(dict.fromkeys(filter(all, zip(*cols))))
        matched = np.zeros(len(self.tables), dtype=np.int64)
        probe = _Probe(len(keys), matched, 0, 0)
        ids = np.fromiter(
            map(self.vocab.get, chain.from_iterable(keys), repeat(-1)),
            dtype=np.int64,
            count=len(keys) * len(key_columns),
        ).reshape(len(keys), len(key_columns))
        ids = ids[(ids >= 0).all(axis=1)]
        if ids.size:
            offsets, key = self.offsets, np.arange(len(ids))
            lens = offsets[ids + 1] - offsets[ids]
            # Rarest cell per key: fewest rows, then lowest id.
            pick = np.argmin(lens * np.int64(len(self.vocab)) + ids, axis=1)
            rarest, counts = ids[key, pick], lens[key, pick]
            mask = np.bitwise_or.reduce(self.cell_masks[ids], axis=1)
            # One gather of every rarest cell's postings; ``key_of`` maps a
            # gathered row back to its key.
            before = np.cumsum(counts) - counts
            cand = self.postings[
                np.arange(counts.sum()) + np.repeat(offsets[rarest] - before, counts)
            ]
            key_of = np.repeat(key, counts)
            probe.rows_checked = cand.size
            keep = (self.super_keys[cand] & mask[key_of]) == mask[key_of]
            cand, key_of = cand[keep], key_of[keep]
            probe.rows_passed_filter = cand.size
            # Only the other cells of composite keys need a posting search.
            for j in range(ids.shape[1]):
                cell = ids[key_of, j]
                check = cell != rarest[key_of]
                if check.any():
                    keep = ~check
                    keep[check] = self._in_postings(cell[check], cand[check])
                    cand, key_of = cand[keep], key_of[keep]
            table = np.searchsorted(self.table_rows, cand, "right") - 1
            # Rows are gathered key by key in ascending order, so (key,
            # table) pairs are sorted: a neighbour compare deduplicates.
            pair = key_of * len(self.tables) + table
            first = np.ones(pair.size, dtype=bool)
            first[1:] = pair[1:] != pair[:-1]
            matched += np.bincount(table[first], minlength=len(self.tables))
        name = exclude or query.name
        if name in self.tables:
            matched[self.tables.index(name)] = 0
        return probe

    def _in_postings(self, cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Whether ``rows[i]`` is in the postings of ``cells[i]``: a lower-bound
        search inside each posting slice, all slices in lockstep."""
        postings, last = self.postings, self.postings.size - 1
        lo, end = self.offsets[cells], self.offsets[cells + 1]
        n = end - lo
        for _ in range(int(n.max()).bit_length()):
            half = n >> 1
            mid = lo + half
            right = (n > 0) & (postings[np.minimum(mid, last)] < rows)
            lo = np.where(right, mid + 1, lo)
            n = np.where(right, n - half - 1, half)
        return (lo < end) & (postings[np.minimum(lo, last)] == rows)

    def search(
        self,
        query: Table,
        key_columns: list[int],
        k: int = 10,
        exclude: str | None = None,
        report: ExplainReport | None = None,
    ) -> list[MateHit]:
        """Top-k tables by fraction of query composite keys matched.

        A query key (tuple of cells) matches a candidate row if the row's
        super key covers all cell masks (filter) and the row actually
        contains every cell (verification).  A given ``report`` gets the
        query, the params and the funnel.
        """
        probe = self._probe(query, key_columns, exclude)
        if not probe.keys:
            if report is not None:
                report.query = "<no usable query keys>"
            return []
        hits = [
            MateHit(self.tables[t], int(probe.matched[t]), probe.keys)
            for t in np.flatnonzero(probe.matched)
        ]
        out = sorted(hits)[:k]
        keys_matched = int(probe.matched.sum())
        METRICS.inc("search.mate.queries")
        METRICS.inc("search.mate.rows_checked", probe.rows_checked)
        METRICS.inc("search.mate.rows_passed_filter", probe.rows_passed_filter)
        METRICS.inc("search.mate.keys_matched", keys_matched)
        METRICS.inc("search.mate.tables_matched", len(hits))
        sp = TRACER.current()
        sp.set("mate.rows_checked", probe.rows_checked)
        sp.set("mate.rows_passed_filter", probe.rows_passed_filter)
        if report is not None:
            report.query = f"composite<{probe.keys} keys>"
            report.params = {"bits": self.bits, "key_columns": str(key_columns)}
            report.stage(
                "rows_checked",
                probe.rows_checked,
                query_keys=probe.keys,
                tables=len(self.tables),
            )
            report.stage("rows_passed_filter", probe.rows_passed_filter)
            report.stage("keys_matched", keys_matched)
            report.stage("tables_matched", len(hits))
        return out

    def filter_stats(self, query: Table, key_columns: list[int]) -> dict:
        """How many posting rows the super-key filter prunes before
        verification."""
        probe = self._probe(query, key_columns, None)
        return {
            "rows_checked": probe.rows_checked,
            "rows_passed_filter": probe.rows_passed_filter,
        }
