"""Correlated dataset search: joinable AND correlated (Santos et al., ICDE'22).

Feature discovery for ML wants tables that join with the query table *and*
whose numeric column correlates with a numeric query column after the join.
Executing every join is infeasible; the QCR correlation sketch estimates the
post-join correlation from keyed samples.  This module indexes one sketch
per (table, key column, numeric column) pair and ranks candidates by
estimated |r| among those with sufficient key containment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.obs import METRICS, TRACER
from repro.search.explain import ExplainReport
from repro.sketch.qcr import bottom_n, hash_keys, pearson


@dataclass(frozen=True)
class CorrelatedHit:
    table: str
    key_column: int
    value_column: int
    correlation: float
    containment: float

    def __lt__(self, other: "CorrelatedHit") -> bool:
        return (-abs(self.correlation), self.table) < (
            -abs(other.correlation),
            other.table,
        )


def _key_value_pairs(table: Table, key_col: int, num_col: int):
    keys = table.columns[key_col].cell_keys()
    nums = table.columns[num_col].numeric_values()
    for k, v in zip(keys, nums):
        if k and math.isfinite(v):
            yield k, float(v)


class CorrelatedSearch:
    """Columnar sketch index for joinable-and-correlated column search.

    Sketch ``s`` covers the (table, key column, value column) pair
    ``keys[s]`` of table ``table_of[s]``, an id in ``table_ids``; a
    table's sketches are contiguous in ``keys``.  Each row of the store is
    one sample: key hash ``hashes[i]``, value ``values[i]``, owned by
    sketch ``sketch_of[i]``.  Rows are sorted by hash (ties by sketch), so
    every sketch's samples are in ascending hash order and one binary
    search per query hash finds the matching samples of all sketches at
    once.
    """

    def __init__(self, sketch_size: int = 256):
        if sketch_size < 4:
            raise ValueError("sketch size must be >= 4")
        self.sketch_size = sketch_size
        self.keys: list[tuple[str, int, int]] = []
        self.table_ids: dict[str, int] = {}
        self.table_of = np.zeros(0, dtype=np.int32)
        self.hashes = np.zeros(0, dtype=np.uint64)
        self.values = np.zeros(0, dtype=np.float64)
        self.sketch_of = np.zeros(0, dtype=np.int32)

    def build(self, lake: DataLake) -> "CorrelatedSearch":
        """Sketch every (text key column, numeric column) pair per table."""
        keys: list[tuple[str, int, int]] = []
        hashes: list[np.ndarray] = []
        values: list[np.ndarray] = []
        memo: dict[str, int | None] = {}  # shared by the lake's columns
        for table in lake:
            nums = [(i, c.numeric_values()) for i, c in table.numeric_columns()]
            if not nums:
                continue
            for ki, column in table.text_columns():
                key_hash, present = hash_keys(column.cell_keys(), memo=memo)
                for ni, num in nums:
                    h, v = bottom_n(
                        key_hash[present], num[present], self.sketch_size
                    )
                    if h.size >= 4:
                        keys.append((table.name, ki, ni))
                        hashes.append(h)
                        values.append(v)
        self.keys = keys
        names = dict.fromkeys(name for name, _, _ in keys)
        self.table_ids = {name: i for i, name in enumerate(names)}
        self.table_of = np.fromiter(
            (self.table_ids[name] for name, _, _ in keys),
            dtype=np.int32,
            count=len(keys),
        )
        if keys:
            sketch_of = np.repeat(
                np.arange(len(keys), dtype=np.int32), [h.size for h in hashes]
            )
            all_hashes = np.concatenate(hashes)
            # A stable sort keeps equal hashes in sketch order.
            order = np.argsort(all_hashes, kind="stable")
            self.hashes = all_hashes[order]
            self.values = np.concatenate(values)[order]
            self.sketch_of = sketch_of[order]
        METRICS.inc("index.qcr.sketches_built", len(keys))
        return self

    def stats(self) -> dict:
        """Introspection: sketch count and sample-size skew."""
        from repro.obs.introspect import summarize_distribution

        return {
            "sketches": len(self.keys),
            "sketch_size": self.sketch_size,
            "samples": int(self.hashes.size),
            "samples_per_sketch": summarize_distribution(
                np.bincount(self.sketch_of, minlength=len(self.keys)).tolist()
            ),
        }

    def search(
        self,
        query: Table,
        key_column: int,
        value_column: int,
        k: int = 10,
        min_containment: float = 0.3,
        report: ExplainReport | None = None,
        by_ref: bool = False,
    ) -> list[CorrelatedHit]:
        """Top-k candidate columns by estimated post-join |correlation|.

        ``by_ref`` says ``query`` is the indexed lake table of that name:
        the sketch stored for ``(query.name, key_column, value_column)``
        is then the query's sample, and nothing is hashed.  Without such
        a sketch (or ``by_ref``) the query is sketched from its cells.
        A given ``report`` gets the query, the params and the funnel.
        """
        table_id = self.table_ids.get(query.name, -1)
        stored = (
            self._stored_sketch(table_id, key_column, value_column)
            if by_ref
            else None
        )
        by_ref = stored is not None
        if by_ref:
            # bottom_n's hashes are distinct and ascending, and the store
            # keeps each sketch's rows in hash order: they are its sample.
            own = np.flatnonzero(self.sketch_of == stored)
            qh, qv = self.hashes[own], self.values[own]
        else:
            key_hash, present = hash_keys(query.columns[key_column].cell_keys())
            nums = query.columns[value_column].numeric_values()
            qh, qv = bottom_n(key_hash[present], nums[present], self.sketch_size)
        size = len(self.keys)
        # The rows holding query hash j are lo[j]:lo[j] + counts[j]; listing
        # them for j ascending keeps each sketch's matches in hash order,
        # the order pearson() sums in.
        lo = np.searchsorted(self.hashes, qh, side="left")
        counts = np.searchsorted(self.hashes, qh, side="right") - lo
        sample = np.repeat(np.arange(qh.size), counts)
        rows = np.arange(sample.size) + np.repeat(
            lo - (np.cumsum(counts) - counts), counts
        )
        sketch = self.sketch_of[rows]
        shared = np.bincount(sketch, minlength=size)
        containment = shared / qh.size if qh.size else np.zeros(size)
        other = self.table_of != table_id
        passed = other & (containment >= min_containment)
        keep = passed[sketch]
        r = _grouped_pearson(
            sketch[keep], qv[sample[keep]], self.values[rows[keep]], size
        )
        ids = np.flatnonzero(passed)
        # CorrelatedHit order, (-|r|, table); lexsort is stable, so ties
        # keep sketch order as sorted() over the hits in sketch order did.
        names = [self.keys[s][0] for s in ids.tolist()]
        top = ids[np.lexsort((names, -np.abs(r[ids])))[:k]].tolist()
        out = [
            CorrelatedHit(*self.keys[s], float(r[s]), float(containment[s]))
            for s in top
        ]
        compared = int(other.sum())
        pruned = compared - ids.size
        METRICS.inc("search.qcr.queries")
        METRICS.inc("search.qcr.sketches_compared", compared)
        METRICS.inc("search.qcr.pruned_by_containment", pruned)
        sp = TRACER.current()
        sp.set("by_ref", by_ref)
        sp.set("qcr.sketches_compared", compared)
        sp.set("qcr.pruned_by_containment", pruned)
        if report is not None:
            report.query = f"{query.name}[{key_column},{value_column}]"
            report.params = {
                "min_containment": min_containment,
                "sketch_size": self.sketch_size,
                "by_ref": by_ref,
            }
            report.stage("sketches_indexed", size)
            report.stage("compared", compared)
            report.stage("passed_containment", compared - pruned)
        return out

    def _stored_sketch(
        self, table_id: int, key_column: int, value_column: int
    ) -> int | None:
        """The sketch id of ``(table, key_column, value_column)``, if built."""
        if table_id < 0:
            return None
        lo, hi = np.searchsorted(self.table_of, [table_id, table_id + 1]).tolist()
        for s in range(lo, hi):
            if self.keys[s][1:] == (key_column, value_column):
                return s
        return None


def _grouped_pearson(
    group: np.ndarray, xs: np.ndarray, ys: np.ndarray, size: int
) -> np.ndarray:
    """:func:`pearson` of the (x, y) pairs of each group, in the same
    two-pass, mean-centred form and in input order; 0.0 where undefined."""
    n = np.bincount(group, minlength=size)
    count = np.maximum(n, 1)
    dx = xs - (np.bincount(group, xs, size) / count)[group]
    dy = ys - (np.bincount(group, ys, size) / count)[group]
    cov = np.bincount(group, dx * dy, size)
    vx = np.bincount(group, dx * dx, size)
    vy = np.bincount(group, dy * dy, size)
    r = np.zeros(size)
    ok = (n >= 3) & (vx > 0) & (vy > 0)
    r[ok] = cov[ok] / np.sqrt(vx[ok] * vy[ok])
    return r


def exact_join_correlation(
    query: Table,
    query_key: int,
    query_value: int,
    candidate: Table,
    cand_key: int,
    cand_value: int,
) -> float:
    """Reference: execute the equi-join and compute the exact Pearson r."""
    cand_map: dict[str, float] = {}
    for key, v in _key_value_pairs(candidate, cand_key, cand_value):
        cand_map.setdefault(key, v)
    xs, ys = [], []
    for key, v in _key_value_pairs(query, query_key, query_value):
        other = cand_map.get(key)
        if other is not None:
            xs.append(v)
            ys.append(other)
    return pearson(xs, ys)
