"""The benchmark's workloads: seeded lakes with ground truth, and the query
mix each one runs.

Every workload mixes an odd number of query kinds in equal counts, so the
median and the 95th percentile of the mixed latencies fall inside one
kind's latency band rather than on the boundary between two kinds.  A
*round* asks one subject (a table or a query column) every kind once; the
closed loop runs whole rounds, cycling through the subjects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bench.workloads import JoinWorkload
from repro.core.config import DiscoveryConfig
from repro.datalake.generate import make_join_corpus, make_union_corpus
from repro.datalake.table import ColumnRef

K = 10


@dataclass
class Query:
    """One query of the mix: its kind (the engine whose quality it counts
    toward, or ``federated``), how to run it through the facade, and its
    ground truth."""

    kind: str
    run: Callable[[Any], list]
    #: hit list -> ranked identities comparable with ``relevant``
    ids: Callable[[list], list]
    #: ground-truth relevant identities (None: no truth for this kind)
    relevant: set | None = None


@dataclass
class Lake:
    """A generated lake plus everything a run needs to build and query it."""

    workload: str
    lake: Any
    ontology: Any
    config: DiscoveryConfig
    #: one list per subject, each holding one Query per kind (same order)
    rounds: list[list[Query]]
    meta: dict = field(default_factory=dict)

    def describe(self) -> dict:
        """Manifest of the lake for the run's output meta."""
        return {**self.meta, "kinds": [q.kind for q in self.rounds[0]], "subjects": len(self.rounds)}


def _tables(hits) -> list:
    """Distinct tables of a hit list, in rank order."""
    out: list = []
    for h in hits:
        table = getattr(h, "table", None)
        if table is None:
            table = h.ref.table
        if table not in out:
            out.append(table)
    return out


def _refs(hits) -> list:
    return [h.ref for h in hits]


def _shape(lake) -> dict:
    s = lake.stats()
    return {k: s[k] for k in ("tables", "columns", "rows", "cells")}


def containment_truth(lake, ref: ColumnRef, threshold: float) -> set:
    """Text columns of other tables containing at least ``threshold`` of the
    query column's distinct values (the join corpus's relevance rule)."""
    q = lake.column(ref).value_set()
    out = set()
    for other, col in lake.iter_text_columns():
        if other.table != ref.table and q:
            if len(q & col.value_set()) / len(q) >= threshold:
                out.add(other)
    return out


# -- union_lake ----------------------------------------------------------------


def union_lake(seed: int, smoke: bool = False) -> Lake:
    params = (
        dict(n_groups=2, tables_per_group=3, rows_per_table=20)
        if smoke
        else dict(n_groups=8, tables_per_group=6, rows_per_table=60)
    )
    corpus = make_union_corpus(seed=seed, **params)
    lake = corpus.lake
    rounds = []
    for name in lake.table_names():
        truth = corpus.truth[name]
        rounds.append(
            [
                Query(
                    "tus",
                    lambda s, n=name: s.unionable_search(n, k=K, method="tus"),
                    _tables, truth,
                ),
                Query(
                    "starmie",
                    lambda s, n=name: s.unionable_search(n, k=K, method="starmie"),
                    _tables, truth,
                ),
                Query(
                    "santos",
                    lambda s, n=name: s.unionable_search(n, k=K, method="santos"),
                    _tables, truth,
                ),
                Query(
                    "pexeso",
                    lambda s, r=ColumnRef(name, 0): s.fuzzy_joinable_search(r, k=K),
                    lambda hits: _tables(hits)[:K], truth,
                ),
                Query(
                    "federated",
                    lambda s, t=lake.table(name): s.search(t, k=K),
                    _tables, truth,
                ),
            ]
        )
    return Lake(
        "union_lake",
        lake,
        corpus.ontology,
        DiscoveryConfig(enable_embeddings=True, embedding_min_count=1),
        rounds,
        {
            "generator": "make_union_corpus",
            "params": {**params, "seed": seed},
            "shape": _shape(lake),
            "config": {"enable_embeddings": True, "embedding_min_count": 1},
            "ontology": True,
        },
    )


# -- join_lake -----------------------------------------------------------------


def join_lake(seed: int, smoke: bool = False) -> Lake:
    params = (
        dict(n_tables=24, n_queries=2, base_size=300)
        if smoke
        else dict(n_tables=120, n_queries=10, base_size=1500)
    )
    corpus = make_join_corpus(seed=seed, **params)
    lake = corpus.lake
    workload = JoinWorkload.from_corpus(corpus)
    rounds = []
    for i, (_, ref, _) in enumerate(workload.queries):
        cols = workload.relevant(i, 0.5)
        tables = {r.table for r in cols}
        query_table = lake.table(ref.table)
        rounds.append(
            [
                Query(
                    "josie",
                    lambda s, r=ref: s.joinable_search(r, k=K),
                    _refs, cols,
                ),
                Query(
                    "lshensemble",
                    lambda s, r=ref: s.joinable_search(r, k=K, method="containment"),
                    lambda hits: _refs(hits)[:K], cols,
                ),
                Query(
                    "mate",
                    lambda s, t=query_table: s.multi_attribute_search(t, [0], k=K),
                    _tables, tables,
                ),
                Query(
                    "qcr",
                    lambda s, n=ref.table: s.correlated_search(n, 0, 2, k=K),
                    _tables, None,
                ),
                Query(
                    "federated",
                    lambda s, r=ref: s.search(r, k=K),
                    _tables, tables,
                ),
            ]
        )
    return Lake(
        "join_lake",
        lake,
        None,
        DiscoveryConfig(enable_embeddings=False),
        rounds,
        {
            "generator": "make_join_corpus",
            "params": {**params, "seed": seed},
            "shape": _shape(lake),
            "config": {"enable_embeddings": False},
            "ontology": False,
            "join_truth": "JoinWorkload.relevant(i, 0.5)",
        },
    )


# -- point_lookups -------------------------------------------------------------


def point_lookups(seed: int, smoke: bool = False) -> Lake:
    params = (
        dict(n_groups=2, tables_per_group=3, rows_per_table=20)
        if smoke
        else dict(n_groups=4, tables_per_group=6, rows_per_table=60)
    )
    corpus = make_union_corpus(seed=seed, **params)
    lake = corpus.lake
    rounds = []
    for name in lake.table_names():
        table = lake.table(name)
        ref = ColumnRef(name, 0)
        concept = table.header[0].rsplit("_", 1)[0]
        by_concept = {
            t.name
            for t in lake
            if any(h.rsplit("_", 1)[0] == concept for h in t.header)
        }
        cols = containment_truth(lake, ref, 0.5) or None
        truth = corpus.truth[name]
        rounds.append(
            [
                Query(
                    "keyword",
                    lambda s, c=concept: s.keyword_search(c, k=K),
                    _tables, by_concept,
                ),
                Query(
                    "josie",
                    lambda s, r=ref: s.joinable_search(r, k=K),
                    _refs, cols,
                ),
                Query(
                    "lshensemble",
                    lambda s, r=ref: s.joinable_search(r, k=K, method="containment"),
                    lambda hits: _refs(hits)[:K], cols,
                ),
                Query(
                    "santos",
                    lambda s, n=name: s.unionable_search(n, k=K, method="santos"),
                    _tables, truth,
                ),
                Query(
                    "federated",
                    lambda s, n=name: s.search(
                        n, engines=["keyword", "josie", "santos"], k=K
                    ),
                    _tables, truth,
                ),
            ]
        )
    return Lake(
        "point_lookups",
        lake,
        corpus.ontology,
        DiscoveryConfig(enable_embeddings=False),
        rounds,
        {
            "generator": "make_union_corpus",
            "params": {**params, "seed": seed},
            "shape": _shape(lake),
            "config": {"enable_embeddings": False},
            "ontology": True,
            "join_truth": "containment >= 0.5 of the query column",
        },
    )


WORKLOADS: dict[str, Callable[..., Lake]] = {
    "union_lake": union_lake,
    "join_lake": join_lake,
    "point_lookups": point_lookups,
}

