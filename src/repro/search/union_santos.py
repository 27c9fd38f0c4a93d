"""SANTOS: relationship-based semantic table union search (Khatiwada et al.,
SIGMOD'23).

Column-only unionability produces false positives: two tables can share
column domains yet pair them through *different relationships* (city-where-
born vs. city-where-died).  SANTOS matches the binary relationships between
column pairs, using an existing KB for covered regions and a KB synthesized
from the lake for uncovered ones.  A query's *intent* is its set of
(class, relationship, class) triples; candidates are ranked by how much of
that intent they support — at the instance level, so confounders that break
the fact pairing score low even when their class pairing matches.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.datalake.lake import DataLake
from repro.datalake.ontology import Ontology
from repro.datalake.table import Table
from repro.obs import TRACER
from repro.search.explain import ExplainReport
from repro.search.results import TableResult
from repro.understanding.annotate import synthesize_kb


@dataclass
class SantosConfig:
    min_class_support: float = 0.5
    max_rows: int = 200
    synth_min_pair_count: int = 3
    #: weight of relationship intent vs. plain column-class overlap
    relationship_weight: float = 0.8


@dataclass(frozen=True)
class _TableSemantics:
    """Class annotations + instance-supported relationship strengths."""

    classes: frozenset[str]
    #: (class_a, class_b) -> fraction of rows whose value pair is a KB fact
    relationship_support: tuple[tuple[tuple[str, str], float], ...]


class SantosUnionSearch:
    """Relationship-aware unionable table search.

    Besides each table's semantics (``_semantics``), the build stores them
    as arrays with one row per table, tables in name order (``_names``):
    ``_class_matrix`` (bool, tables x ``_classes``) says which classes a
    table's columns carry, and ``_support_matrix`` (float64, tables x
    ``_pairs``) holds its relationship support, 0.0 where it has none.
    Both vocabularies are sorted, the order of ``relationship_support``.
    """

    def __init__(
        self,
        ontology: Ontology,
        config: SantosConfig | None = None,
        use_synthesized_kb: bool = True,
    ):
        self.ontology = ontology
        self.config = config or SantosConfig()
        self.use_synthesized_kb = use_synthesized_kb
        self._synth: Ontology | None = None
        self._semantics: dict[str, _TableSemantics] = {}
        self._names: list[str] = []
        self._classes: dict[str, int] = {}
        self._pairs: dict[tuple[str, str], int] = {}
        self._class_matrix = np.zeros((0, 0), dtype=bool)
        self._support_matrix = np.zeros((0, 0))
        self._built = False

    # -- offline -------------------------------------------------------------------

    def build(self, lake: DataLake) -> "SantosUnionSearch":
        if self.use_synthesized_kb:
            self._synth = synthesize_kb(list(lake), self.config.synth_min_pair_count)
        for table in lake:
            self._semantics[table.name] = self._table_semantics(table)
        self._names = sorted(self._semantics)
        sems = [self._semantics[name] for name in self._names]
        classes = sorted({c for sem in sems for c in sem.classes})
        pairs = sorted({p for sem in sems for p, _ in sem.relationship_support})
        self._classes = {c: i for i, c in enumerate(classes)}
        self._pairs = {p: i for i, p in enumerate(pairs)}
        self._class_matrix = np.zeros((len(sems), len(classes)), dtype=bool)
        self._support_matrix = np.zeros((len(sems), len(pairs)))
        for row, sem in enumerate(sems):
            self._class_matrix[row, [self._classes[c] for c in sem.classes]] = True
            for pair, support in sem.relationship_support:
                self._support_matrix[row, self._pairs[pair]] = support
        self._built = True
        return self

    def stats(self) -> dict:
        """Introspection: indexed tables, classes and relationship pairs."""
        return {
            "tables": len(self._names),
            "classes": len(self._classes),
            "relationship_pairs": len(self._pairs),
        }

    def _column_class(self, values: list[str]) -> str | None:
        return self.ontology.annotate_column(
            values, self.config.min_class_support
        )

    def _fact_supported(self, a: str, b: str) -> bool:
        """Is the cell-key pair (a, b) an instance-level fact in the KB or
        synthesized KB?

        Relationship support needs an actual fact, not a class-level
        relation between the values' classes."""
        if self.ontology.fact(a, b) is not None:
            return True
        return self._synth is not None and self._synth.fact(a, b) is not None

    def _table_semantics(self, table: Table) -> _TableSemantics:
        cfg = self.config
        text_cols = table.text_columns()
        classes = {}
        for i, col in text_cols:
            cls = self._column_class(col.non_null_values())
            if cls is not None:
                classes[i] = cls
        support: dict[tuple[str, str], float] = {}
        n_rows = min(table.num_rows, cfg.max_rows)
        ids = list(classes)
        keys = {i: table.columns[i].cell_keys()[:n_rows] for i in ids}
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                i, j = ids[x], ids[y]
                hits = checked = 0
                for a, b in zip(keys[i], keys[j]):
                    if not a or not b:
                        continue
                    checked += 1
                    if self._fact_supported(a, b):
                        hits += 1
                if checked:
                    pair = tuple(sorted((classes[i], classes[j])))
                    support[pair] = max(support.get(pair, 0.0), hits / checked)
        return _TableSemantics(
            classes=frozenset(classes.values()),
            relationship_support=tuple(sorted(support.items())),
        )

    # -- online ----------------------------------------------------------------------

    def score(self, query_sem: _TableSemantics, cand_sem: _TableSemantics) -> float:
        """Intent-match score: relationship support overlap + class overlap.

        The reference for :meth:`_scores`, which computes it for every
        indexed table at once."""
        w = self.config.relationship_weight
        q_rel = dict(query_sem.relationship_support)
        c_rel = dict(cand_sem.relationship_support)
        rel_score = 0.0
        if q_rel:
            matched = 0.0
            for pair, q_sup in q_rel.items():
                if q_sup < 0.3:
                    continue  # weak intent edges don't define the query
                matched += min(q_sup, c_rel.get(pair, 0.0))
            denom = sum(s for s in q_rel.values() if s >= 0.3) or 1.0
            rel_score = matched / denom
        cls_score = 0.0
        if query_sem.classes:
            cls_score = len(query_sem.classes & cand_sem.classes) / len(
                query_sem.classes
            )
        return w * rel_score + (1 - w) * cls_score

    def _scores(self, query_sem: _TableSemantics) -> np.ndarray:
        """:meth:`score` of ``query_sem`` against every indexed table, row
        for row of ``_names``, with the same float operations in the same
        order (a pair or class the lake lacks adds nothing)."""
        w = self.config.relationship_weight
        n = len(self._names)
        rel_score = np.zeros(n)
        if query_sem.relationship_support:
            matched = np.zeros(n)
            strong = [
                (pair, q_sup)
                for pair, q_sup in query_sem.relationship_support
                if q_sup >= 0.3  # weak intent edges don't define the query
            ]
            for pair, q_sup in strong:
                col = self._pairs.get(pair)
                if col is not None:
                    matched += np.minimum(q_sup, self._support_matrix[:, col])
            rel_score = matched / (sum(s for _, s in strong) or 1.0)
        cls_score = np.zeros(n)
        if query_sem.classes:
            cols = [self._classes[c] for c in query_sem.classes if c in self._classes]
            shared = self._class_matrix[:, cols].sum(axis=1)
            cls_score = shared / len(query_sem.classes)
        return w * rel_score + (1 - w) * cls_score

    def search(
        self,
        query: Table,
        k: int = 10,
        report: ExplainReport | None = None,
        by_ref: bool = False,
    ) -> list[TableResult]:
        """Top-k tables by relationship-intent match.

        ``by_ref`` says ``query`` is the indexed lake table of that name,
        whose semantics the build already computed; any other table is
        annotated from its cells, whatever its name.  SANTOS has no
        internal funnel: a given ``report`` gets the query and ``by_ref``
        only.
        """
        if not self._built:
            raise RuntimeError("call build() before searching")
        query_sem = self._semantics.get(query.name) if by_ref else None
        by_ref = query_sem is not None
        TRACER.current().set("by_ref", by_ref)
        if query_sem is None:
            query_sem = self._table_semantics(query)
        scores = self._scores(query_sem)
        own = bisect.bisect_left(self._names, query.name)
        if own < len(self._names) and self._names[own] == query.name:
            scores[own] = 0.0
        # Rows are in name order, so a stable sort on -score ranks ties by
        # name, as TableResult does.
        cand = np.flatnonzero(scores > 0)
        top = cand[np.argsort(-scores[cand], kind="stable")[:k]].tolist()
        hits = [
            TableResult(self._names[i], s)
            for i, s in zip(top, scores[top].tolist())
        ]
        if report is not None:
            report.query = query.name
            report.params = {"by_ref": by_ref}
        return hits


class ColumnOnlySantosBaseline(SantosUnionSearch):
    """Ablation for E5: identical pipeline with relationship weight 0 —
    i.e. class-overlap-only matching (what SANTOS improves upon)."""

    def __init__(self, ontology: Ontology, **kwargs):
        config = kwargs.pop("config", None) or SantosConfig()
        config.relationship_weight = 0.0
        super().__init__(ontology, config=config, **kwargs)
