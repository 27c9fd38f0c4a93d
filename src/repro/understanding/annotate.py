"""Ontology-based table annotation (Limaye et al. VLDB'10 / Venetis et al.
VLDB'11, survey §2.2).

Annotates cells with ontology entities, columns with ontology classes
(majority vote over covered cells), and column *pairs* with ontology
relationships — the annotations SANTOS-style relationship search consumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.datalake.ontology import Ontology
from repro.datalake.table import Table


@dataclass
class TableAnnotation:
    """All annotations inferred for one table."""

    table: str
    #: column index -> ontology class (absent if uncovered)
    column_types: dict[int, str] = field(default_factory=dict)
    #: (column i, column j) -> relationship name
    relationships: dict[tuple[int, int], str] = field(default_factory=dict)
    #: column index -> coverage of its values by the ontology
    coverage: dict[int, float] = field(default_factory=dict)


class OntologyAnnotator:
    """Annotate tables against a (possibly partial) ontology."""

    def __init__(
        self,
        ontology: Ontology,
        min_support: float = 0.5,
        min_pair_support: float = 0.3,
        max_pair_rows: int = 200,
    ):
        self.ontology = ontology
        self.min_support = min_support
        self.min_pair_support = min_pair_support
        self.max_pair_rows = max_pair_rows

    def annotate_column(self, values: list[str]) -> str | None:
        """Majority-class annotation of a bag of values (None if uncovered)."""
        return self.ontology.annotate_column(values, self.min_support)

    def annotate(self, table: Table) -> TableAnnotation:
        """Annotate a table's columns and text-column pairs."""
        ann = TableAnnotation(table.name)
        text_cols = table.text_columns()
        for i, col in text_cols:
            vals = col.non_null_values()
            ann.coverage[i] = self.ontology.coverage_of(vals)
            cls = self.annotate_column(vals)
            if cls is not None:
                ann.column_types[i] = cls

        # Pairwise relationships from row-wise value pairs (sampled rows).
        n_rows = min(table.num_rows, self.max_pair_rows)
        keys = [c.cell_keys()[:n_rows] for _, c in text_cols]
        for ai in range(len(text_cols)):
            for bi in range(ai + 1, len(text_cols)):
                i, j = text_cols[ai][0], text_cols[bi][0]
                votes: Counter[str] = Counter()
                checked = 0
                for a, b in zip(keys[ai], keys[bi]):
                    if not a or not b:
                        continue
                    checked += 1
                    rel = self.ontology.relation_between_keys(a, b)
                    if rel is not None:
                        votes[rel] += 1
                if not votes or checked == 0:
                    continue
                rel, n = votes.most_common(1)[0]
                if n >= self.min_pair_support * checked:
                    ann.relationships[(i, j)] = rel
        return ann


def synthesize_kb(lake_tables: list[Table], min_pair_count: int = 3) -> Ontology:
    """Build a SANTOS-style *synthesized* KB from the lake itself.

    Value pairs co-occurring row-wise in >= ``min_pair_count`` tables become
    instance-level facts under a synthesized relation per (column signature)
    — covering lake regions an existing KB misses (survey §3).
    """
    pair_tables: dict[tuple[str, str], set[str]] = {}
    for t in lake_tables:
        keys = [c.cell_keys() for _, c in t.text_columns()]
        for ai in range(len(keys)):
            for bi in range(ai + 1, len(keys)):
                for a, b in zip(keys[ai], keys[bi]):
                    if a and b:
                        pair_tables.setdefault((a, b), set()).add(t.name)
    onto = Ontology()
    onto.add_class("synth")
    for (a, b), tables in pair_tables.items():
        if len(tables) >= min_pair_count:
            onto.add_fact(a, b, "synth_rel")
    return onto
