"""Training set discovery and construction from data lakes (survey §2.7,
Leva-style inter-table representation reuse, Zhao & Fernandez SIGMOD'22).

Given a labelled seed table, discover lake tables unionable with it, union
their rows in as extra training examples (with label propagation through
the alignment), and measure the downstream classifier gain — the "training
set discovery" application the tutorial highlights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.ml import LogisticRegression, train_test_split
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.search.union_tus import TableUnionSearch


@dataclass
class TrainsetReport:
    seed_accuracy: float = 0.0
    augmented_accuracy: float = 0.0
    tables_used: list[str] = field(default_factory=list)
    rows_added: int = 0


class TrainingSetBuilder:
    """Grow a labelled training set by unioning discovered tables."""

    def __init__(
        self,
        lake: DataLake,
        union_search: TableUnionSearch,
        min_score: float = 0.3,
    ):
        self.lake = lake
        self.union_search = union_search
        self.min_score = min_score

    def discover(self, seed: Table, k: int = 10) -> list[str]:
        """Names of lake tables unionable with the seed table."""
        results = self.union_search.search(seed, k=k)
        return [r.table for r in results if r.score >= self.min_score]

    def union_rows(
        self, seed: Table, table_names: list[str]
    ) -> tuple[list[list[str]], list[str]]:
        """Rows from the discovered tables aligned to the seed's columns.

        Alignment comes from the union search's per-column scores; unmatched
        seed columns are filled with empty cells.
        """
        added_rows: list[list[str]] = []
        used: list[str] = []
        for name in table_names:
            results = self.union_search.search(seed, k=len(table_names) + 5)
            match = next((r for r in results if r.table == name), None)
            if match is None:
                continue
            cand = self.lake.table(name)
            col_map = {qi: cj for qi, cj, _ in match.alignment}
            for r in range(cand.num_rows):
                row = []
                for qi in range(seed.num_cols):
                    cj = col_map.get(qi)
                    row.append(cand.columns[cj].values[r] if cj is not None else "")
                added_rows.append(row)
            used.append(name)
        return added_rows, used

    def evaluate_gain(
        self,
        seed: Table,
        label_fn,
        featurize_fn,
        k: int = 10,
        seed_rng: int = 0,
    ) -> TrainsetReport:
        """Compare classifier accuracy trained on the seed rows alone vs.
        seed + discovered rows.

        ``label_fn(row) -> 0/1`` and ``featurize_fn(row) -> vector`` supply
        the task; held-out test rows always come from the seed table.
        """
        report = TrainsetReport()
        seed_rows = seed.rows()
        x = np.vstack([featurize_fn(r) for r in seed_rows])
        y = np.array([label_fn(r) for r in seed_rows], dtype=float)
        xtr, xte, ytr, yte = train_test_split(x, y, test_fraction=0.4, seed=seed_rng)
        report.seed_accuracy = (
            LogisticRegression().fit(xtr, ytr).accuracy(xte, yte)
        )
        names = self.discover(seed, k=k)
        extra_rows, used = self.union_rows(seed, names)
        report.tables_used = used
        report.rows_added = len(extra_rows)
        if extra_rows:
            xe = np.vstack([featurize_fn(r) for r in extra_rows])
            ye = np.array([label_fn(r) for r in extra_rows], dtype=float)
            xtr2 = np.vstack([xtr, xe])
            ytr2 = np.concatenate([ytr, ye])
            report.augmented_accuracy = (
                LogisticRegression().fit(xtr2, ytr2).accuracy(xte, yte)
            )
        else:
            report.augmented_accuracy = report.seed_accuracy
        return report
