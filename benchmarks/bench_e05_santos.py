"""E5 — SANTOS (Khatiwada et al., SIGMOD'23), Table 5 analogue.

Rows reproduced: P@k and MAP of relationship-aware union search vs. the
column-only baseline, on a corpus with confounder tables that share column
domains but break the row-level relationship.  Expected shape: SANTOS'
precision far exceeds the column-only baseline, which cannot separate
confounders from true positives.
"""

import pytest

from repro.bench.harness import ExperimentTable
from repro.bench.metrics import average_precision, precision_at_k
from repro.datalake.generate import make_relationship_corpus
from repro.search.union_santos import (
    ColumnOnlySantosBaseline,
    SantosUnionSearch,
)


@pytest.fixture(scope="module")
def corpus():
    return make_relationship_corpus(
        n_queries=5, positives_per_query=6, confounders_per_query=6, seed=42
    )


def test_e05_relationship_vs_column_only(corpus, benchmark):
    santos = SantosUnionSearch(corpus.ontology).build(corpus.lake)
    baseline = ColumnOnlySantosBaseline(corpus.ontology).build(corpus.lake)

    table = ExperimentTable(
        "E5: relationship-aware union search (SANTOS vs column-only)",
        ["method", "P@3", "P@6", "MAP"],
    )
    summary = {}
    for name, engine in [("santos", santos), ("column-only", baseline)]:
        p3s, p6s, aps = [], [], []
        for q, truth in sorted(corpus.truth.items()):
            res = [r.table for r in engine.search(corpus.lake.table(q), k=12)]
            p3s.append(precision_at_k(res, truth, 3))
            p6s.append(precision_at_k(res, truth, 6))
            aps.append(average_precision(res, truth))
        row = (
            sum(p3s) / len(p3s),
            sum(p6s) / len(p6s),
            sum(aps) / len(aps),
        )
        table.add_row(name, *row)
        summary[name] = row
    table.note("expected shape: santos >> column-only on P@6 and MAP "
               "(confounders share domains, not relationships)")
    table.show()

    assert summary["santos"][1] >= summary["column-only"][1] + 0.2
    assert summary["santos"][2] >= 0.8

    q0 = corpus.lake.table(sorted(corpus.truth)[0])
    benchmark.pedantic(lambda: santos.search(q0, k=6), rounds=5, iterations=1)
