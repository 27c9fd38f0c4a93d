"""E19 — PEXESO (Dong et al., ICDE'21) analogue.

Rows reproduced: recall of fuzzy (embedding) join search vs. exact
equi-join containment on same-domain columns with little raw value overlap.
Expected shape: fuzzy matching recovers same-domain joinable columns whose
exact containment is near zero, and the exact index retrieves every one.
"""

import pytest

from repro.bench.harness import ExperimentTable
from repro.datalake.table import ColumnRef
from repro.search.pexeso import (
    PexesoConfig,
    PexesoIndex,
    exact_fuzzy_join_fraction,
)
from repro.sketch.minhash import exact_containment


@pytest.fixture(scope="module")
def pexeso(union_corpus, union_space):
    return PexesoIndex(
        union_space, PexesoConfig(tau=0.7, sigma=0.4)
    ).build(union_corpus.lake)


def test_e19_fuzzy_vs_exact(union_corpus, union_space, pexeso, benchmark):
    onto = union_corpus.ontology
    table = ExperimentTable(
        "E19: fuzzy join (PEXESO) vs exact equi-join containment",
        ["query", "exact_containment", "fuzzy_fraction", "found_by_pexeso"],
    )
    wins = 0
    n_rows = 0
    for g in range(4):
        qname, cname = union_corpus.groups[g][0], union_corpus.groups[g][1]
        qtable = union_corpus.lake.table(qname)
        qcol = qtable.columns[0]
        q_cls = onto.annotate_column(qcol.non_null_values())
        cand_table = union_corpus.lake.table(cname)
        target = None
        for ci, ccol in cand_table.text_columns():
            if onto.annotate_column(ccol.non_null_values()) == q_cls:
                target = (ci, ccol)
                break
        if target is None:
            continue
        ci, ccol = target
        qset, cset = set(qcol.value_set()), set(ccol.value_set())
        exact = exact_containment(qset, cset)
        fuzzy = exact_fuzzy_join_fraction(union_space, qset, cset, tau=0.7)
        hits = pexeso.search(qcol, k=10, exclude_table=qname)
        found = any(
            r.ref == ColumnRef(cname, ci) or r.ref.table == cname
            for r in hits
        )
        table.add_row(f"{qname}[0]", exact, fuzzy, str(found))
        n_rows += 1
        if fuzzy > exact and found:
            wins += 1
    table.note("expected shape: fuzzy >> exact on same-domain, low-overlap "
               "columns; pexeso retrieves them")
    table.show()

    assert n_rows >= 3
    assert wins >= n_rows - 1

    qcol = union_corpus.lake.table(union_corpus.groups[0][0]).columns[0]
    benchmark.pedantic(
        lambda: pexeso.search(qcol, k=5), rounds=5, iterations=1
    )
