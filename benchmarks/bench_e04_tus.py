"""E4 — Table Union Search (Nargesian et al., VLDB'18), Fig. 5 analogue.

Rows reproduced: precision@k and recall@k of the four attribute-unionability
measures (set / sem / NL / ensemble) on a union benchmark with partial value
overlap and a partially-covering ontology.  Expected shape: semantic
measures beat pure set overlap when value overlap is low; the ensemble is
at least as good as every single measure.
"""

import pytest

from repro.bench.harness import ExperimentTable
from repro.bench.metrics import precision_at_k, recall_at_k
from repro.datalake.ontology import subsample_ontology
from repro.search.union_tus import MEASURES, TableUnionSearch


@pytest.fixture(scope="module")
def tus_engine(union_corpus, union_space):
    onto = subsample_ontology(union_corpus.ontology, coverage=0.6, seed=1)
    return TableUnionSearch(
        union_corpus.lake,
        ontology=onto,
        space=union_space,
    ).build()


def test_e04_measures(union_corpus, tus_engine, benchmark):
    queries = [members[0] for members in union_corpus.groups.values()]
    k = 5
    table = ExperimentTable(
        "E4: attribute unionability measures (TUS)",
        ["measure", f"P@{k}", f"R@{k}"],
    )
    scores = {}
    for measure in MEASURES:
        ps, rs = [], []
        for q in queries:
            res = tus_engine.search(
                union_corpus.lake.table(q), k=k, measure=measure
            )
            got = [r.table for r in res]
            ps.append(precision_at_k(got, union_corpus.truth[q], k))
            rs.append(recall_at_k(got, union_corpus.truth[q], k))
        p = sum(ps) / len(ps)
        r = sum(rs) / len(rs)
        table.add_row(measure, p, r)
        scores[measure] = p
    table.note("expected shape: sem/nl >= set under partial overlap; "
               "ensemble >= each component")
    table.show()

    assert scores["ensemble"] >= max(scores["set"], scores["sem"], scores["nl"]) - 0.05
    assert max(scores["sem"], scores["nl"]) >= scores["set"] - 0.05
    assert scores["ensemble"] >= 0.8

    q0 = union_corpus.lake.table(queries[0])
    benchmark.pedantic(
        lambda: tus_engine.search(q0, k=5, measure="ensemble"),
        rounds=3,
        iterations=1,
    )
