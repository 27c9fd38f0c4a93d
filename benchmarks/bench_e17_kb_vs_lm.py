"""E17 — the KB-precision vs. LM-recall trade-off (tutorial §3).

The tutorial calls out that KBs give high precision with low coverage while
learned representations give high recall at some precision cost, and that
this trade-off "has not been formally studied for data discovery systems".
This experiment studies it on the union-search task: P@k / R@k of the
ontology (sem) measure as KB coverage varies, against the fixed embedding
(nl) measure.  Expected shape: sem quality degrades monotonically-ish as
coverage drops, crossing below nl at low coverage; the ensemble dominates
both ends.
"""


from repro.bench.harness import ExperimentTable
from repro.bench.metrics import precision_at_k
from repro.datalake.ontology import subsample_ontology
from repro.search.union_tus import TableUnionSearch


def _quality(engine, union_corpus, queries, measure, k=5):
    ps = []
    for q in queries:
        res = engine.search(union_corpus.lake.table(q), k=k, measure=measure)
        ps.append(
            precision_at_k([r.table for r in res], union_corpus.truth[q], k)
        )
    return sum(ps) / len(ps)


def test_e17_coverage_sweep(union_corpus, union_space, benchmark):
    queries = [members[0] for members in union_corpus.groups.values()]
    table = ExperimentTable(
        "E17: KB coverage vs embedding measure (union search P@5)",
        ["kb_coverage", "sem_P@5", "nl_P@5", "ensemble_P@5"],
    )
    sem_by_cov = {}
    ens_by_cov = {}
    nl_fixed = None
    for coverage in (0.1, 0.3, 0.6, 1.0):
        # Class-granularity subsampling: whole lake domains are unknown to
        # the KB — the realistic failure mode for lake-specific vocabulary.
        onto = subsample_ontology(
            union_corpus.ontology, coverage=coverage, seed=5,
            granularity="class",
        )
        engine = TableUnionSearch(ontology=onto, space=union_space).build(
            union_corpus.lake
        )
        sem = _quality(engine, union_corpus, queries, "sem")
        nl = _quality(engine, union_corpus, queries, "nl")
        ens = _quality(engine, union_corpus, queries, "ensemble")
        table.add_row(coverage, sem, nl, ens)
        sem_by_cov[coverage] = sem
        ens_by_cov[coverage] = ens
        nl_fixed = nl
    table.note("expected shape: sem falls with coverage and drops below nl; "
               "ensemble stays at the max of both")
    table.show()

    assert sem_by_cov[1.0] >= sem_by_cov[0.1]
    assert sem_by_cov[0.1] < nl_fixed, "low-coverage KB should lose to LM"
    assert sem_by_cov[1.0] >= nl_fixed - 0.05, "full KB should rival LM"
    for cov, ens in ens_by_cov.items():
        assert ens >= max(sem_by_cov[cov], nl_fixed) - 0.1

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
