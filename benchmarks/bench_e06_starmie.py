"""E6 — Starmie (Fan et al., VLDB'23), Fig. 7 + Table 4 analogue.

Rows reproduced: (a) retrieval quality (MAP / P@k) of contextual column
embeddings vs. the non-contextual ablation; (b) candidate retrieval by the
exact matrix scan Starmie uses vs. a standalone HNSW graph over the same
column vectors: per-column candidate recall, build and query time.
Expected shape: contextual representation does not lose to plain
value-bag embeddings; at lake sizes of a few hundred columns the exact
scan finds every true candidate, which HNSW does not, at no extra cost.
"""

import time

import numpy as np
import pytest

from repro.bench.harness import ExperimentTable
from repro.bench.metrics import average_precision, precision_at_k
from repro.datalake.table import ColumnRef
from repro.search.union_starmie import StarmieConfig, StarmieUnionSearch
from repro.sketch.hashing import stable_hash64
from repro.sketch.hnsw import HNSW
from repro.understanding.contextual import ContextualColumnEncoder


def _quality(engine, union_corpus, queries, k=5):
    ps, aps = [], []
    for q in queries:
        res = [r.table for r in engine.search(union_corpus.lake.table(q), k=k)]
        ps.append(precision_at_k(res, union_corpus.truth[q], k))
        aps.append(average_precision(res, union_corpus.truth[q]))
    return sum(ps) / len(ps), sum(aps) / len(aps)


@pytest.fixture(scope="module")
def queries(union_corpus):
    return [members[0] for members in union_corpus.groups.values()]


def test_e06_context_ablation(union_corpus, union_space, queries, benchmark):
    plain = StarmieUnionSearch(
        union_corpus.lake,
        ContextualColumnEncoder(union_space, context_weight=0.0),
    ).build()
    contextual = StarmieUnionSearch(
        union_corpus.lake,
        ContextualColumnEncoder(union_space, context_weight=0.3),
    ).build()
    table = ExperimentTable(
        "E6a: contextual vs plain column embeddings (Starmie ablation)",
        ["encoder", "P@5", "MAP"],
    )
    p_plain, map_plain = _quality(plain, union_corpus, queries)
    p_ctx, map_ctx = _quality(contextual, union_corpus, queries)
    table.add_row("plain", p_plain, map_plain)
    table.add_row("contextual", p_ctx, map_ctx)
    table.note("expected shape: contextual >= plain on MAP")
    table.show()
    assert map_ctx >= map_plain - 0.05
    assert p_ctx >= 0.8

    q0 = union_corpus.lake.table(queries[0])
    benchmark.pedantic(lambda: contextual.search(q0, k=5), rounds=5, iterations=1)


def _column_vectors(lake, encoder):
    """The vectors Starmie indexes: every non-numeric, non-zero column."""
    vectors = {}
    for table in lake:
        vecs = encoder.encode_table(table)
        for i, col in enumerate(table.columns):
            if not col.is_numeric and np.linalg.norm(vecs[i]) > 0:
                vectors[ColumnRef(table.name, i)] = vecs[i]
    return vectors


def test_e06_index_ablation(union_corpus, union_space, queries, benchmark):
    """Exact scan vs. a standalone HNSW over the same column vectors:
    per-column candidate recall against the exact top candidates."""
    encoder = ContextualColumnEncoder(union_space, context_weight=0.3)
    c = StarmieConfig().candidates_per_column
    vectors = _column_vectors(union_corpus.lake, encoder)
    refs = sorted(vectors, key=str)

    t0 = time.perf_counter()
    matrix = np.array([vectors[ref] for ref in refs])
    scan_build_ms = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    # The parameters of Starmie's former default HNSW index.
    seed = stable_hash64("starmie") % (2**31)
    hnsw = HNSW(dim=union_space.dim, m=8, metric="cosine", seed=seed)
    for ref in refs:
        hnsw.add(ref, vectors[ref])
    hnsw_build_ms = (time.perf_counter() - t0) * 1000

    by_table = [
        [v for ref, v in vectors.items() if ref.table == name]
        for name in union_corpus.lake.table_names()
    ]
    columns = [v for qvecs in by_table for v in qvecs]
    t0 = time.perf_counter()
    exact = []
    for qvecs in by_table:
        for row_scores in np.array(qvecs) @ matrix.T:
            top = np.argsort(-row_scores, kind="stable")[:c]
            exact.append({refs[j] for j in top})
    scan_ms = (time.perf_counter() - t0) * 1000 / len(by_table)
    t0 = time.perf_counter()
    approx = [{ref for ref, _ in hnsw.search(v, k=c, ef=48)} for v in columns]
    hnsw_ms = (time.perf_counter() - t0) * 1000 / len(by_table)

    # The exact scan's candidates are each column's np.dot top-c.
    for v, got in zip(columns, exact):
        truth = sorted(
            refs, key=lambda ref: (-float(np.dot(v, vectors[ref])), str(ref))
        )[:c]
        assert got == set(truth)
    hnsw_recall = float(
        np.mean([len(a & e) / len(e) for a, e in zip(approx, exact)])
    )
    table = ExperimentTable(
        f"E6b: candidate retrieval, exact scan vs HNSW "
        f"({len(refs)} columns, top {c} per query column)",
        ["retrieval", "candidate_recall", "build_ms", "query_ms"],
    )
    table.add_row("exact scan (Q @ M.T)", 1.0, scan_build_ms, scan_ms)
    table.add_row("hnsw m=8 ef=48", hnsw_recall, hnsw_build_ms, hnsw_ms)
    table.note("expected shape: the exact scan returns every true candidate "
               "and is no slower than HNSW at this lake size")
    table.show()
    assert 0.5 <= hnsw_recall <= 1.0

    engine = StarmieUnionSearch(union_corpus.lake, encoder).build()
    p, _ = _quality(engine, union_corpus, queries)
    assert p >= 0.8
    q0 = union_corpus.lake.table(queries[0])
    benchmark.pedantic(lambda: engine.search(q0, k=5), rounds=5, iterations=1)
