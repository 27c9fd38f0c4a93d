"""Correctness checks and brute-force references.

Gated (a failure makes the run incorrect): JOSIE's facade results equal
``JoinableSearch.exact_topk`` and a brute-force overlap ranking, and a
snapshot-reloaded system returns the live system's hits (:func:`same_hits`).
Reported only: PEXESO against ``exact_fuzzy_join_fraction`` and MATE
against a naive composite-key join (both approximate or unverified today).
"""

from __future__ import annotations

from repro.datalake.table import ColumnRef
from repro.search.pexeso import exact_fuzzy_join_fraction
from repro.search.results import ColumnResult

#: Subjects sampled per reference check.
SAMPLE = 10


def ranking(hits) -> list[tuple[str, float]]:
    """Comparable form of a hit list: identity and score (a correlation
    for QCR hits), in rank order."""
    return [
        (
            str(getattr(h, "table", None) or h.ref),
            round(float(getattr(h, "score", None) or h.correlation), 9),
        )
        for h in hits
    ]


def josie_reference(system, ref: ColumnRef, k: int) -> list[ColumnResult]:
    """Exact top-k by overlap over every indexed text column."""
    search = system.engines["josie"].raw
    q = system.lake.column(ref).value_set()
    out = []
    for other, col in system.lake.iter_text_columns():
        values = col.value_set()
        if other.table == ref.table or len(values) < search.config.min_column_size:
            continue
        overlap = len(q & values)
        if overlap:
            out.append(ColumnResult(other, overlap / max(len(q), 1)))
    return sorted(out)[:k]


def pexeso_reference(system, ref: ColumnRef, k: int) -> list[ColumnResult]:
    """Exact top-k fuzzy-joinable columns (brute-force cosine matching)."""
    index = system.engines["pexeso"].raw
    cfg = index.config
    q = system.lake.column(ref).value_set()
    out = []
    for other, col in system.lake.iter_text_columns():
        if other.table == ref.table:
            continue
        frac = exact_fuzzy_join_fraction(
            index.space, q, col.value_set(), cfg.tau, cap=cfg.max_values_per_column
        )
        if frac >= cfg.sigma:
            out.append(ColumnResult(other, frac))
    return sorted(out)[:k]


def mate_reference(system, table, key_columns: list[int], k: int) -> list[tuple[str, float]]:
    """Naive composite-key join: per candidate table, the fraction of
    distinct query keys whose cells all occur in one of its rows (text
    cells, stripped and lower-cased, as MATE normalizes them)."""
    keys = set()
    for i in range(table.num_rows):
        cells = tuple(table.columns[c].values[i].strip().lower() for c in key_columns)
        if all(cells):
            keys.add(cells)
    if not keys:
        return []
    scored = []
    for cand in system.lake:
        if cand.name == table.name:
            continue
        rows_of: dict[str, set[int]] = {}
        for _, col in cand.text_columns():
            for row, value in enumerate(col.values):
                cell = value.strip().lower()
                if cell:
                    rows_of.setdefault(cell, set()).add(row)
        matched = 0
        for cells in keys:
            rows = rows_of.get(cells[0], set())
            for cell in cells[1:]:
                rows = rows & rows_of.get(cell, set())
            matched += bool(rows)
        if matched:
            scored.append((cand.name, matched / len(keys)))
    scored.sort(key=lambda ts: (-ts[1], ts[0]))
    return [(t, round(s, 9)) for t, s in scored[:k]]


def _subjects(lake) -> list[ColumnRef]:
    names = lake.lake.table_names()
    step = max(1, len(names) // SAMPLE)
    return [ColumnRef(n, 0) for n in names[::step][:SAMPLE]]


def josie_check(system, lake, k: int) -> tuple[bool, float]:
    """(facade equals exact_topk on every sample, share of samples whose
    facade ranking equals the brute-force one)."""
    search = system.engines["josie"].raw
    same_exact = agree = 0
    subjects = _subjects(lake)
    for ref in subjects:
        got = ranking(system.joinable_search(ref, k=k))
        exact = ranking(
            search.exact_topk(system.lake.column(ref), k, exclude_table=ref.table)
        )
        same_exact += got == exact
        agree += got == ranking(josie_reference(system, ref, k))
    return same_exact == len(subjects) and agree == len(subjects), agree / len(subjects)


def pexeso_agreement(system, lake, k: int) -> float:
    """Share of sampled columns whose PEXESO top-k equals the exact one
    (0 when PEXESO is not built on this workload)."""
    if not system.engines["pexeso"].is_built():
        return 0.0
    subjects = _subjects(lake)
    agree = sum(
        ranking(system.fuzzy_joinable_search(ref, k=k))
        == ranking(pexeso_reference(system, ref, k))
        for ref in subjects
    )
    return agree / len(subjects)


def mate_agreement(system, lake, k: int, sample: int = 3) -> float:
    """Share of sampled tables whose MATE top-k (key = column 0) equals the
    naive key join's."""
    subjects = _subjects(lake)[:sample]
    agree = 0
    for ref in subjects:
        table = system.lake.table(ref.table)
        got = [
            (h.table, round(h.score, 9))
            for h in system.multi_attribute_search(table, [0], k=k)
        ]
        agree += got == mate_reference(system, table, [0], k)
    return agree / len(subjects)


def sample_hits(system, lake, subjects: int = 3) -> list:
    """Hits of the first ``subjects`` rounds, to compare a snapshot-reloaded
    system with the live one."""
    return [query.run(system) for round_ in lake.rounds[:subjects] for query in round_]


def same_hits(a: list, b: list) -> bool:
    """Whether two :func:`sample_hits` results hold the same hits with the
    same scores to nine digits.

    Not bit-for-bit: TUS sums floats in set-iteration order, so a reloaded
    index can differ from the live one in the last bit of a score, which
    can also swap two tied hits."""
    def canonical(hits):
        return sorted(ranking(hits), key=lambda r: (-r[1], r[0]))

    return len(a) == len(b) and all(canonical(x) == canonical(y) for x, y in zip(a, b))
