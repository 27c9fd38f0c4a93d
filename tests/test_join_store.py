"""JOSIE exclusion and containment verification over the ``column_sets``
token-set store, checked against brute force."""

from itertools import cycle, islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DiscoveryConfig
from repro.core.engine import QueryRequest
from repro.core.system import STAGES, DiscoverySystem
from repro.datalake.lake import DataLake
from repro.datalake.table import ColumnRef, Table
from repro.search.joinable import ColumnSets
from repro.search.results import ColumnResult
from repro.sketch.minhash import MinHash

ROWS = 6

# Columns of 2..ROWS distinct values (so every column is indexed), cycled
# to ROWS cells.
tables_st = st.lists(
    st.lists(
        st.sets(st.integers(0, 24), min_size=2, max_size=ROWS),
        min_size=1,
        max_size=3,
    ),
    min_size=2,
    max_size=6,
)


def _lake(tables) -> DataLake:
    return DataLake(
        [
            Table.from_dict(
                f"t{t}",
                {
                    f"c{c}": [f"v{x}" for x in islice(cycle(sorted(col)), ROWS)]
                    for c, col in enumerate(cols)
                },
            )
            for t, cols in enumerate(tables)
        ]
    )


def _join_system(lake: DataLake) -> DiscoverySystem:
    """Only the join side (the ``column_sets`` foundation and its engines)."""
    return DiscoverySystem(lake, DiscoveryConfig(enable_embeddings=False)).build(
        skip=set(STAGES) - {"join_index"}
    )


def _indexed(lake: DataLake, sets: ColumnSets):
    """(ref, value set) of every column the store indexes."""
    return [
        (ref, col.value_set())
        for ref, col in lake.iter_text_columns()
        if len(col.value_set()) >= sets.config.min_column_size
    ]


def _ranking(hits) -> list[tuple[str, float]]:
    return [(str(h.ref), h.score) for h in hits]


def test_exclusion_keeps_hits_behind_own_table():
    """Ten identical columns of the query's own table used to fill JOSIE's
    over-fetched top-k, so the other table's hit was dropped."""
    values = [f"x{i}" for i in range(20)]
    a = Table.from_dict("a", {f"c{i}": values for i in range(10)})
    b = Table.from_dict("b", {"c0": values[:10]})
    system = DiscoverySystem(
        DataLake([a, b]), DiscoveryConfig(enable_embeddings=False)
    ).build()
    hits = system.joinable_search(ColumnRef("a", 0), k=1)
    assert _ranking(hits) == [("b[0]", 0.5)]


@given(tables_st, st.data(), st.sampled_from([0.2, 0.5, 0.8, 1.0]))
@settings(max_examples=40, deadline=None)
def test_containment_hits_are_exact(tables, data, threshold):
    """Property: every containment hit scores brute-force |Q ∩ X| / |Q|, at
    least the threshold, and is one of the ensemble's candidates."""
    system = _join_system(_lake(tables))
    columns = _indexed(system.lake, system.engines["josie"].raw)
    ref, q = columns[data.draw(st.integers(0, len(columns) - 1))]
    column = system.lake.column(ref)
    sets = dict(columns)
    engine = system.engines["lshensemble"]
    mh = MinHash.from_values(q, num_perm=engine.raw.num_perm)
    keys = engine.ctx.column_sets.josie.keys
    candidates = {keys[i] for i in engine.raw.query(mh, len(q), threshold)}
    hits, _ = engine.query(QueryRequest(column=column, k=10**6, threshold=threshold))
    for hit in hits:
        assert hit.score == len(q & sets[hit.ref]) / len(q)
        assert hit.score >= threshold
        assert hit.ref in candidates


@given(tables_st, st.data(), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_exact_topk_excluding_table_is_brute_force(tables, data, k):
    """Property: JOSIE's top-k with the query's table excluded equals a
    brute-force top-k over the other tables' columns, ties included."""
    lake = _lake(tables)
    search = ColumnSets(lake)
    columns = _indexed(lake, search)
    ref, q = columns[data.draw(st.integers(0, len(columns) - 1))]
    brute = sorted(
        ColumnResult(other, len(q & values) / len(q))
        for other, values in columns
        if other.table != ref.table and q & values
    )[:k]
    got = search.exact_topk(lake.column(ref), k, exclude_table=ref.table)
    assert _ranking(got) == _ranking(brute)
