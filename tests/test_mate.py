"""Tests for MATE multi-attribute join search."""

import functools
import json
import os
import pickle
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.config import DiscoveryConfig
from repro.core.system import STAGES, DiscoverySystem
from repro.datalake.generate import make_composite_key_corpus, make_join_corpus
from repro.datalake.lake import DataLake
from repro.datalake.table import Column, Table, cell_key
from repro.search.explain import ExplainReport
from repro.search.mate import MateIndex, row_super_key
from repro.sketch.inverted import InvertedIndex


@pytest.fixture(scope="module")
def mate_corpus():
    return make_composite_key_corpus(n_candidates=18, n_rows=120, seed=5)


@pytest.fixture(scope="module")
def mate(mate_corpus):
    idx = MateIndex()
    idx.index_lake(mate_corpus.lake)
    return idx


class TestSuperKey:
    def test_superset_property(self):
        """A row's super key covers the mask of any subset of its cells."""
        cells = ["a", "b", "c"]
        full = row_super_key(cells)
        sub = row_super_key(["a", "c"])
        assert (full & sub) == sub

    def test_empty_cells_ignored(self):
        assert row_super_key(["", "  "]) == 0

    def test_deterministic(self):
        assert row_super_key(["x", "y"]) == row_super_key(["x", "y"])


class TestSearch:
    def test_ranking_matches_truth(self, mate_corpus, mate):
        res = mate.search(
            mate_corpus.lake.table(mate_corpus.query_table),
            list(mate_corpus.key_columns),
            k=6,
        )
        for hit in res:
            assert hit.score == pytest.approx(
                mate_corpus.truth[hit.table], abs=1e-9
            )
        scores = [h.score for h in res]
        assert scores == sorted(scores, reverse=True)

    def test_single_column_overlap_not_sufficient(self, mate_corpus, mate):
        """Candidates sharing individual values but no pairs score low."""
        res = mate.search(
            mate_corpus.lake.table(mate_corpus.query_table),
            list(mate_corpus.key_columns),
            k=len(mate_corpus.truth),
        )
        got = {h.table: h.score for h in res}
        for name, true_frac in mate_corpus.truth.items():
            if true_frac == 0.0:
                assert got.get(name, 0.0) == 0.0

    def test_query_table_excluded(self, mate_corpus, mate):
        res = mate.search(
            mate_corpus.lake.table(mate_corpus.query_table),
            list(mate_corpus.key_columns),
            k=30,
        )
        assert all(h.table != mate_corpus.query_table for h in res)

    def test_empty_key_columns(self, mate_corpus, mate):
        empty = Table("empty_q", [Column("a", ["", ""]), Column("b", ["", ""])])
        assert mate.search(empty, [0, 1]) == []

    def test_filter_prunes_rows(self, mate_corpus, mate):
        stats = mate.filter_stats(
            mate_corpus.lake.table(mate_corpus.query_table),
            list(mate_corpus.key_columns),
        )
        assert stats["rows_passed_filter"] < stats["rows_checked"]


class TestHitOrdering:
    def test_hit_comparison(self):
        from repro.search.mate import MateHit

        a = MateHit("a", 5, 10)
        b = MateHit("b", 3, 10)
        assert a < b
        assert MateHit("x", 0, 0).score == 0.0


def naive_key_join(lake, table, key_columns, k, exclude=None):
    """Brute-force composite-key join: per candidate table, the fraction of
    distinct query keys whose cells all occur in one of its rows (text
    cells keyed by ``cell_key``, nulls dropped), as ``(table, score)`` best
    first."""
    keys = set()
    for i in range(table.num_rows):
        cells = tuple(cell_key(table.columns[c].values[i]) for c in key_columns)
        if all(cells):
            keys.add(cells)
    if not keys:
        return []
    scored = []
    for cand in lake:
        if cand.name == (exclude or table.name):
            continue
        rows_of: dict[str, set[int]] = {}
        for _, col in cand.text_columns():
            for row, value in enumerate(col.values):
                cell = cell_key(value)
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


def mate_topk(index, table, key_columns, k, exclude=None):
    hits = index.search(table, key_columns, k=k, exclude=exclude)
    return [(h.table, round(h.score, 9)) for h in hits]


def _indexed(lake):
    index = MateIndex()
    index.index_lake(lake)
    return index


#: Cells that collide only after normalization, plus blank ones.
_CELLS = st.sampled_from(["a", "A", " a ", "b", "B ", "c", "7", "", "  "])


@st.composite
def _hand_built(draw):
    """A small lake of hand-built tables, a query table from it, key
    columns (possibly repeating one column), and an optional ``exclude``."""
    tables = []
    for t in range(draw(st.integers(2, 5))):
        n_rows = draw(st.integers(0, 6))
        cols = [
            Column(f"c{j}", draw(st.lists(_CELLS, min_size=n_rows, max_size=n_rows)))
            for j in range(draw(st.integers(1, 3)))
        ]
        tables.append(Table(f"t{t}", cols))
    query = draw(st.sampled_from(tables))
    keys = draw(
        st.lists(st.integers(0, query.num_cols - 1), min_size=1, max_size=2)
    )
    exclude = draw(st.none() | st.sampled_from([t.name for t in tables]))
    return DataLake(tables), query, keys, exclude


class TestExactness:
    """MATE's top-k equals a naive composite-key join."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12))
    def test_single_column_keys_on_join_corpus(self, seed, k):
        corpus = make_join_corpus(n_tables=16, n_queries=2, base_size=60, seed=seed)
        index = _indexed(corpus.lake)
        for table in list(corpus.lake)[::3]:
            assert mate_topk(index, table, [0], k) == naive_key_join(
                corpus.lake, table, [0], k
            ), table.name

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12))
    def test_two_column_keys_on_composite_corpus(self, seed, k):
        corpus = make_composite_key_corpus(n_candidates=8, n_rows=40, seed=seed)
        index = _indexed(corpus.lake)
        keys = list(corpus.key_columns)
        for table in corpus.lake:
            assert mate_topk(index, table, keys, k) == naive_key_join(
                corpus.lake, table, keys, k
            ), table.name

    @settings(max_examples=150, deadline=None)
    @given(case=_hand_built(), k=st.integers(1, 6))
    def test_hand_built_tables(self, case, k):
        lake, query, keys, exclude = case
        index = _indexed(lake)
        assert mate_topk(index, query, keys, k, exclude) == naive_key_join(
            lake, query, keys, k, exclude
        )


class RowSets:
    """MATE's probe recomputed from each row's cell set, as a reference.

    Per distinct key, the rows checked are those holding its rarest cell
    (fewest rows; ties go to the cell seen first in the lake, row by row
    and column by column, as the probe breaks them); of those, the rows
    whose super key covers the key pass the filter, and each table with a
    row holding every cell of the key is credited once.
    """

    def __init__(self, lake):
        self.names, self.rows, self.first_seen = [], [], {}
        for t, table in enumerate(lake):
            self.names.append(table.name)
            cols = [c.values for _, c in table.text_columns()]
            for values in zip(*cols) if cols else [()] * table.num_rows:
                cells = [c for c in map(cell_key, values) if c]
                for cell in cells:
                    self.first_seen.setdefault(cell, len(self.first_seen))
                self.rows.append((t, set(cells)))
        self.super_keys = [row_super_key(cells) for _, cells in self.rows]
        self.rows_of = defaultdict(list)
        for r, (_, cells) in enumerate(self.rows):
            for cell in cells:
                self.rows_of[cell].append(r)

    def probe(self, query, key_columns, k, exclude=None):
        """``[(table, matched, total)]`` best first, and the funnel counts
        (none when the query has no usable key, as EXPLAIN reports)."""
        rows, rows_of = self.rows, self.rows_of
        keys = set()
        for i in range(query.num_rows):
            key = tuple(cell_key(query.columns[c].values[i]) for c in key_columns)
            if all(key):
                keys.add(key)
        if not keys:
            return [], {}
        matched, checked, passed = Counter(), 0, 0
        for key in keys:
            cells = set(key)
            if any(cell not in rows_of for cell in cells):
                continue
            rarest = min(cells, key=lambda c: (len(rows_of[c]), self.first_seen[c]))
            mask = row_super_key(key)
            checked += len(rows_of[rarest])
            passed += sum(self.super_keys[r] & mask == mask for r in rows_of[rarest])
            for t in {rows[r][0] for r in rows_of[rarest] if cells <= rows[r][1]}:
                matched[self.names[t]] += 1
        matched.pop(exclude or query.name, None)
        hits = sorted(matched.items(), key=lambda tm: (-tm[1], tm[0]))
        counts = {
            "rows_checked": checked,
            "rows_passed_filter": passed,
            "keys_matched": sum(matched.values()),
            "tables_matched": len(matched),
        }
        return [(t, m, len(keys)) for t, m in hits[:k]], counts


class TestPostingSideOnly:
    """The index keeps only the cell store's posting side after the build."""

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_hits_and_counts_match_row_sets_on_join_lake(self, seed):
        corpus = make_join_corpus(n_tables=120, n_queries=10, base_size=1500, seed=seed)
        index, reference = _indexed(corpus.lake), RowSets(corpus.lake)
        tables = [corpus.lake.table(q.column.table) for q in corpus.queries]
        tables += list(corpus.lake)[::12]
        for table in tables:
            for keys in ([0], [0, 1])[: table.num_cols]:
                report = ExplainReport("mate")
                hits = index.search(table, keys, k=10, report=report)
                want_hits, want_counts = reference.probe(table, keys, 10)
                assert [(h.table, h.matched, h.total) for h in hits] == want_hits
                counts = report.counts()
                assert {name: counts[name] for name in want_counts} == want_counts

    def test_pickled_index_holds_no_forward_rows(self, mate_corpus, mate):
        loaded = pickle.loads(pickle.dumps(mate))
        attrs = vars(loaded)
        assert not any(isinstance(v, InvertedIndex) for v in attrs.values())
        assert not {"cells", "set_offsets", "set_tokens"} & set(attrs)
        query = mate_corpus.lake.table(mate_corpus.query_table)
        keys = list(mate_corpus.key_columns)
        assert loaded.search(query, keys) == mate.search(query, keys)


class TestArrayProbe:
    """The array-pass probe against the per-row reference, funnel included."""

    @settings(max_examples=150, deadline=None)
    @given(case=_hand_built(), k=st.integers(1, 6))
    def test_hits_and_counts_match_row_sets_on_hand_built_tables(self, case, k):
        lake, query, keys, exclude = case
        report = ExplainReport("mate")
        hits = _indexed(lake).search(query, keys, k, exclude, report=report)
        want_hits, want_counts = RowSets(lake).probe(query, keys, k, exclude)
        assert [(h.table, h.matched, h.total) for h in hits] == want_hits
        counts = report.counts()
        assert {name: counts[name] for name in want_counts} == want_counts

    def test_filter_counts_do_not_depend_on_string_hashing(self):
        """Cell ids, and so the rarest-cell tie break, are first-seen order."""
        script = (
            "import json\n"
            "from repro.datalake.generate import make_composite_key_corpus\n"
            "from repro.search.mate import MateIndex\n"
            "c = make_composite_key_corpus(n_candidates=24, n_rows=150, seed=42)\n"
            "m = MateIndex()\n"
            "m.index_lake(c.lake)\n"
            "q = c.lake.table(c.query_table)\n"
            "print(json.dumps(m.filter_stats(q, list(c.key_columns))))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        runs = []
        for hash_seed in ("1", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            runs.append(json.loads(out.stdout))
        assert runs[0] == runs[1]


@functools.lru_cache(maxsize=4)
def _mate_system(kind, seed):
    """A small lake built with MATE's stage only."""
    if kind == "join":
        lake = make_join_corpus(n_tables=12, n_queries=2, base_size=40, seed=seed).lake
    else:
        lake = make_composite_key_corpus(n_candidates=6, n_rows=30, seed=seed).lake
    return DiscoverySystem(lake, DiscoveryConfig(enable_embeddings=False)).build(
        skip=set(STAGES) - {"mate_index"}
    )


class TestFacadeProperty:
    """``DiscoverySystem.multi_attribute_search`` on small generated lakes."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["join", "composite"]),
        seed=st.sampled_from([3, 7]),
        pick=st.integers(0, 10_000),
        width=st.integers(1, 2),
        k=st.integers(1, 8),
    )
    def test_hits_bounded_sorted_exclusive_and_exact(self, kind, seed, pick, width, k):
        system = _mate_system(kind, seed)
        tables = list(system.lake)
        table = tables[pick % len(tables)]
        keys = list(range(min(width, table.num_cols)))
        hits = system.multi_attribute_search(table, keys, k=k)
        assert len(hits) <= k
        assert hits == sorted(hits)
        assert all(h.table != table.name for h in hits)
        assert [(h.table, round(h.score, 9)) for h in hits] == naive_key_join(
            system.lake, table, keys, k
        )
