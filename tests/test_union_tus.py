"""Tests for TUS-style table union search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DiscoveryConfig
from repro.core.errors import LakeError
from repro.core.system import DiscoverySystem
from repro.datalake.generate import make_union_corpus
from repro.datalake.ontology import subsample_ontology
from repro.datalake.lake import DataLake
from repro.datalake.table import Column, ColumnRef, Table
from repro.search.aggregate import table_unionability
from repro.search.explain import ExplainReport
from repro.search.joinable import ColumnSets, JoinSearchConfig
from repro.search.results import TableResult
from repro.search.union_tus import MEASURES, TableUnionSearch, TusConfig
from repro.sketch.lsh import optimal_bands
from repro.sketch.minhash import MinHash
from repro.understanding.embedding import train_embeddings


@pytest.fixture(scope="module")
def tus(union_corpus, union_space):
    return TableUnionSearch(
        union_corpus.lake,
        ontology=union_corpus.ontology,
        space=union_space,
    ).build()


def _copy_table(table, name=None):
    """An equal table outside the index, optionally renamed."""
    columns = [Column(c.name, list(c.values)) for c in table.columns]
    return Table(name or table.name, columns, table.metadata)


def column_score(tus, column, ref, measure=None):
    """One query column's attribute unionability with one indexed column."""
    scores, _ = tus.column_scores([column], measure)
    return scores[0, tus.refs.index(ref)]


# -- brute-force reference: per-pair attribute unionability --------------------


class PairwiseTus:
    """TUS scored one (query column, lake column) pair at a time, each
    measure straight from its definition, over every indexed column."""

    def __init__(self, lake, ontology=None, space=None, num_perm=128):
        self.lake, self.ontology, self.space = lake, ontology, space
        self.num_perm = num_perm
        self.columns = {
            ref: col
            for ref, col in lake.iter_text_columns()
            if len(col.value_set()) >= JoinSearchConfig().min_column_size
        }

    def minhash(self, column):
        return MinHash.from_values(column.value_set(), num_perm=self.num_perm)

    def class_vector(self, column):
        counts = {}
        for v in column.value_set():
            for cls in self.ontology.classes_of(v, with_ancestors=False):
                counts[cls] = counts.get(cls, 0.0) + 1.0
        total = sum(counts.values())
        return {c: n / total for c, n in counts.items()} if total else {}

    def set_score(self, a, b):
        return self.minhash(a).jaccard(self.minhash(b))

    def sem_score(self, a, b):
        if self.ontology is None:
            return 0.0
        va, vb = self.class_vector(a), self.class_vector(b)
        if not va or not vb:
            return 0.0
        dot = sum(va.get(c, 0.0) * vb.get(c, 0.0) for c in set(va) | set(vb))
        na = sum(x * x for x in va.values()) ** 0.5
        nb = sum(x * x for x in vb.values()) ** 0.5
        return dot / (na * nb)

    def nl_score(self, a, b):
        if self.space is None:
            return 0.0
        va = self.space.embed_set(a.value_set())
        vb = self.space.embed_set(b.value_set())
        return max(0.0, float(np.dot(va, vb)))

    def score(self, a, b, measure):
        parts = {
            "set": self.set_score,
            "sem": self.sem_score,
            "nl": self.nl_score,
        }
        if measure != "ensemble":
            return parts[measure](a, b)
        return max(f(a, b) for f in parts.values())

    def candidates(self, query):
        """Tables with a column sharing a MinHash slot with a query column."""
        qsigs = [
            self.minhash(c).hashvalues for c in query.columns if not c.is_numeric
        ]
        return {
            ref.table
            for ref, col in self.columns.items()
            if any(np.any(q == self.minhash(col).hashvalues) for q in qsigs)
        } - {query.name}

    def search(self, query, k, measure):
        qcols = [c for c in query.columns if not c.is_numeric]
        results = []
        for name in sorted(self.candidates(query)):
            refs = [ref for ref in self.columns if ref.table == name]
            scores = np.array(
                [[self.score(q, self.columns[r], measure) for r in refs] for q in qcols]
            )
            total, pairs = table_unionability(scores)
            if total > 0:
                alignment = tuple((i, refs[j].index, s) for i, j, s in pairs)
                results.append(TableResult(name, total, alignment))
        return sorted(results)[:k]


class TestLifecycle:
    def test_unknown_measure_rejected(self, union_corpus):
        with pytest.raises(ValueError):
            TableUnionSearch(
                union_corpus.lake, config=TusConfig(measure="bogus")
            )

    def test_unknown_search_measure_rejected(self, union_corpus, tus):
        with pytest.raises(ValueError):
            tus.search(next(iter(union_corpus.lake)), measure="bogus")

    def test_search_before_build_rejected(self, union_corpus):
        t = TableUnionSearch(union_corpus.lake)
        with pytest.raises(RuntimeError):
            t.search(next(iter(union_corpus.lake)))


class TestRetrieval:
    @pytest.mark.parametrize("measure", ["set", "sem", "nl", "ensemble"])
    def test_group_members_rank_top(self, union_corpus, tus, measure):
        qname = union_corpus.groups[0][0]
        res = tus.search(union_corpus.lake.table(qname), k=3, measure=measure)
        got = {r.table for r in res}
        truth = union_corpus.truth[qname]
        assert len(got & truth) >= 2, measure

    def test_scores_in_unit_range(self, union_corpus, tus):
        qname = union_corpus.groups[1][0]
        for r in tus.search(union_corpus.lake.table(qname), k=10):
            assert 0.0 <= r.score <= 1.0 + 1e-9

    def test_alignment_reported(self, union_corpus, tus):
        qname = union_corpus.groups[0][0]
        res = tus.search(union_corpus.lake.table(qname), k=1)
        assert res[0].alignment
        # Alignment pairs reference valid column indices.
        cand = union_corpus.lake.table(res[0].table)
        for qi, cj, s in res[0].alignment:
            assert 0 <= cj < cand.num_cols
            assert s > 0


@st.composite
def _lakes(draw):
    corpus = make_union_corpus(
        n_groups=draw(st.integers(2, 3)),
        tables_per_group=draw(st.integers(2, 3)),
        cols_per_table=draw(st.integers(2, 4)),
        rows_per_table=draw(st.integers(8, 24)),
        value_overlap=draw(st.sampled_from([0.0, 0.1, 0.3])),
        seed=draw(st.integers(0, 10_000)),
    )
    partial = subsample_ontology(corpus.ontology, 0.5, seed=3)
    ontology = draw(st.sampled_from([None, corpus.ontology, partial]))
    space = (
        train_embeddings(corpus.lake, dim=8, min_count=1, seed=1)
        if draw(st.booleans())
        else None
    )
    return corpus.lake, ontology, space


class TestExactness:
    """The matrix pass equals per-pair scoring over the candidate tables."""

    @pytest.mark.parametrize("num_perm", [8, 128, 205])
    def test_slot_rule_is_the_lsh_collision_rule(self, num_perm):
        """At threshold 0.05 the optimal banding has one slot per band, so
        an LSH collision is exactly one shared MinHash slot."""
        assert optimal_bands(num_perm, 0.05) == (num_perm, 1)

    @settings(max_examples=25, deadline=None)
    @given(case=_lakes(), k=st.integers(1, 10))
    def test_matches_pairwise_reference(self, case, k):
        lake, ontology, space = case
        tus = TableUnionSearch(lake, ontology=ontology, space=space).build()
        reference = PairwiseTus(lake, ontology, space)
        for query in lake:
            candidates = reference.candidates(query)
            _, shares_slot = tus.column_scores(
                [c for c in query.columns if not c.is_numeric]
            )
            sharing = {tus.refs[j].table for j in np.flatnonzero(shares_slot)}
            assert sharing - {query.name} == candidates
            for measure, by_ref in itertools.product(MEASURES, (False, True)):
                report = ExplainReport("tus")
                got = tus.search(
                    query, k=k, measure=measure, report=report, by_ref=by_ref
                )
                assert report.params["by_ref"] == (by_ref and query.name in tus._slices)
                want = reference.search(query, k, measure)
                assert [h.table for h in got] == [h.table for h in want]
                for g, w in zip(got, want):
                    assert g.score == pytest.approx(w.score, abs=1e-9)
                    assert [(i, j) for i, j, _ in g.alignment] == [
                        (i, j) for i, j, _ in w.alignment
                    ]
                    for (_, _, gs), (_, _, ws) in zip(g.alignment, w.alignment):
                        assert gs == pytest.approx(ws, abs=1e-9)
                assert report.counts()["candidates"] == len(candidates)

    def test_slot_counts_beyond_uint8(self, union_corpus):
        """At 300 permutations a slot count needs more than a byte.  A twin
        table agrees with its original on every slot, and the stored
        counts (by reference) and the compared ones (by copy) both say so."""
        first = next(iter(union_corpus.lake))
        lake = DataLake(list(union_corpus.lake) + [_copy_table(first, "twin")])
        sets = ColumnSets(lake, JoinSearchConfig(num_perm=300))
        tus = TableUnionSearch(lake, config=TusConfig(measure="set")).build(sets)
        assert tus._agree.dtype == np.uint16
        assert tus.stats()["agreement_bytes"] == 2 * len(tus.refs) ** 2
        reference = PairwiseTus(lake, num_perm=300)
        for query in lake:
            ref_report, copy_report = ExplainReport("tus"), ExplainReport("tus")
            by_ref = tus.search(query, k=5, report=ref_report, by_ref=True)
            by_copy = tus.search(_copy_table(query), k=5, report=copy_report)
            assert ref_report.params["by_ref"] and not copy_report.params["by_ref"]
            assert by_ref == by_copy
            assert ref_report.counts() == copy_report.counts()
            want = reference.search(query, 5, "set")
            assert [(h.table, h.score) for h in by_ref] == [
                (h.table, pytest.approx(h.score, abs=1e-12)) for h in want
            ]
        twin = tus.search(first, k=1, by_ref=True)[0]
        assert twin.table == "twin"
        assert [s for _, _, s in twin.alignment] == [1.0] * len(twin.alignment)


class TestMeasures:
    def test_sem_requires_ontology(self, union_corpus, union_space):
        t = TableUnionSearch(union_corpus.lake, space=union_space).build()
        qname = union_corpus.groups[0][0]
        qcol = union_corpus.lake.table(qname).columns[0]
        other = ColumnRef(union_corpus.groups[0][1], 0)
        assert column_score(t, qcol, other, "sem") == 0.0

    def test_nl_requires_space(self, union_corpus):
        t = TableUnionSearch(
            union_corpus.lake, ontology=union_corpus.ontology
        ).build()
        qname = union_corpus.groups[0][0]
        qcol = union_corpus.lake.table(qname).columns[0]
        other = ColumnRef(union_corpus.groups[0][1], 0)
        assert column_score(t, qcol, other, "nl") == 0.0

    def test_semantic_survives_low_value_overlap(self, union_corpus, tus):
        """The TUS claim: when value overlap is partial, semantic measures
        still match same-domain columns strongly."""
        qname, cname = union_corpus.groups[0][0], union_corpus.groups[0][1]
        query = union_corpus.lake.table(qname)
        cand = union_corpus.lake.table(cname)
        # Align columns via ontology concepts.
        onto = union_corpus.ontology
        for qi, qcol in query.text_columns():
            q_cls = onto.annotate_column(qcol.non_null_values())
            for ci, ccol in cand.text_columns():
                if onto.annotate_column(ccol.non_null_values()) == q_cls:
                    sem = column_score(tus, qcol, ColumnRef(cname, ci), "sem")
                    assert sem > 0.9
                    return
        pytest.fail("no aligned column pair found")

    def test_ensemble_at_least_max_component(self, union_corpus, tus):
        qcol = union_corpus.lake.table(union_corpus.groups[0][0]).columns[0]
        ref = ColumnRef(union_corpus.groups[0][1], 0)
        ens = column_score(tus, qcol, ref, "ensemble")
        parts = [column_score(tus, qcol, ref, m) for m in ("set", "sem", "nl")]
        assert ens == pytest.approx(max(parts))

    def test_partial_ontology_weakens_sem(self, union_corpus, union_space):
        weak_onto = subsample_ontology(union_corpus.ontology, 0.3, seed=2)
        weak = TableUnionSearch(
            union_corpus.lake, ontology=weak_onto, space=union_space
        ).build()
        full = TableUnionSearch(
            union_corpus.lake,
            ontology=union_corpus.ontology,
            space=union_space,
        ).build()
        qname = union_corpus.groups[0][0]
        query = union_corpus.lake.table(qname)
        res_weak = weak.search(query, k=3, measure="sem")
        res_full = full.search(query, k=3, measure="sem")
        top_weak = sum(r.score for r in res_weak)
        top_full = sum(r.score for r in res_full)
        assert top_full >= top_weak


class TestOneSignatureMatrix:
    """TUS indexes the column_sets foundation's rows: one signature matrix
    per build, shared with the join engines."""

    @pytest.fixture(scope="class")
    def system(self, union_corpus):
        config = DiscoveryConfig(embedding_dim=16)
        return DiscoverySystem(union_corpus.lake, config, union_corpus.ontology).build()

    def test_signatures_are_the_foundations(self, system):
        sets = system.column_sets
        tus = system.engines["tus"].raw
        assert tus._signatures is sets.sigs
        assert tus.refs == sets.refs

    def test_standalone_build_equals_the_engines(self, system, union_corpus):
        tus = system.engines["tus"].raw
        alone = TableUnionSearch(
            union_corpus.lake, ontology=union_corpus.ontology, space=system.space
        ).build()
        assert alone.refs == tus.refs
        assert np.array_equal(alone._signatures, tus._signatures)
        for query in union_corpus.lake:
            assert alone.search(query, k=5, by_ref=True) == tus.search(query, k=5, by_ref=True)

    def test_snapshot_keeps_one_matrix(self, system, tmp_path):
        system.save(tmp_path / "snap")
        loaded = DiscoverySystem.load(tmp_path / "snap")
        tus = loaded.engines["tus"].raw
        assert tus._signatures is loaded.column_sets.sigs

    def test_skipped_join_index_names_it(self, union_corpus):
        system = DiscoverySystem(
            union_corpus.lake, DiscoveryConfig(embedding_dim=16), union_corpus.ontology
        ).build(skip={"join_index"})
        name = union_corpus.groups[0][0]
        with pytest.raises(LakeError, match="join_index"):
            system.unionable_search(name, method="tus")
        assert system.unionable_search(name, method="starmie")
