"""Tests for training set discovery/construction."""

import numpy as np
import pytest

from repro.apps.trainset import TrainingSetBuilder
from repro.search.union_tus import TableUnionSearch


@pytest.fixture(scope="module")
def builder(union_corpus, union_space):
    search = TableUnionSearch(
        ontology=union_corpus.ontology,
        space=union_space,
    ).build(union_corpus.lake)
    return TrainingSetBuilder(union_corpus.lake, search)


class TestDiscovery:
    def test_discovers_group_members(self, union_corpus, builder):
        seed_name = union_corpus.groups[0][0]
        found = builder.discover(union_corpus.lake.table(seed_name), k=5)
        assert set(found) & union_corpus.truth[seed_name]


class TestUnionRows:
    def test_rows_aligned_to_seed_width(self, union_corpus, builder):
        seed_name = union_corpus.groups[0][0]
        seed = union_corpus.lake.table(seed_name)
        names = builder.discover(seed, k=3)
        rows, used = builder.union_rows(seed, names)
        assert used
        assert all(len(r) == seed.num_cols for r in rows)

    def test_no_tables_no_rows(self, union_corpus, builder):
        seed = union_corpus.lake.table(union_corpus.groups[0][0])
        rows, used = builder.union_rows(seed, [])
        assert rows == [] and used == []


class TestEvaluateGain:
    def test_gain_report_complete(self, union_corpus, builder):
        seed_name = union_corpus.groups[0][0]
        seed = union_corpus.lake.table(seed_name)
        # Task: classify rows by a deterministic hash of the first text cell
        # — learnable from character features, shared across the group.
        feature_dim = 8

        def featurize(row):
            h = sum(ord(c) for c in row[0])
            rng = np.random.default_rng(h % 1000)
            return rng.normal(size=feature_dim)

        def label(row):
            return int(sum(ord(c) for c in row[0]) % 2 == 0)

        report = builder.evaluate_gain(seed, label, featurize, k=4)
        assert 0.0 <= report.seed_accuracy <= 1.0
        assert 0.0 <= report.augmented_accuracy <= 1.0
        assert report.rows_added > 0
        assert report.tables_used
