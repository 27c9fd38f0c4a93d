"""Failure injection / robustness: the full system on hostile inputs.

Real lakes contain empty tables, unicode soup, huge cells, all-null
columns, and single-row fragments; none of that should crash the offline
pipeline or the online APIs.
"""

import numpy as np
import pytest

from repro.core.config import DiscoveryConfig
from repro.core.errors import ConfigError, LakeError
from repro.core.system import DiscoverySystem
from repro.datalake.lake import DataLake
from repro.datalake.table import Column, ColumnRef, Table


@pytest.fixture(scope="module")
def hostile_lake():
    tables = [
        Table("empty_table", []),
        Table.from_dict("single_cell", {"a": ["x"]}),
        Table.from_dict(
            "all_nulls", {"n1": ["", "NA", "null"], "n2": ["-", "?", ""]}
        ),
        Table.from_dict(
            "unicode_soup",
            {
                "text": ["café", "naïve", "日本語", "emoji 🎉", "Ωμέγα"],
                "mixed": ["1", "two", "", "四", "5.5"],
            },
        ),
        Table.from_dict(
            "huge_cells",
            {
                "blob": ["x" * 5000, "y" * 5000],
                "num": ["1", "2"],
            },
        ),
        Table.from_dict(
            "duplicate_headers",
            {"col": ["a", "b"]},
        ),
        Table(
            "same_header_twice",
            [Column("dup", ["1", "2"]), Column("dup", ["p", "q"])],
        ),
        Table.from_dict(
            "normal",
            {
                "city": ["oslo", "rome", "lima", "cairo"],
                "pop": ["7", "28", "97", "95"],
            },
        ),
        Table.from_dict(
            "normal_two",
            {
                "city": ["oslo", "rome", "quito", "hanoi"],
                "area": ["454", "1285", "372", "3324"],
            },
        ),
    ]
    return DataLake(tables)


@pytest.fixture(scope="module")
def system(hostile_lake):
    return DiscoverySystem(
        hostile_lake,
        DiscoveryConfig(
            embedding_dim=8, embedding_min_count=1, enable_domains=True
        ),
    ).build()


class TestPipelineSurvives:
    def test_build_completes(self, system):
        assert system.stats.tables == 9

    def test_keyword_on_hostile(self, system):
        assert isinstance(system.keyword_search("city"), list)

    def test_joinable_on_normal_column(self, system):
        res = system.joinable_search(ColumnRef("normal", 0), k=5)
        assert any(r.ref.table == "normal_two" for r in res)

    def test_joinable_on_unicode(self, system):
        res = system.joinable_search(ColumnRef("unicode_soup", 0), k=5)
        assert isinstance(res, list)

    def test_union_on_hostile(self, system):
        res = system.unionable_search("normal", k=3, method="tus")
        assert isinstance(res, list)

    def test_navigation_exists(self, system):
        org = system.organization()
        assert len(org.root.tables) == 9

    def test_ekg_build(self, system):
        g = system.knowledge_graph()
        assert g.graph.number_of_nodes() >= 0


class TestDegenerateQueries:
    def test_empty_column_query(self, system):
        res = system.engines["josie"].raw.exact_topk(Column("empty", []), k=3)
        assert res == []

    def test_all_null_column_query(self, system):
        res = system.engines["josie"].raw.exact_topk(
            Column("nulls", ["", "NA", "null"]), k=3
        )
        assert res == []

    def test_union_query_with_no_text_columns(self, system):
        numeric_only = Table.from_dict(
            "nums", {"a": ["1", "2"], "b": ["3", "4"]}
        )
        res = system.engines["tus"].raw.search(numeric_only, k=3)
        assert res == []

    def test_starmie_query_numeric_only(self, system):
        numeric_only = Table.from_dict(
            "nums2", {"a": ["1", "2"], "b": ["3", "4"]}
        )
        res = system.engines["starmie"].raw.search(numeric_only, k=3)
        assert res == []


class TestQueryValidation:
    """Malformed queries fail at the facade with a library error, not with
    list-sliced hits, a silent ``[]``, or a raw ``IndexError``."""

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda s: s.keyword_search("city", k=-1), ConfigError),
            (lambda s: s.keyword_search("city", k=0), ConfigError),
            (lambda s: s.keyword_search("city", k=True), ConfigError),
            (lambda s: s.keyword_search("city", k=2.5), ConfigError),
            (lambda s: s.keyword_search(None), ConfigError),
            (
                lambda s: s.joinable_search(ColumnRef("normal", 0), k=-1),
                ConfigError,
            ),
            (
                lambda s: s.unionable_search("normal", k=-1, method="tus"),
                ConfigError,
            ),
            (
                lambda s: s.multi_attribute_search(
                    s.lake.table("normal"), []
                ),
                ConfigError,
            ),
            (
                lambda s: s.multi_attribute_search(
                    s.lake.table("normal"), [99]
                ),
                LakeError,
            ),
            (lambda s: s.correlated_search("normal", 0, 99), LakeError),
            (lambda s: s.correlated_search("normal", -1, 1), LakeError),
            (lambda s: s.search("city", k=-1), ConfigError),
        ],
        ids=[
            "keyword-k-negative",
            "keyword-k-zero",
            "keyword-k-bool",
            "keyword-k-float",
            "keyword-none",
            "join-k-negative",
            "union-k-negative",
            "mate-no-key-columns",
            "mate-key-column-out-of-range",
            "qcr-value-column-out-of-range",
            "qcr-key-column-negative",
            "federated-k-negative",
        ],
    )
    def test_rejected(self, system, call, error):
        with pytest.raises(error):
            call(system)

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: s.multi_attribute_search(s.lake.table("normal"), ["0"]),
            lambda s: s.multi_attribute_search(s.lake.table("normal"), [True]),
            lambda s: s.multi_attribute_search(s.lake.table("normal"), [0, 1.0]),
            lambda s: s.multi_attribute_search(s.lake.table("normal"), [None]),
            lambda s: s.correlated_search("normal", "0", 1),
            lambda s: s.correlated_search("normal", False, 1),
            lambda s: s.correlated_search("normal", 0, True),
            lambda s: s.correlated_search("normal", 0, 1.0),
        ],
        ids=[
            "mate-key-str",
            "mate-key-bool",
            "mate-key-float",
            "mate-key-none",
            "qcr-key-str",
            "qcr-key-bool",
            "qcr-value-bool",
            "qcr-value-float",
        ],
    )
    def test_column_index_not_an_int(self, system, call):
        with pytest.raises(ConfigError, match="column index"):
            call(system)

    def test_numpy_column_indexes_accepted(self, system):
        table = system.lake.table("normal")
        assert system.multi_attribute_search(
            table, [np.int64(0)]
        ) == system.multi_attribute_search(table, [0])
        assert system.correlated_search(
            "normal", np.int32(0), np.int64(1)
        ) == system.correlated_search("normal", 0, 1)

    def test_numpy_column_indexes_reported_as_ints(self, system):
        """EXPLAIN params and the query log show plain ints, not
        ``np.int64(0)``."""
        from repro import obs

        table = system.lake.table("normal")
        _, report = system.multi_attribute_search(
            table, [np.int64(0)], explain=True
        )
        assert report.params["key_columns"] == "[0]"
        assert obs.QUERY_LOG.records()[-1].query == "normal[0]"
        _, report = system.correlated_search(
            "normal", np.int32(0), np.int64(1), explain=True
        )
        assert report.query == "normal[0,1]"
        assert obs.QUERY_LOG.records()[-1].query == "normal[0,1]"

    @pytest.mark.parametrize(
        "threshold", [0.0, -1.0, 1.5, float("nan"), float("inf"), True, "0.5"]
    )
    def test_containment_threshold_out_of_range(self, system, threshold):
        with pytest.raises(ConfigError, match="threshold"):
            system.joinable_search(
                ColumnRef("normal", 0), method="containment", threshold=threshold
            )

    def test_containment_threshold_is_served(self, system):
        """An explicit threshold reaches the engine; None takes the
        config's.  normal.city is half contained in normal_two.city."""
        ref = ColumnRef("normal", 0)
        hits, report = system.joinable_search(
            ref, method="containment", threshold=1.0, explain=True
        )
        assert report.params["threshold"] == 1.0
        assert all(h.score == 1.0 for h in hits)
        assert "normal_two" not in {h.ref.table for h in hits}
        hits, report = system.joinable_search(
            ref, method="containment", explain=True
        )
        assert report.params["threshold"] == 0.5
        assert "normal_two" in {h.ref.table for h in hits}


class TestHostileCsv:
    def test_round_trip_unicode(self, tmp_path, hostile_lake):
        from repro.datalake.csvio import read_table_csv, write_table_csv

        t = hostile_lake.table("unicode_soup")
        write_table_csv(t, tmp_path / "u.csv")
        back = read_table_csv(tmp_path / "u.csv")
        assert back.rows() == t.rows()

    def test_round_trip_huge_cells(self, tmp_path, hostile_lake):
        from repro.datalake.csvio import read_table_csv, write_table_csv

        t = hostile_lake.table("huge_cells")
        write_table_csv(t, tmp_path / "h.csv")
        assert read_table_csv(tmp_path / "h.csv").rows() == t.rows()
