"""Registry parity suite: the facade shims must return bit-identical
results to direct engine-protocol queries, and snapshots must round-trip
on the per-engine payload format.

The refactor promise is "same results, new seam": every pre-refactor
query path (all explain-capable engines, navigation, related_columns)
goes through ``Engine.query`` now, and these tests pin the equivalence.
"""

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.engine import QueryRequest
from repro.core.snapshot import FORMAT_VERSION, read_manifest
from repro.core.system import DiscoverySystem
from repro.datalake.table import ColumnRef


@pytest.fixture(scope="module")
def system(union_corpus):
    config = DiscoveryConfig(
        embedding_dim=32, enable_domains=True, num_partitions=4
    )
    return DiscoverySystem(
        union_corpus.lake, config, ontology=union_corpus.ontology
    ).build()


def assert_same_report(a, b):
    """ExplainReports are equal when their funnel and summary agree."""
    if a is None and b is None:
        return
    assert a.counts() == b.counts()
    assert a.results == b.results
    assert a.engine == b.engine


def assert_join_engines_share_one_store(system):
    """JOSIE, LSH Ensemble and the Jaccard LSH read the foundation's one
    store, and the Jaccard LSH bands the foundation's signature rows."""
    sets = system.foundations["column_sets"].raw
    josie, ensemble, jaccard = (
        system.engines[name] for name in ("josie", "lshensemble", "jaccard_lsh")
    )
    assert josie.raw is sets
    assert ensemble.ctx.column_sets is sets
    assert jaccard.ctx.column_sets is sets
    assert jaccard.raw._sigs is sets.sigs
    assert josie.memory_object() is sets.josie


class TestFacadeParity:
    """Each facade shim vs a direct Engine.query with the same request."""

    def test_keyword(self, system, union_corpus):
        header = union_corpus.lake.table(
            union_corpus.groups[0][0]
        ).columns[0].name
        token = header.split("_")[0]
        facade, facade_report = system.keyword_search(
            token, k=5, explain=True
        )
        direct, direct_report = system.engines["keyword"].query(
            QueryRequest(text=token, k=5, explain=True)
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_josie_exact(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        ref = ColumnRef(qname, 0)
        facade, facade_report = system.joinable_search(
            ref, k=5, method="exact", explain=True
        )
        direct, direct_report = system.engines["josie"].query(
            QueryRequest(
                column=system.lake.column(ref),
                k=5,
                exclude_table=qname,
                explain=True,
            )
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_lshensemble_containment(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        ref = ColumnRef(qname, 0)
        facade, facade_report = system.joinable_search(
            ref, k=5, method="containment", explain=True
        )
        direct, direct_report = system.engines["lshensemble"].query(
            QueryRequest(
                column=system.lake.column(ref),
                k=5,
                exclude_table=qname,
                explain=True,
            )
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_jaccard_lsh_new_path(self, system, union_corpus):
        """The jaccard baseline is addressable through the registry; its
        results must match its own MinHashLSH's verified candidates."""
        from repro.search.results import ColumnResult
        from repro.sketch.minhash import MinHash

        qname = union_corpus.groups[0][0]
        column = system.lake.column(ColumnRef(qname, 0))
        direct, report = system.engines["jaccard_lsh"].query(
            QueryRequest(column=column, k=5, exclude_table=qname)
        )
        assert report is None
        index = system.engines["jaccard_lsh"].raw
        mh = MinHash.from_values(column.value_set(), num_perm=index.num_perm)
        expected = sorted(
            ColumnResult(ref, score)
            for ref, score in index.query_verified(mh)
            if ref.table != qname
        )[:5]
        assert direct == expected

    def test_pexeso_fuzzy(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        ref = ColumnRef(qname, 0)
        facade, facade_report = system.fuzzy_joinable_search(
            ref, k=5, explain=True
        )
        direct, direct_report = system.engines["pexeso"].query(
            QueryRequest(
                column=system.lake.column(ref),
                k=5,
                exclude_table=qname,
                explain=True,
            )
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_mate(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        table = system.lake.table(qname)
        facade, facade_report = system.multi_attribute_search(
            table, [0, 1], k=3, explain=True
        )
        direct, direct_report = system.engines["mate"].query(
            QueryRequest(table=table, key_columns=(0, 1), k=3, explain=True)
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    @pytest.mark.parametrize("method", ["tus", "starmie", "santos"])
    def test_union_methods(self, system, union_corpus, method):
        qname = union_corpus.groups[0][0]
        table = system.lake.table(qname)
        facade, facade_report = system.unionable_search(
            qname, k=5, method=method, explain=True
        )
        direct, direct_report = system.engines[method].query(
            QueryRequest(table=table, k=5, explain=True)
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_qcr_correlated(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        table = system.lake.table(qname)
        facade, facade_report = system.correlated_search(
            qname, 0, 1, k=5, explain=True
        )
        direct, direct_report = system.engines["qcr"].query(
            QueryRequest(
                table=table, key_column=0, value_column=1, k=5, explain=True
            )
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_navigate(self, system):
        facade = system.navigate("concept_000")
        direct, report = system.engines["organization"].query(
            QueryRequest(text="concept_000")
        )
        assert facade == direct
        assert report is None

    def test_related_columns_unaffected(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        res = system.related_columns(ColumnRef(qname, 0), k=5)
        assert res == system.knowledge_graph().neighbors(
            ColumnRef(qname, 0)
        )[:5]

    def test_join_engines_share_one_index(self, system):
        """The three join engines read the one ``column_sets`` store, and
        each one's build time is its own."""
        assert_join_engines_share_one_store(system)
        build_ms = system.provenance["build_ms"]
        for name in ("column_sets", "lshensemble", "jaccard_lsh"):
            assert build_ms[name] > 0, name


class TestSnapshotRoundTrip:
    def test_manifest_and_identical_queries(
        self, system, union_corpus, tmp_path
    ):
        snapdir = tmp_path / "snap"
        manifest = system.save(snapdir)
        assert manifest.format_version == FORMAT_VERSION
        assert set(manifest.engines) == set(system.engines)
        on_disk = read_manifest(snapdir)
        assert on_disk.engines == manifest.engines

        loaded = DiscoverySystem.load(snapdir)
        qname = union_corpus.groups[0][0]
        ref = ColumnRef(qname, 0)
        assert loaded.joinable_search(ref, k=5) == system.joinable_search(
            ref, k=5
        )
        assert loaded.joinable_search(
            ref, k=5, method="containment"
        ) == system.joinable_search(ref, k=5, method="containment")
        fuzzy = system.fuzzy_joinable_search(ref, k=5, explain=True)
        assert fuzzy[0]
        reloaded = loaded.fuzzy_joinable_search(ref, k=5, explain=True)
        assert reloaded[0] == fuzzy[0]
        assert_same_report(reloaded[1], fuzzy[1])
        assert loaded.unionable_search(
            qname, k=5, method="tus"
        ) == system.unionable_search(qname, k=5, method="tus")
        assert loaded.navigate("concept_000") == system.navigate(
            "concept_000"
        )

    def test_join_engines_share_payload_after_reload(
        self, system, tmp_path
    ):
        """Pickle's memo must keep the three join engines on one store."""
        snapdir = tmp_path / "snap_shared"
        system.save(snapdir)
        assert_join_engines_share_one_store(DiscoverySystem.load(snapdir))
