"""The Figure-1 system: an end-to-end table discovery facade.

``DiscoverySystem`` is this repository's realization of the tutorial's
architecture diagram: a Data Lake Management System feeding Table
Understanding components (annotation, domain discovery, embeddings,
indexing), which in turn power the Table Search Engine (keyword, joinable,
unionable), Navigation Support, and Data Science / Application Support.

Every search method lives behind the :mod:`repro.core.engine` protocol:
the offline stage DAG, the per-engine snapshot payloads, the
``index_stats()`` introspection, and the ``repro engines`` listing are all
derived from the :data:`~repro.core.engine.REGISTRY` rather than wired by
hand.  The per-method ``keyword_search`` / ``joinable_search`` / ...
methods only turn their arguments into a
:class:`~repro.core.engine.QueryRequest` and pick the engine; one private
query path does the rest (availability, input checks, span, query-log
record, ``Engine.query``).  :meth:`DiscoverySystem.search` fans one request
across engines and merges the rankings.

An unbuilt engine raises :class:`LakeError` with a message derived from
its registry declarations: its stage was skipped at build time, or one of
the stages it ``depends_on`` did not run.

Offline: ``build()`` runs the understanding + indexing pipeline.
Online: ``keyword_search``, ``joinable_search``, ``unionable_search``,
``correlated_search``, ``fuzzy_joinable_search``, ``multi_attribute_search``,
``search`` (federated), ``navigate`` / ``organization``,
``related_columns``, ``augment_for_ml``.
"""

from __future__ import annotations

import time
import tracemalloc
from numbers import Integral

import repro.engines  # noqa: F401  - populate the engine registry
from repro.apps.arda import ArdaAugmenter, AugmentationReport
from repro.core.config import DiscoveryConfig, PipelineStats
from repro.core.dag import Stage, StageGraph
from repro.core.engine import (
    FEDERATED_LABEL,
    REGISTRY,
    FederatedHit,
    QueryRequest,
)
from repro.core.errors import ConfigError, LakeError
from repro.obs import METRICS, QUERY_LOG, SAMPLER, TRACER, get_logger
from repro.obs.introspect import IndexStatsReport, deep_sizeof, publish
from repro.obs.querylog import RESULTS_KEPT, QueryRecord
from repro.datalake.lake import DataLake
from repro.datalake.ontology import Ontology
from repro.datalake.table import Column, ColumnRef, Table
from repro.graph.aurum import EnterpriseKnowledgeGraph
from repro.graph.organize import Organization
from repro.graph.ronin import RoninExplorer
from repro.search.explain import ExplainReport

log = get_logger("core.system")

#: Offline pipeline stage names in their canonical (sequential) order —
#: derived from the engine registry, no longer a hand-maintained literal.
STAGES: tuple[str, ...] = REGISTRY.stage_names()

#: Stage dependency edges, derived as the union of each stage's member
#: engines' ``depends_on`` declarations (embeddings feed the union indexes
#: and navigation; annotation feeds SANTOS inside union_index).
STAGE_DEPS: dict[str, tuple[str, ...]] = REGISTRY.stage_deps()

#: Reciprocal-rank-fusion constant for federated result merging (the
#: standard k=60 from the Cormack/Clarke/Buettcher RRF paper).
RRF_K = 60

#: ``method=`` of :meth:`DiscoverySystem.joinable_search` -> engine name.
JOIN_METHODS = {"exact": "josie", "containment": "lshensemble"}

#: ``method=`` values of :meth:`DiscoverySystem.unionable_search`, each
#: also the engine's registry name.
UNION_METHODS = ("tus", "santos", "starmie")


class _QueryCapture:
    """Per-query observability, as a context manager: a
    ``query.<engine>`` span, the latency and CPU histograms, the query
    counter, and a structured :class:`QueryRecord` appended to the
    process-wide query log (always recorded; the span is a no-op when
    tracing is disabled).

    Each record carries resource accounting, not just latency: thread CPU
    time always, and the peak allocation delta whenever
    ``obs.enable_memory_accounting()`` has tracemalloc running.  Inside the
    block the caller records the outcome with :meth:`finish` and appends
    the engines that failed inside a federated query to
    ``engine_errors``."""

    __slots__ = (
        "engine", "query_repr", "attrs", "span", "hits", "report",
        "engine_errors", "_span_cm", "_t0", "_cpu0", "_mem_base",
    )

    def __init__(self, engine: str, query_repr: str, attrs: dict):
        self.engine = engine
        self.query_repr = query_repr
        self.attrs = attrs
        self.span = None
        self.hits: tuple = ()
        self.report: ExplainReport | None = None
        self.engine_errors: list[str] = []  # "<engine>: <ExcType>"

    def __enter__(self) -> "_QueryCapture":
        self._t0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        self._mem_base = None
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            self._mem_base = tracemalloc.get_traced_memory()[0]
        self._span_cm = TRACER.span(f"query.{self.engine}", **self.attrs)
        self.span = self._span_cm.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self._span_cm.__exit__(exc_type, exc, tb)
        finally:
            self._record(exc_type)
        return False

    def finish(self, hits: list, report: ExplainReport | None = None) -> None:
        """Record the query outcome: the hit count attr and the first hits
        (summarized only when the record's ``results`` is read), or the
        report, whose summary and funnel counts the query ran with."""
        self.span.set("hits", len(hits))
        if report is None:
            self.hits = tuple(hits[:RESULTS_KEPT])
        self.report = report

    def _record(self, exc_type) -> None:
        engine = self.engine
        latency_ms = (time.perf_counter() - self._t0) * 1000
        cpu_ms = (time.thread_time() - self._cpu0) * 1000
        mem_peak_kb = None
        if self._mem_base is not None and tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1]
            mem_peak_kb = max(0, peak - self._mem_base) / 1024
        METRICS.inc(f"query.{engine}.count")
        METRICS.observe("query.latency_ms", latency_ms)
        METRICS.observe("query.cpu_ms", cpu_ms)
        METRICS.observe(f"query.{engine}.latency_ms", latency_ms)
        status = "ok"
        error: str | None = None
        if exc_type is not None and issubclass(exc_type, Exception):
            status = "error"
            error = exc_type.__name__
            METRICS.inc(f"query.{engine}.errors")
        elif self.engine_errors:
            status = "partial"
            error = "; ".join(self.engine_errors)
        report = self.report
        QUERY_LOG.append(
            QueryRecord(
                engine=engine,
                query=self.query_repr,
                k=int(self.attrs.get("k", 0) or 0),
                latency_ms=latency_ms,
                cpu_ms=cpu_ms,
                mem_peak_kb=mem_peak_kb,
                results=None if report is None else report.results,
                hits=self.hits,
                funnel={} if report is None else report.counts(),
                status=status,
                error=error,
            )
        )


def _column_index(i) -> int:
    """A column index as a plain ``int``; a bool or a non-integer raises
    :class:`ConfigError` (numpy integers pass)."""
    if isinstance(i, bool) or not isinstance(i, Integral):
        raise ConfigError(f"column index must be an int, got {i!r}")
    return int(i)


def _hit_table(hit) -> str:
    """Table-level identity of any engine's hit type (for federation)."""
    table = getattr(hit, "table", None)
    if table is not None:
        return str(table)
    ref = getattr(hit, "ref", None)
    if ref is not None:
        return str(ref.table)
    return str(hit)


class DiscoverySystem:
    """End-to-end table discovery over a data lake (Figure 1)."""

    def __init__(
        self,
        lake: DataLake,
        config: DiscoveryConfig | None = None,
        ontology: Ontology | None = None,
    ):
        self.lake = lake
        self.config = (config or DiscoveryConfig()).validate()
        self.ontology = ontology
        self.stats = PipelineStats()
        self._configure_sampler()

        # Engine instances: one fresh adapter per registered engine, plus
        # the foundation (understanding) stages, each with this system as
        # its context.
        self.engines = REGISTRY.create(self)
        self.foundations = REGISTRY.create_foundations(self)

        self._ekg: EnterpriseKnowledgeGraph | None = None
        self._infogather = None  # built lazily by augment_entities
        self._built = False
        #: (lake, {id(column): ref}) behind _column_address, built on use.
        self._column_refs: tuple = (None, {})
        #: Stages explicitly skipped at build time (build(skip=...)).
        self.skipped_stages: set[str] = set()
        #: Where the built state came from: a live build or a snapshot.
        self.provenance: dict = {}

    def _configure_sampler(self) -> None:
        """Apply this config's trace-sampling knobs to the process-wide
        sampler — but only when they differ from the config defaults, so
        constructing a second system (tests, sidecars) with a default
        config does not silently clobber an earlier system's sampling."""
        flds = DiscoveryConfig.__dataclass_fields__
        cfg_defaults = (
            flds["trace_sample_rate"].default,
            flds["slow_query_ms"].default,
        )
        wanted = (self.config.trace_sample_rate, self.config.slow_query_ms)
        if wanted == cfg_defaults:
            return
        current = (SAMPLER.rate, SAMPLER.slow_ms)
        # (1.0, None) is a fresh TraceSampler; anything else was set by
        # somebody — warn before overwriting a differing configuration.
        if current not in ((1.0, None), wanted):
            log.warning(
                "overwriting non-default trace sampler config "
                "(rate=%s, slow_ms=%s) with (rate=%s, slow_ms=%s)",
                current[0],
                current[1],
                wanted[0],
                wanted[1],
            )
        SAMPLER.configure(rate=wanted[0], slow_ms=wanted[1])

    # -- understanding outputs (the foundations' artifacts) -------------------------

    @property
    def encoder(self):
        """The contextual column encoder (``None``: embeddings did not run)."""
        return self.foundations["embeddings"].raw

    @property
    def space(self):
        """The lake's embedding space, the one the encoder holds."""
        encoder = self.encoder
        return None if encoder is None else encoder.space

    @property
    def domains(self) -> list:
        """The discovered value domains (empty: the stage did not run)."""
        domains = self.foundations["domains"].raw
        return [] if domains is None else domains

    @property
    def annotations(self) -> dict:
        """Table name -> ontology annotation (empty: the stage did not run)."""
        annotations = self.foundations["annotation"].raw
        return {} if annotations is None else annotations

    @property
    def column_sets(self):
        """The join columns' token sets and signatures (a
        :class:`~repro.search.joinable.ColumnSets`; ``None``: the join
        stage did not run)."""
        return self.foundations["column_sets"].raw

    # -- offline pipeline ------------------------------------------------------------

    def _stage_enabled(self) -> dict[str, bool]:
        """Config gates for the foundation stages (index stages are gated
        only by ``skip`` — their engines self-disable when inputs are
        missing, exactly as the hand-wired stages did)."""
        cfg = self.config
        return {
            "embeddings": cfg.enable_embeddings,
            "domains": cfg.enable_domains,
            "annotation": cfg.enable_annotation and self.ontology is not None,
        }

    def _stage_graph(
        self, skip: set[str], build_ms: dict[str, float]
    ) -> StageGraph:
        """The stage DAG for this build, derived from the engine registry:
        enabled stages minus ``skip``, each stage running its member
        engines' ``build()`` in registration order, each inside a
        forced ``engine.<name>.build`` span whose wall time lands in
        ``build_ms``."""
        members = REGISTRY.by_stage(
            {**self.foundations, **self.engines}
        )
        enabled = self._stage_enabled()

        def stage_fn(engines):
            def run() -> None:
                for engine in engines:
                    with TRACER.span(
                        f"engine.{engine.name}.build", force=True
                    ) as sp:
                        engine.build()
                    build_ms[engine.name] = sp.duration_s * 1000

            return run

        stages = [
            Stage(name, stage_fn(members[name]), STAGE_DEPS.get(name, ()))
            for name in STAGES
            if name not in skip and enabled.get(name, True)
        ]
        return StageGraph(stages)

    def build(
        self,
        jobs: int | None = None,
        skip: set[str] | None = None,
    ) -> "DiscoverySystem":
        """Run the offline pipeline: understand, embed, index (Figure 1 left).

        ``jobs`` overrides ``config.build_jobs``: worker threads for the
        stage DAG (1 = the legacy sequential order; results are identical
        for any value).  ``skip`` disables stages by name (from
        :data:`STAGES`); online methods needing a skipped stage raise
        :class:`LakeError`.
        """
        cfg = self.config
        skip = set(skip or ())
        unknown = skip - set(STAGES)
        if unknown:
            raise ValueError(f"unknown stages to skip: {sorted(unknown)}")
        self.skipped_stages = skip
        jobs = cfg.build_jobs if jobs is None else int(jobs)
        if jobs < 1:
            raise ConfigError(f"build jobs must be >= 1, got {jobs}")
        lake_stats = self.lake.stats()
        self.stats.tables = lake_stats["tables"]
        self.stats.columns = lake_stats["columns"]
        METRICS.set_gauge("lake.tables", self.stats.tables)
        METRICS.set_gauge("lake.columns", self.stats.columns)

        build_ms: dict[str, float] = {}
        graph = self._stage_graph(skip, build_ms)
        with TRACER.span(
            "pipeline.build",
            force=True,
            tables=self.stats.tables,
            columns=self.stats.columns,
            jobs=jobs,
        ):
            max_concurrent = graph.run(
                jobs, run_stage=lambda s: self._stage(s.name, s.fn)
            )
        # Canonicalize stage timing order: parallel completion order is
        # nondeterministic, the report should not be.
        self.stats.stage_seconds = {
            name: self.stats.stage_seconds[name]
            for name in STAGES
            if name in self.stats.stage_seconds
        }
        METRICS.inc("pipeline.builds")
        METRICS.set_gauge("pipeline.build_jobs", jobs)
        METRICS.set_gauge("pipeline.max_concurrent_stages", max_concurrent)
        self._built = True
        self.provenance = {
            "source": "build",
            "build_jobs": jobs,
            "max_concurrent_stages": max_concurrent,
            "stages": graph.order(),
            "skipped": sorted(skip),
            # Wall ms of each engine's build (foundations included), in
            # registry order whatever the completion order was.
            "build_ms": {
                name: round(build_ms[name], 3)
                for name in (*self.foundations, *self.engines)
                if name in build_ms
            },
        }
        log.info(
            "pipeline built: %d tables, %d columns, %d stages "
            "(%d job(s), peak concurrency %d) in %.1f ms",
            self.stats.tables,
            self.stats.columns,
            len(self.stats.stage_seconds),
            jobs,
            max_concurrent,
            sum(self.stats.stage_seconds.values()) * 1000,
        )
        return self

    def _stage(self, name: str, fn) -> None:
        """Run one offline stage inside a (forced) tracer span; keep the
        legacy ``PipelineStats.stage_seconds`` populated from it."""
        with TRACER.span(f"stage.{name}", force=True) as sp:
            fn()
        self.stats.stage_seconds[name] = sp.duration_s
        METRICS.set_gauge(f"pipeline.stage_seconds.{name}", sp.duration_s)
        log.debug("stage %s finished in %.1f ms", name, sp.duration_s * 1000)

    def _require_built(self) -> None:
        if not self._built:
            raise LakeError(
                "DiscoverySystem is not built yet: call build() first"
            )

    # -- snapshots ---------------------------------------------------------------------

    def save(self, directory):
        """Persist the built state (foundations plus every engine's
        payload) as a versioned snapshot directory; returns the
        :class:`~repro.core.snapshot.SnapshotManifest` written."""
        self._require_built()
        from repro.core.snapshot import save_snapshot

        return save_snapshot(self, directory)

    @classmethod
    def load(
        cls,
        directory,
        lake: DataLake | None = None,
        config: DiscoveryConfig | None = None,
        ontology: Ontology | None = None,
    ) -> "DiscoverySystem":
        """Reload a system from a snapshot without re-running any pipeline
        stage.  Raises :class:`~repro.core.errors.SnapshotError` when the
        snapshot is missing, corrupt, or stale for the given lake/config."""
        from repro.core.snapshot import load_snapshot

        return load_snapshot(
            directory, lake=lake, config=config, ontology=ontology
        )

    # -- index introspection ----------------------------------------------------------

    def index_stats(self) -> list[IndexStatsReport]:
        """Introspect every built engine in the registry: structural stats
        from the adapter's public ``stats()`` hook plus an estimated
        memory footprint.

        Memory is counted once, with one ``seen`` map over every row.  The
        first row, ``shared``, is charged the inputs several engines read
        (the lake, the ontology and the foundations' outputs); each engine
        then what it reaches that no earlier row did; and ``shared`` last
        what the foundations hold that no engine reached.  So the rows sum
        to the built system's counted-once total.

        Reports are published process-wide (``/indexstats`` route) and
        surfaced as ``index.<name>.{items,memory_bytes}`` gauges so a
        Prometheus scrape sees index growth between builds.
        """
        self._require_built()
        seen: dict = {}
        inputs = dict(lake=self.lake, ontology=self.ontology, space=self.space,
                      encoder=self.encoder, annotations=self.annotations, domains=self.domains)
        shared = {k: deep_sizeof(v, seen) for k, v in inputs.items() if v is not None}
        build_ms = self.provenance.get("build_ms", {})
        reports: list[IndexStatsReport] = []
        for engine in self.engines.values():
            if engine.is_built():
                detail = engine.stats()
                memory = deep_sizeof(engine.memory_object(), seen)
                reports.append(IndexStatsReport(
                    name=engine.name, kind=engine.kind, items=engine.items(detail),
                    memory_bytes=memory, detail=detail,
                    provenance=dict(self.provenance), build_ms=build_ms.get(engine.name)))
        shared["foundations"] = sum(
            deep_sizeof(f.raw, seen) for f in self.foundations.values() if f.raw is not None
        )
        # The foundations build the shared inputs.
        ms = round(sum(build_ms.get(f, 0.0) for f in self.foundations), 3) if build_ms else None
        detail = {f"{name}_bytes": n for name, n in shared.items()}
        reports.insert(0, IndexStatsReport(
            name="shared", kind="shared-inputs", items=self.stats.tables,
            memory_bytes=sum(shared.values()), detail=detail,
            provenance=dict(self.provenance), build_ms=ms))
        for r in reports:
            METRICS.set_gauge(f"index.{r.name}.items", r.items)
            METRICS.set_gauge(f"index.{r.name}.memory_bytes", r.memory_bytes)
        publish(reports)
        return reports

    def _ready(self, name: str):
        """The built engine ``name``, or a :class:`LakeError` derived from
        its declarations: its own stage skipped at build time, else the
        first of its ``depends_on`` stages that did not run."""
        self._require_built()
        engine = self.engines[name]
        if engine.is_built():
            return engine
        what = f"{name} unavailable"
        if engine.stage in self.skipped_stages:
            raise LakeError(
                f"stage {engine.stage!r} was skipped at build time: {what}"
            )
        ran = self.stats.stage_seconds
        missing = next(
            (s for s in (*engine.depends_on, engine.stage) if s not in ran),
            None,
        )
        if missing is None:
            raise LakeError(f"engine {name!r} built no index: {what}")
        raise LakeError(f"stage {missing!r} did not run: {what}")

    def _query(
        self,
        name: str | None,
        request: QueryRequest,
        label: str,
        query_repr: str,
        *,
        ranked: bool = True,
        **span_attrs,
    ):
        """The one online query path behind every ``*_search`` facade and
        ``navigate``: a ``query.<label>`` span and query-log record around
        the availability and input checks and ``engine.query``.

        ``name`` is ``None`` when the caller's ``method`` names no engine.
        ``ranked=False`` (navigation, which returns a node's tables, not a
        top-k) logs no ``k``.  Returns ``hits``, or ``(hits,
        ExplainReport)`` with ``request.explain``.
        """
        self._require_built()
        if ranked:
            span_attrs["k"] = request.k
        with _QueryCapture(label, query_repr, span_attrs) as q:
            if name is None:
                raise ConfigError(
                    f"unknown {label} method {span_attrs.get('method')!r}"
                )
            engine = self._ready(name)
            if not engine.accepts(request):
                raise ConfigError(
                    f"engine {name!r} cannot serve this request: "
                    "missing query input"
                )
            hits, report = engine.query(request)
            q.finish(hits, report)
        return (hits, report) if request.explain else hits

    @staticmethod
    def _check_columns(request: QueryRequest) -> None:
        """Column indexes in ``request`` must be integers (not bools) that
        address ``request.table``; they are stored back as plain ints, so
        a numpy integer never reaches an engine, a report or the log."""
        width = request.table.num_cols

        def check(i) -> int:
            index = _column_index(i)
            if not 0 <= index < width:
                raise LakeError(
                    f"column {i} outside table {request.table.name!r} "
                    f"({width} columns)"
                )
            return index

        if request.key_columns is not None:
            request.key_columns = tuple(map(check, request.key_columns))
        # key_column/value_column are None when unused.
        if request.key_column is not None:
            request.key_column = check(request.key_column)
        if request.value_column is not None:
            request.value_column = check(request.value_column)

    def _resolve(
        self, query, label: str = "query"
    ) -> tuple[Table | None, Column | None, object]:
        """The one place a query object meets the lake: ``(table, column,
        address)``, the address being what ``QueryRequest.address`` holds.

        A :class:`ColumnRef` (its index checked like any column index)
        resolves to its table and column, a table name to its table; both
        are addresses.  A :class:`Table` or :class:`Column` object has an
        address only when it *is* the lake's own object: a copy, however
        equal, is served by value."""
        lake = self.lake
        if isinstance(query, ColumnRef):
            if type(query.index) is not int:
                query = ColumnRef(query.table, _column_index(query.index))
            return lake.table(query.table), lake.column(query), query
        if isinstance(query, str):
            return lake.table(query), None, query
        if isinstance(query, Table):
            own = query.name in lake and lake.table(query.name) is query
            return query, None, query.name if own else None
        if isinstance(query, Column):
            return None, query, self._column_address(query)
        raise ValueError(
            f"{label} must be a string, Table, Column, or ColumnRef, "
            f"not {type(query).__name__}"
        )

    def _column_address(self, column: Column) -> ColumnRef | None:
        """The address of a :class:`Column` object that is the lake's own
        (the id map covers the lake's columns when it was first asked)."""
        lake, refs = self._column_refs
        if lake is not self.lake:
            refs = {id(c): ref for ref, c in self.lake.iter_columns()}
            self._column_refs = (self.lake, refs)
        ref = refs.get(id(column))
        if ref is None or ref.table not in self.lake:
            return None
        table = self.lake.table(ref.table)
        own = ref.index < table.num_cols and table.columns[ref.index] is column
        return ref if own else None

    def _column_request(self, column: Column | ColumnRef, **fields):
        """``(request, query_repr)`` for a join-style query: a
        :class:`ColumnRef` also excludes its own table."""
        _, col, address = self._resolve(column)
        if isinstance(column, ColumnRef):
            exclude, query_repr = address.table, str(address)
        else:
            exclude = None
            query_repr = f"column<{getattr(column, 'name', '?')}>"
        request = QueryRequest(column=col, exclude_table=exclude, **fields)
        request.address = address
        return request, query_repr

    def _table_request(self, query: Table | str, **fields) -> QueryRequest:
        """The request for a table given by name or by value, its column
        indexes checked."""
        table, _, address = self._resolve(query)
        request = QueryRequest(table=table, **fields)
        request.address = address
        self._check_columns(request)
        return request

    # -- online: table search engine ---------------------------------------------------

    def keyword_search(self, query: str, k: int = 10, explain: bool = False):
        """Metadata keyword search (§2.3).

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        return self._query(
            "keyword",
            QueryRequest(text=query, k=k, explain=explain),
            "keyword",
            query,
            query=query,
        )

    def joinable_search(
        self,
        column: Column | ColumnRef,
        k: int = 10,
        method: str = "exact",
        threshold: float | None = None,
        explain: bool = False,
    ):
        """Joinable table search (§2.4): 'exact' (JOSIE) or 'containment'
        (LSH Ensemble) over the query column.

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        request, query_repr = self._column_request(
            column, k=k, threshold=threshold, explain=explain
        )
        return self._query(
            JOIN_METHODS.get(method),
            request,
            "join",
            query_repr,
            method=method,
        )

    def fuzzy_joinable_search(
        self, column: Column | ColumnRef, k: int = 10, explain: bool = False
    ):
        """PEXESO-style fuzzy joinable search over embeddings (§2.4).

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        request, query_repr = self._column_request(
            column, k=k, explain=explain
        )
        return self._query(
            "pexeso",
            request,
            "fuzzy_join",
            query_repr,
        )

    def multi_attribute_search(
        self,
        query: Table,
        key_columns: list[int],
        k: int = 10,
        explain: bool = False,
    ):
        """MATE-style composite-key joinable search (§2.4).

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        request = self._table_request(
            query, key_columns=tuple(key_columns), k=k, explain=explain
        )
        return self._query(
            "mate",
            request,
            "multi_attribute",
            f"{request.table.name}{list(request.key_columns)}",
            key_columns=request.key_columns,
        )

    def unionable_search(
        self,
        query: Table | str,
        k: int = 10,
        method: str = "starmie",
        explain: bool = False,
    ):
        """Unionable table search (§2.5): 'tus', 'santos', or 'starmie'.

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        request = self._table_request(query, k=k, explain=explain)
        name = request.table.name
        return self._query(
            method if method in UNION_METHODS else None,
            request,
            "union",
            name,
            method=method,
            table=name,
        )

    def correlated_search(
        self,
        query: Table | str,
        key_column: int,
        value_column: int,
        k: int = 10,
        explain: bool = False,
    ):
        """Joinable-and-correlated search via QCR sketches (§2.4).

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        request = self._table_request(
            query,
            key_column=key_column,
            value_column=value_column,
            k=k,
            explain=explain,
        )
        name = request.table.name
        return self._query(
            "qcr",
            request,
            "correlated",
            f"{name}[{request.key_column},{request.value_column}]",
            table=name,
        )

    # -- online: federated dispatch ----------------------------------------------------

    def _federated_request(self, query, k: int) -> QueryRequest:
        """Normalize a free-form query (keyword text, table name,
        :class:`Table`, :class:`Column`, or :class:`ColumnRef`) into one
        :class:`QueryRequest` each engine can inspect; a table query
        excludes its own table."""
        if isinstance(query, str) and query not in self.lake:
            return QueryRequest(k=k, text=query)
        table, column, address = self._resolve(query, "federated query")
        request = QueryRequest(
            k=k,
            text=query if isinstance(query, str) else None,
            table=table,
            column=column,
            exclude_table=None if table is None else table.name,
        )
        request.address = address
        return request

    def search(
        self,
        query,
        engines: list[str] | None = None,
        k: int = 10,
    ) -> list[FederatedHit]:
        """Federated table search: fan one request out across registered
        engines and merge the rankings with reciprocal-rank fusion.

        ``query`` may be keyword text, a table name / :class:`Table`
        (union-style engines), or a :class:`Column` / :class:`ColumnRef`
        (join-style engines); every built engine whose
        :meth:`~repro.core.engine.Engine.accepts` matches participates.
        ``engines`` restricts the fan-out to specific registry names.
        Returns :class:`FederatedHit` rows — table, fused score, and the
        per-engine ranks that produced it — best first.
        """
        self._require_built()
        if engines is None:
            selected = [
                e for e in self.engines.values() if e.category == "search"
            ]
        else:
            unknown = [n for n in engines if n not in self.engines]
            if unknown:
                raise ConfigError(
                    f"unknown engines {sorted(unknown)}; registered: "
                    f"{sorted(self.engines)}"
                )
            selected = [self.engines[n] for n in engines]
        request = self._federated_request(query, k)
        scores: dict[str, float] = {}
        sources: dict[str, dict[str, int]] = {}
        with _QueryCapture(FEDERATED_LABEL, str(query), {"k": k}) as q:
            asked = 0
            for engine in selected:
                if not engine.is_built() or not engine.accepts(request):
                    continue
                asked += 1
                # One failing engine must not sink the federated query: its
                # hits are left out and the query is logged as partial.
                with TRACER.span(f"federated.{engine.name}") as sp:
                    try:
                        hits, _ = engine.query(request)
                    except Exception as exc:
                        failure = type(exc).__name__
                        sp.set("error", failure)
                        METRICS.inc("search.federated.engine_errors")
                        q.engine_errors.append(f"{engine.name}: {failure}")
                        log.warning(
                            "federated: engine %s failed: %r", engine.name, exc
                        )
                        continue
                for rank, hit in enumerate(hits, 1):
                    table = _hit_table(hit)
                    if table == request.exclude_table:
                        continue
                    scores[table] = scores.get(table, 0.0) + 1.0 / (
                        RRF_K + rank
                    )
                    sources.setdefault(table, {})[engine.name] = rank
            q.span.set("engines_asked", asked)
            # Rank (-score, table) pairs, the order of FederatedHit.__lt__,
            # and build hits for the top k only.
            ranked = sorted((-s, t) for t, s in scores.items())[:k]
            merged = [FederatedHit(t, -neg, sources[t]) for neg, t in ranked]
            q.finish(merged)
        return merged

    # -- online: navigation -------------------------------------------------------------

    def organization(self) -> Organization:
        """The lake-wide navigation hierarchy (§2.6)."""
        return self._ready("organization").raw

    def navigate(self, intent_text: str) -> list[str]:
        """Navigate the organization toward free-text intent; returns the
        tables at the reached node."""
        return self._query(
            "organization",
            QueryRequest(text=intent_text),
            "navigate",
            intent_text,
            ranked=False,
        )

    def explore_results(self, tables: list[str]) -> Organization:
        """RONIN-style online organization of a search result set (§2.6)."""
        self._require_built()
        return RoninExplorer(
            self.engines["organization"].table_vectors
        ).organize_results(tables)

    def knowledge_graph(self) -> EnterpriseKnowledgeGraph:
        """Aurum-style EKG over the lake, built lazily (§2.6)."""
        self._require_built()
        if self._ekg is None:
            self._ekg = EnterpriseKnowledgeGraph(self.lake).build()
        return self._ekg

    def related_columns(
        self, ref: ColumnRef, k: int = 10
    ) -> list[tuple[ColumnRef, float]]:
        """EKG neighbourhood of a column."""
        return self.knowledge_graph().neighbors(ref)[:k]

    # -- online: data science support ------------------------------------------------------

    def augment_for_ml(
        self, base: Table | str, key_column: int, target_column: int
    ) -> AugmentationReport:
        """ARDA-style feature augmentation for a prediction task (§2.7)."""
        self._require_built()
        if isinstance(base, str):
            base = self.lake.table(base)
        augmenter = ArdaAugmenter(self.lake).build()
        return augmenter.augment(base, key_column, target_column)

    def augment_entities(
        self,
        entities: list[str],
        attribute: str | None = None,
        examples: dict[str, str] | None = None,
    ):
        """InfoGather-style entity augmentation (§2.4): fill an attribute
        for the given entities, either by attribute name or by example."""
        self._require_built()
        if self._infogather is None:
            from repro.search.infogather import InfoGather

            self._infogather = InfoGather(self.lake).build()
        if attribute is not None:
            return self._infogather.augment_by_attribute(entities, attribute)
        if examples:
            return self._infogather.augment_by_example(entities, examples)
        raise ValueError("provide either an attribute name or examples")
