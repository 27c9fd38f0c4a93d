"""The Engine protocol and registry: one pluggable seam for every
search method the Figure-1 system serves.

Historically each surveyed method (JOSIE, LSH Ensemble, MATE, PEXESO,
Starmie, ...) was wired by hand in five different places: the
``DiscoverySystem`` build stages, a bespoke ``*_search`` method, the
``index_stats()`` introspection, the snapshot payload, and the SLO /
query-log engine names.  Every new method cost edits across all of them.

This module replaces the hand-wiring with a single protocol:

:class:`Engine`
    One discovery method behind a uniform surface — ``name``, the build
    ``stage`` it belongs to, the stages it ``depends_on``, ``build()``,
    ``serve(request, report)``, ``stats()``, and
    ``to_payload()``/``from_payload()`` for snapshots.  ``query(request)``
    is written once, here: it opens the EXPLAIN report, calls ``serve`` and
    closes the funnel.

:class:`EngineRegistry` / :func:`register_engine`
    The process-wide catalogue of engine classes.  Everything downstream is
    *derived* from it: the offline stage DAG (``stage_names()`` /
    ``stage_deps()``), the snapshot payload layout, the
    ``index_stats()``/``repro inspect`` reports, the ``repro engines``
    listing, and the set of query-log/SLO engine labels
    (``query_labels()``).

Adding a new engine (say a TabSketchFM-style sketch encoder) is one new
module under ``repro/engines/`` with a ``@register_engine`` class — no
edits to the system facade, snapshot code, CLI, or observability layers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from numbers import Real
from typing import TYPE_CHECKING, Any, ClassVar, Iterator

from repro.core.errors import ConfigError, LakeError
from repro.search.explain import ExplainReport, summarize_results

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import DiscoverySystem
    from repro.datalake.table import Column, ColumnRef, Table

#: Engine label used by the federated dispatcher in the query log / SLOs.
FEDERATED_LABEL = "federated"

#: Valid values of :attr:`Engine.category`.
CATEGORIES = ("search", "navigation", "foundation")


@dataclass
class QueryRequest:
    """One online query, normalized across engines.

    Engines read only the fields they understand; :meth:`Engine.accepts`
    says whether a given request carries enough for that engine to run.

    ``address`` is set only by the facade, never by a constructor call: a
    :class:`ColumnRef` when ``column`` is the lake's own column at that
    address, the table name when ``table`` is the lake's own table (with
    a ``ColumnRef``, ``table`` is that column's table).  An engine then
    reads the rows it stored for that address at build time instead of
    recomputing them from the cells.  ``None`` is a query by value.
    """

    k: int = 10
    text: str | None = None
    table: "Table | None" = None
    column: "Column | None" = None
    exclude_table: str | None = None
    key_columns: tuple[int, ...] | None = None
    key_column: int | None = None
    value_column: int | None = None
    threshold: float | None = None
    explain: bool = False
    address: "ColumnRef | str | None" = field(default=None, init=False)

    @property
    def column_ref(self) -> "ColumnRef | None":
        """The lake address of ``column`` (``None``: a query by value)."""
        address = self.address
        return None if isinstance(address, str) else address

    @property
    def table_ref(self) -> str | None:
        """The lake name of ``table`` (``None``: a query by value)."""
        address = self.address
        if self.table is None or address is None:
            return None
        return address if isinstance(address, str) else address.table

    def __post_init__(self) -> None:
        k = self.k
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ConfigError(f"k must be an int >= 1, got {k!r}")
        t = self.threshold
        if t is not None and (
            isinstance(t, bool) or not isinstance(t, Real) or not 0 < t <= 1
        ):
            raise ConfigError(f"threshold must be None or in (0, 1], got {t!r}")


@dataclass(frozen=True)
class FederatedHit:
    """One table in a federated result: reciprocal-rank-fusion score plus
    the per-engine ranks that produced it."""

    table: str
    score: float
    #: engine name -> 1-based rank of this table in that engine's results
    sources: dict[str, int] = field(default_factory=dict, compare=False)

    def __lt__(self, other: "FederatedHit") -> bool:
        return (-self.score, self.table) < (-other.score, other.table)


class Engine(ABC):
    """One discovery method behind the uniform engine protocol.

    Class-level declarations drive everything derived from the registry:

    ``name``
        Registry key; also the ``index.<name>.*`` gauge prefix and the
        ``repro engines`` row.
    ``stage`` / ``depends_on``
        The offline build stage this engine belongs to and the stages it
        needs finished first — the stage DAG is generated from these.
    ``category``
        ``"search"`` (rankable results, participates in federation),
        ``"navigation"``, or ``"foundation"`` (understanding stages that
        produce shared inputs, not query results).
    ``query_label``
        The query-log / SLO / metrics engine label this engine's queries
        are recorded under (several engines may share one label, e.g. the
        three join engines all log as ``"join"``).
    ``kind`` / ``items_key``
        Introspection: the index family shown by ``repro inspect`` and the
        ``stats()`` key holding the primary cardinality.

    Each instance is created with its context :attr:`ctx`: the owning
    :class:`~repro.core.system.DiscoverySystem`, whose ``lake``,
    ``config``, ``ontology`` and foundation outputs (``space``,
    ``encoder``, ``annotations``, ``column_sets``) ``build`` reads.

    An adapter that holds one index object stores it in :attr:`raw` from
    ``build`` and inherits the rest: ``is_built()`` is ``raw is not None``,
    ``stats()`` is ``raw.stats()``, and the snapshot payload is ``raw``
    itself.  Adapters holding other state override those four.
    """

    name: ClassVar[str]
    stage: ClassVar[str]
    depends_on: ClassVar[tuple[str, ...]] = ()
    category: ClassVar[str] = "search"
    query_label: ClassVar[str] = ""
    kind: ClassVar[str] = ""
    items_key: ClassVar[str | None] = None

    def __init__(self, ctx: "DiscoverySystem | None" = None) -> None:
        self.ctx = ctx
        #: The underlying index object (``None`` until built or restored).
        self.raw: Any = None

    # -- offline -----------------------------------------------------------------
    @abstractmethod
    def build(self) -> None:
        """Build this engine's index over ``ctx.lake`` into :attr:`raw`.
        Must be a no-op (leaving the engine unbuilt) when its inputs are
        unavailable."""

    def is_built(self) -> bool:
        """Whether this engine can serve queries right now."""
        return self.raw is not None

    # -- introspection -----------------------------------------------------------
    def stats(self) -> dict:
        """Structural introspection numbers (JSON-serializable)."""
        return self.raw.stats()

    def items(self, stats: dict) -> int:
        """Primary cardinality for ``index_stats`` (from ``stats()``)."""
        if self.items_key is None:
            return 0
        return int(stats[self.items_key])

    def memory_object(self) -> Any:
        """The object whose deep size approximates this engine's memory."""
        return self.raw

    # -- online ------------------------------------------------------------------
    def accepts(self, request: QueryRequest) -> bool:
        """Whether ``request`` carries enough input for this engine."""
        return False

    def query(self, request: QueryRequest) -> tuple[list, ExplainReport | None]:
        """Serve one query; returns ``(hits, report-or-None)``.

        With ``request.explain`` the report is opened here (engine name and
        ``k``), filled in by :meth:`serve`, and closed here with the
        ``returned`` count and the result summary."""
        report = ExplainReport(self.name, k=request.k) if request.explain else None
        hits = self.serve(request, report)
        if report is not None:
            report.stage("returned", len(hits))
            report.results = summarize_results(hits)
        return hits, report

    def serve(self, request: QueryRequest, report: ExplainReport | None) -> list:
        """The hits for ``request``; a given ``report`` gets the query
        string, the params and this engine's own funnel stages."""
        raise LakeError(f"engine {self.name!r} does not serve queries")

    # -- snapshots ---------------------------------------------------------------
    def to_payload(self) -> Any:
        """Pickle-ready state for the snapshot payload."""
        return self.raw

    def from_payload(self, payload: Any) -> None:
        """Restore the state produced by :meth:`to_payload`."""
        self.raw = payload

    # -- description -------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Registry-level metadata for ``repro engines``."""
        return {
            "name": self.name,
            "stage": self.stage,
            "depends_on": list(self.depends_on),
            "category": self.category,
            "query_label": self.query_label,
            "kind": self.kind,
        }


class EngineRegistry:
    """Ordered catalogue of engine classes; the single source the stage
    DAG, snapshots, introspection, CLI, and SLO labels derive from."""

    def __init__(self) -> None:
        self._classes: dict[str, type[Engine]] = {}

    def register(self, cls: type[Engine]) -> type[Engine]:
        name = getattr(cls, "name", None)
        if not name or not isinstance(name, str):
            raise ValueError(f"engine class {cls.__name__} has no name")
        if name in self._classes:
            raise ValueError(f"duplicate engine name {name!r}")
        if not getattr(cls, "stage", None):
            raise ValueError(f"engine {name!r} declares no build stage")
        if cls.category not in CATEGORIES:
            raise ValueError(
                f"engine {name!r} has unknown category {cls.category!r}"
            )
        if not isinstance(cls.depends_on, tuple):
            raise ValueError(f"engine {name!r}: depends_on must be a tuple")
        self._classes[name] = cls
        return cls

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self) -> Iterator[type[Engine]]:
        return iter(self._classes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def get(self, name: str) -> type[Engine]:
        try:
            return self._classes[name]
        except KeyError:
            raise KeyError(
                f"unknown engine {name!r}; registered: {sorted(self._classes)}"
            ) from None

    def all(self) -> list[type[Engine]]:
        """Every registered query-serving engine class (registration
        order) — the search and navigation engines, not the foundations."""
        return [
            c for c in self._classes.values() if c.category != "foundation"
        ]

    def foundations(self) -> list[type[Engine]]:
        """The registered foundation (understanding) stage classes."""
        return [
            c for c in self._classes.values() if c.category == "foundation"
        ]

    def names(self) -> list[str]:
        """Names of the query-serving engines, registration order."""
        return [c.name for c in self.all()]

    def create(self, ctx: "DiscoverySystem") -> dict[str, Engine]:
        """Fresh instances of every query-serving engine for ``ctx``."""
        return {c.name: c(ctx) for c in self.all()}

    def create_foundations(self, ctx: "DiscoverySystem") -> dict[str, Engine]:
        """Fresh instances of every foundation stage for ``ctx``."""
        return {c.name: c(ctx) for c in self.foundations()}

    # -- derivations --------------------------------------------------------------
    def stage_names(self) -> tuple[str, ...]:
        """Offline stage names in canonical order (first appearance over
        the registration order) — what ``STAGES`` used to hard-code."""
        seen: dict[str, None] = {}
        for cls in self._classes.values():
            seen.setdefault(cls.stage, None)
        return tuple(seen)

    def stage_deps(self) -> dict[str, tuple[str, ...]]:
        """Stage dependency edges, derived as the union of the member
        engines' ``depends_on`` — what ``STAGE_DEPS`` used to hard-code."""
        stages = set(self.stage_names())
        deps: dict[str, list[str]] = {}
        for cls in self._classes.values():
            for dep in cls.depends_on:
                if dep == cls.stage:
                    continue
                if dep not in stages:
                    raise ValueError(
                        f"engine {cls.name!r} depends on unknown stage "
                        f"{dep!r}"
                    )
                bucket = deps.setdefault(cls.stage, [])
                if dep not in bucket:
                    bucket.append(dep)
        return {stage: tuple(lst) for stage, lst in deps.items()}

    def by_stage(
        self, instances: dict[str, Engine]
    ) -> dict[str, list[Engine]]:
        """Group per-system instances by build stage, preserving the
        registration order inside each stage."""
        grouped: dict[str, list[Engine]] = {}
        for cls in self._classes.values():
            if cls.name in instances:
                grouped.setdefault(cls.stage, []).append(
                    instances[cls.name]
                )
        return grouped

    def query_labels(self) -> frozenset[str]:
        """Every query-log / SLO / metrics engine label the registered
        engines record under, plus the federated dispatcher's own."""
        labels = {
            c.query_label for c in self._classes.values() if c.query_label
        }
        labels.add(FEDERATED_LABEL)
        return frozenset(labels)


#: The process-wide registry that ``@register_engine`` populates.
REGISTRY = EngineRegistry()


def register_engine(cls: type[Engine]) -> type[Engine]:
    """Class decorator registering an :class:`Engine` in :data:`REGISTRY`."""
    return REGISTRY.register(cls)


def known_query_labels() -> frozenset[str]:
    """The valid query-log / SLO engine labels (loads the built-in engine
    adapters on first use so the registry is populated)."""
    import repro.engines  # noqa: F401  - registration side effect

    return REGISTRY.query_labels()
