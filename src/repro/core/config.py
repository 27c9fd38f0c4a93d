"""Configuration for the end-to-end discovery system."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigError
from repro.obs.health import DEFAULT_OBJECTIVES, SloObjective


@dataclass
class DiscoveryConfig:
    """Knobs for the offline pipeline and online engines of Figure 1."""

    # sketches / indices
    num_perm: int = 128
    num_partitions: int = 8
    qcr_sketch_size: int = 256

    # embeddings
    embedding_dim: int = 48
    embedding_min_count: int = 2
    context_weight: float = 0.3

    # search behaviour
    containment_threshold: float = 0.5
    union_measure: str = "ensemble"

    # navigation
    org_branching: int = 4
    org_max_leaf: int = 4

    # pipeline stages (all on by default; understanding stages can be
    # disabled for speed on large lakes)
    enable_embeddings: bool = True
    enable_domains: bool = False
    enable_annotation: bool = True

    # offline build parallelism: worker threads for the stage DAG
    # (1 = the legacy sequential build; results are identical either way)
    build_jobs: int = 1

    # production health: head-based trace sampling (1.0 = keep every span
    # tree) with an always-keep slow-query threshold, and declarative
    # per-engine service-level objectives evaluated over the query log
    trace_sample_rate: float = 1.0
    slow_query_ms: float = 250.0
    slos: tuple[SloObjective, ...] = DEFAULT_OBJECTIVES

    seed: int = 0

    def validate(self) -> "DiscoveryConfig":
        if self.num_perm < 8:
            raise ConfigError("num_perm must be >= 8")
        for name in ("embedding_dim", "qcr_sketch_size"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if not 0 < self.containment_threshold <= 1:
            raise ConfigError("containment_threshold must be in (0, 1]")
        if self.union_measure not in ("set", "sem", "nl", "ensemble"):
            raise ConfigError(f"unknown union_measure {self.union_measure!r}")
        if not 0 <= self.context_weight < 1:
            raise ConfigError("context_weight must be in [0, 1)")
        if self.build_jobs < 1:
            raise ConfigError(
                f"build_jobs must be >= 1, got {self.build_jobs}"
            )
        if not 0 <= self.trace_sample_rate <= 1:
            raise ConfigError("trace_sample_rate must be in [0, 1]")
        if self.slow_query_ms < 0:
            raise ConfigError("slow_query_ms must be >= 0")
        for objective in self.slos:
            try:
                objective.validate()
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if self.slos:
            # Lazy import: the engine registry imports this module.
            from repro.core.engine import known_query_labels

            labels = known_query_labels()
            for objective in self.slos:
                if objective.engine != "*" and objective.engine not in labels:
                    raise ConfigError(
                        f"SLO references unknown engine "
                        f"{objective.engine!r}; known engine labels: "
                        f"{sorted(labels)} (or '*' for all)"
                    )
        return self


@dataclass
class PipelineStats:
    """Timings and counters reported by the offline pipeline."""

    stage_seconds: dict[str, float] = field(default_factory=dict)
    tables: int = 0
    columns: int = 0
    vocabulary: int = 0
    domains_found: int = 0
