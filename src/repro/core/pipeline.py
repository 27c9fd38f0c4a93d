"""Staged offline pipeline runner with progress reporting.

A thin orchestration layer over ``DiscoverySystem.build()`` for scripted /
CLI use: runs stages one at a time, reports per-stage timings, and can skip
stages by name (useful on very large lakes).
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import DiscoveryConfig
from repro.core.system import STAGES, DiscoverySystem
from repro.datalake.lake import DataLake
from repro.datalake.ontology import Ontology

__all__ = ["STAGES", "pipeline_report", "run_pipeline"]


def run_pipeline(
    lake: DataLake,
    config: DiscoveryConfig | None = None,
    ontology: Ontology | None = None,
    skip: set[str] | None = None,
    jobs: int | None = None,
    progress: Callable[[str, float], None] | None = None,
) -> DiscoverySystem:
    """Build a DiscoverySystem, reporting each stage's duration.

    ``skip`` disables stages by name (from STAGES), exactly as
    ``DiscoverySystem.build(skip=...)`` does; ``jobs`` overrides
    ``config.build_jobs``; ``progress(stage, seconds)`` is called after
    each stage completes.  The caller's ``config`` is never mutated.
    """
    system = DiscoverySystem(lake, config, ontology)
    system.build(jobs=jobs, skip=skip)
    if progress is not None:
        for stage, seconds in system.stats.stage_seconds.items():
            progress(stage, seconds)
    return system


def pipeline_report(system: DiscoverySystem) -> str:
    """Human-readable pipeline summary."""
    lines = [
        f"lake: {system.stats.tables} tables, {system.stats.columns} columns",
        f"vocabulary: {system.stats.vocabulary} values",
    ]
    if system.stats.domains_found:
        lines.append(f"domains discovered: {system.stats.domains_found}")
    for stage, seconds in system.stats.stage_seconds.items():
        lines.append(f"  {stage:<18} {seconds * 1000:8.1f} ms")
    return "\n".join(lines)
