"""Human-readable summary of a built ``DiscoverySystem``'s offline pipeline."""

from __future__ import annotations

from repro.core.system import STAGES, DiscoverySystem

__all__ = ["STAGES", "pipeline_report"]


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
