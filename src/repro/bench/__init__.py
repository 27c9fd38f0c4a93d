"""Benchmark substrate: metrics, workloads, and the experiment harness."""

from repro.bench.harness import ExperimentTable
from repro.bench.metrics import (
    average_precision,
    classification_report,
    f1_score,
    kendall_tau,
    mean_absolute_error,
    mean_average_precision,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from repro.bench.workloads import JoinWorkload, UnionWorkload

__all__ = [
    "ExperimentTable",
    "JoinWorkload",
    "UnionWorkload",
    "average_precision",
    "classification_report",
    "f1_score",
    "kendall_tau",
    "mean_absolute_error",
    "mean_average_precision",
    "ndcg_at_k",
    "precision_at_k",
    "recall_at_k",
]
