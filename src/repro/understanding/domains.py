"""Unsupervised domain discovery (D4-style: Ota et al., VLDB'20; Li et al.,
KDD'17).

Domain discovery collects all values that belong to the same semantic domain
across a collection of tables, without supervision, by exploiting column
co-occurrence: two columns drawing from the same domain share values.  The
pipeline is: (1) connect columns whose value sets overlap; (2) take
connected components as candidate domains; (3) keep only values with robust
support (appearing in >= ``min_support`` columns of the component), D4's
defence against dirty columns; (4) pick a representative value per domain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import networkx as nx

from repro.datalake.lake import DataLake
from repro.datalake.table import ColumnRef
from repro.sketch.inverted import InvertedIndex


@dataclass
class DiscoveredDomain:
    """One discovered domain: its values, source columns, representative."""

    values: set[str]
    columns: list[ColumnRef] = field(default_factory=list)
    representative: str = ""

    def __len__(self) -> int:
        return len(self.values)


class DomainDiscovery:
    """Column-overlap-graph domain discovery."""

    def __init__(
        self,
        overlap_threshold: float = 0.3,
        min_support: int = 2,
        min_domain_size: int = 5,
    ):
        self.overlap_threshold = overlap_threshold
        self.min_support = min_support
        self.min_domain_size = min_domain_size

    def discover(self, lake: DataLake) -> list[DiscoveredDomain]:
        """Return discovered domains, largest first."""
        cols = [(ref, col.value_set()) for ref, col in lake.iter_text_columns()]
        cols = [(ref, vs) for ref, vs in cols if len(vs) >= 2]

        # Candidate pairs via a value -> columns inverted index (avoids the
        # all-pairs comparison on large lakes).
        index = InvertedIndex(vs for _, vs in cols)
        owners, bounds = index.posting_ids.tolist(), index.offsets.tolist()
        pair_overlap: Counter[tuple[int, int]] = Counter()
        for lo, hi in zip(bounds, bounds[1:]):
            # Values in too many columns are uninformative.
            if 2 <= hi - lo <= 50:
                pair_overlap.update(combinations(owners[lo:hi], 2))

        graph = nx.Graph()
        graph.add_nodes_from(range(len(cols)))
        for (a, b), inter in pair_overlap.items():
            smaller = min(len(cols[a][1]), len(cols[b][1]))
            if smaller and inter / smaller >= self.overlap_threshold:
                graph.add_edge(a, b)

        domains = []
        for component in nx.connected_components(graph):
            members = sorted(component)
            if len(members) < 2:
                continue
            support: Counter[str] = Counter()
            for i in members:
                support.update(cols[i][1])
            robust = {
                v for v, c in support.items() if c >= self.min_support
            }
            if len(robust) < self.min_domain_size:
                continue
            rep = max(robust, key=lambda v: (support[v], v))
            domains.append(
                DiscoveredDomain(
                    values=robust,
                    columns=[cols[i][0] for i in members],
                    representative=rep,
                )
            )
        domains.sort(key=lambda d: -len(d))
        return domains


def domain_recovery_score(
    discovered: list[DiscoveredDomain], truth: list[set[str]]
) -> float:
    """Mean best-F1 of each true domain against the discovered ones
    (the quality measure used by E8)."""
    if not truth:
        return 0.0
    total = 0.0
    for true_dom in truth:
        best = 0.0
        for d in discovered:
            inter = len(true_dom & d.values)
            if not inter:
                continue
            p = inter / len(d.values)
            r = inter / len(true_dom)
            best = max(best, 2 * p * r / (p + r))
        total += best
    return total / len(truth)
