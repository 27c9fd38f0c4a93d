"""Data lake organization for navigation (Nargesian et al., SIGMOD'20).

Builds a hierarchical organization (a DAG of topic nodes over tables) so a
user can *navigate* to a table of interest instead of searching.  The
navigation model: at each node the user follows the child most similar to
their intent; the organization is good if relevant tables are reached with
high probability / few steps.  We build the hierarchy by recursive k-means
style bisection of table embedding vectors and evaluate with the expected
navigation-cost model from the paper (E11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class OrgNode:
    """A node in the organization DAG."""

    node_id: int
    tables: list[str] = field(default_factory=list)  # leaves under this node
    children: list["OrgNode"] = field(default_factory=list)
    centroid: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class Organization:
    """A navigation hierarchy over tables with vector representations:
    ``vectors`` maps each table under ``root`` to the vector it was
    placed by."""

    def __init__(self, root: OrgNode, vectors: dict[str, np.ndarray]):
        self.root = root
        self.vectors = vectors

    @classmethod
    def build(
        cls,
        vectors: dict[str, np.ndarray],
        branching: int = 4,
        max_leaf_size: int = 4,
        seed: int = 0,
    ) -> "Organization":
        """Recursive k-means bisection into a ``branching``-ary hierarchy."""
        names = sorted(vectors)
        counter = [0]

        def make_node(members: list[str]) -> OrgNode:
            node = OrgNode(counter[0], tables=list(members))
            counter[0] += 1
            mat = np.vstack([vectors[m] for m in members])
            node.centroid = _unit(mat.mean(axis=0))
            if len(members) > max_leaf_size:
                groups = _kmeans_split(
                    members, vectors, min(branching, len(members)), seed + node.node_id
                )
                if len(groups) > 1:
                    node.children = [make_node(g) for g in groups]
            return node

        return cls(make_node(names), vectors)

    # -- navigation model -------------------------------------------------------------

    def navigate(
        self, intent: np.ndarray, max_steps: int = 64
    ) -> tuple[list[int], list[str]]:
        """Greedy navigation: follow the child whose centroid best matches
        the intent vector.  Returns (node path, tables at the final node)."""
        intent = _unit(intent)
        node = self.root
        path = [node.node_id]
        steps = 0
        while not node.is_leaf and steps < max_steps:
            node = max(
                node.children,
                key=lambda c: (float(np.dot(intent, c.centroid)), -c.node_id),
            )
            path.append(node.node_id)
            steps += 1
        return path, list(node.tables)

    def navigation_success(
        self, intent: np.ndarray, target: str
    ) -> tuple[bool, int]:
        """Did greedy navigation reach the target, and in how many steps?"""
        path, tables = self.navigate(intent)
        return target in tables, len(path) - 1

    def expected_cost(
        self,
        probes: list[tuple[np.ndarray, str]],
        miss_penalty: int | None = None,
    ) -> float:
        """Mean navigation cost over (intent, target) probes.

        Cost of a hit = steps taken + size of the final leaf (the user scans
        it); a miss costs ``miss_penalty`` (default: total table count, i.e.
        falling back to the flat list)."""
        total_tables = len(self.root.tables)
        miss = miss_penalty if miss_penalty is not None else total_tables
        costs = []
        for intent, target in probes:
            path, tables = self.navigate(intent)
            if target in tables:
                costs.append(len(path) - 1 + len(tables))
            else:
                costs.append(miss)
        return float(np.mean(costs)) if costs else 0.0

    def num_nodes(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            n = stack.pop()
            count += 1
            stack.extend(n.children)
        return count

    def depth(self) -> int:
        def d(node: OrgNode) -> int:
            return 1 + max((d(c) for c in node.children), default=0)

        return d(self.root)


def flat_navigation_cost(n_tables: int) -> float:
    """Expected cost of scanning a flat list (the E11 baseline): on average
    the user inspects half the lake."""
    return n_tables / 2.0


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _kmeans_split(
    members: list[str],
    vectors: dict[str, np.ndarray],
    k: int,
    seed: int,
    iters: int = 12,
) -> list[list[str]]:
    """Spherical k-means returning non-empty groups."""
    rng = np.random.default_rng(seed)
    mat = np.vstack([_unit(vectors[m]) for m in members])
    k = min(k, len(members))
    centers = mat[rng.choice(len(members), size=k, replace=False)]
    assign = np.zeros(len(members), dtype=int)
    for _ in range(iters):
        sims = mat @ centers.T
        new_assign = sims.argmax(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            mask = assign == c
            if mask.any():
                centers[c] = _unit(mat[mask].mean(axis=0))
    groups = [
        [members[i] for i in range(len(members)) if assign[i] == c]
        for c in range(k)
    ]
    groups = [g for g in groups if g]
    if len(groups) <= 1 or any(len(g) == len(members) for g in groups):
        # Degenerate clustering: fall back to a deterministic even split.
        mid = math.ceil(len(members) / 2)
        groups = [members[:mid], members[mid:]]
        groups = [g for g in groups if g]
    return groups
