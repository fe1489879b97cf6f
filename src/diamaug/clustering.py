"""Greedy farthest-first selection of cluster centers.

Picks budget+1 centers: an arbitrary first one, then repeatedly the vertex
farthest (in the bare graph metric D₀) from everything selected so far. The
resulting covering radius never exceeds the optimal achievable diameter,
which is what makes the centers a safe skeleton for the solvers built on
top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dist, WeightedInstance, to_dist


@dataclass(frozen=True)
class ClusterCenters:
    """Selected centers with the induced assignment.

    Attributes:
        centers: centers in selection order (min(budget + 1, n) of them).
        assignment: per-vertex index into ``centers`` of its nearest center,
            ties resolved toward the earliest-selected center.
        center_distances: per-vertex distance to its assigned center.
        radius: largest of those distances (may be INF on disconnected
            inputs).
    """

    centers: tuple[int, ...]
    assignment: tuple[int, ...]
    center_distances: tuple[Dist, ...]
    radius: Dist

    def members(self, center_index: int) -> tuple[int, ...]:
        """Vertices assigned to the given center, ascending."""
        return tuple(
            v for v, c in enumerate(self.assignment) if c == center_index
        )


def greedy_centers(instance: WeightedInstance, first_center: int = 0) -> ClusterCenters:
    """Farthest-first traversal from ``first_center``.

    Each round reads the new center's row of D₀ and keeps the per-vertex
    best distance. Ties for the farthest vertex go to the smallest vertex
    id; a vertex unreachable from every selected center counts as farthest;
    assignment ties keep the earlier center. When n <= budget + 1 every
    vertex becomes a center and the radius is 0.
    """
    metric = instance.metric.view(np.int64)  # validates; entries <= INF64 < 2**63
    n = instance.n
    if not (0 <= first_center < n):
        raise ValueError(f"first center {first_center} out of range for n={n}")
    count = min(instance.budget + 1, n)

    centers = [first_center]
    best = metric[first_center].copy()
    assignment = np.zeros(n, dtype=np.intp)
    unselected = np.ones(n, dtype=bool)
    unselected[first_center] = False

    while len(centers) < count:
        farthest = int(np.argmax(np.where(unselected, best, -1)))  # first maximum
        centers.append(farthest)
        unselected[farthest] = False
        closer = metric[farthest] < best
        best[closer] = metric[farthest][closer]
        assignment[closer] = len(centers) - 1

    distances = tuple(to_dist(d) for d in best.tolist())
    return ClusterCenters(
        centers=tuple(centers),
        assignment=tuple(assignment.tolist()),
        center_distances=distances,
        radius=max(distances),
    )
