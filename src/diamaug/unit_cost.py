"""Polynomial-time solvers for instances where every insertion costs 1.

With unit costs the budget k is simply a number of new edges, which admits
cheaper center-based strategies than the budget-exponential solver:

* ``pairwise_centers``: connect every pair of the k+1 greedy centers by a
  cheapest k-bounded path; spends up to k(k+1)^2 insertions for a diameter
  within 3x of the best achievable.
* ``star_centers``: connect the first center to every other center the same
  way; up to k^2 insertions, diameter within 4x.
* ``cluster_spanning_mst``: join the k+1 clusters by a minimum spanning
  tree over their lightest connecting pairs; at most k insertions, diameter
  within (3k+2)x.
"""

from __future__ import annotations

import numpy as np

from .budget_paths import NoPathError, PathSource, apsp_b
from .clustering import greedy_centers
from .core import (
    Augmentation,
    InstanceError,
    Pair,
    WeightedInstance,
    augment,
    ensure_valid,
)


def ensure_unit_cost(instance: WeightedInstance) -> None:
    """Raise InstanceError unless every non-edge has insertion cost 1.

    The error names the lexicographically first offending non-edge.
    """
    ensure_valid(instance)
    dense = instance.dense
    offending = np.triu(~dense.edge & (dense.cost != 1), 1)
    if offending.any():
        u, v = divmod(int(np.argmax(offending)), instance.n)  # first in row-major order
        raise InstanceError(
            f"unit-cost solver requires cost 1 on non-edges, ({u}, {v}) costs "
            f"{instance.cost.get(u, v)}"
        )


def _join_centers(instance: WeightedInstance, first_center: int, rows: int) -> Augmentation:
    """Join each of the first ``rows`` centers to every later center by a k-bounded path.

    ``rows`` is a slice stop over the centers, so -1 means all but the last.
    One bounded-cost table holds those centers' rows, and each row serves
    all of that center's pairs. Unreachable center pairs contribute nothing.
    """
    ensure_unit_cost(instance)
    centers = greedy_centers(instance, first_center).centers
    dists = apsp_b(instance, centers[:rows])
    added: set[Pair] = set()
    for i, ci in enumerate(centers[:rows]):
        source = PathSource(dists, ci)
        for cj in centers[i + 1 :]:
            try:
                witness = source.path_to(cj, instance.budget)
            except NoPathError:
                continue
            added.update(witness.used_non_edges)
    return augment(instance, added)


def pairwise_centers(instance: WeightedInstance, first_center: int = 0) -> Augmentation:
    """Insert the non-edges of a cheapest k-bounded path between every center pair."""
    return _join_centers(instance, first_center, rows=-1)


def star_centers(instance: WeightedInstance, first_center: int = 0) -> Augmentation:
    """Insert the non-edges of cheapest k-bounded paths from the first center."""
    return _join_centers(instance, first_center, rows=1)


def _lightest_connectors(
    instance: WeightedInstance, members: list[tuple[int, ...]]
) -> dict[tuple[int, int], tuple[int, bool, int, int]]:
    """Smallest (weight, non-edge, u, v) with u in cluster i and v in cluster j.

    One entry per pair i < j of non-empty clusters, each found by a stable
    lexsort over the members[i] × members[j] block: members ascend, so ties
    in (weight, non-edge) keep the smallest (u, v).
    """
    dense = instance.dense
    occupied = [i for i, vs in enumerate(members) if vs]
    connectors = {}
    for a_pos, i in enumerate(occupied):
        for j in occupied[a_pos + 1 :]:
            block = np.ix_(members[i], members[j])
            weight, non_edge = dense.weight[block].ravel(), ~dense.edge[block].ravel()
            first = int(np.lexsort((non_edge, weight))[0])
            a, b = divmod(first, len(members[j]))
            connectors[(i, j)] = (
                int(weight[first]),
                bool(non_edge[first]),
                members[i][a],
                members[j][b],
            )
    return connectors


def cluster_spanning_mst(instance: WeightedInstance, first_center: int = 0) -> Augmentation:
    """Join the clusters along a minimum spanning tree of lightest connectors.

    For every pair of non-empty clusters the lightest connecting vertex pair
    becomes a candidate; a minimum spanning tree over those candidates is
    selected and only its non-edge connectors are inserted, so at most k
    edges are spent. Within one cluster pair, weight ties prefer an existing
    edge, then the smallest (u, v). Kruskal then takes the connectors in
    (weight, cluster i, cluster j) order, so across cluster pairs a weight
    tie goes to the smaller cluster pair, edge or not.
    """
    ensure_unit_cost(instance)
    clusters = greedy_centers(instance, first_center)
    members = [clusters.members(i) for i in range(len(clusters.centers))]
    occupied = [i for i, vs in enumerate(members) if vs]
    connectors = _lightest_connectors(instance, members)

    # Kruskal over the cluster graph; candidate order fixes all ties.
    ranked = sorted(
        (weight, i, j, u, v)
        for (i, j), (weight, _, u, v) in connectors.items()
    )
    parent = {i: i for i in occupied}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    added: set[Pair] = set()
    for weight, i, j, u, v in ranked:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        pair = (u, v) if u < v else (v, u)
        if pair not in instance.edges:
            added.add(pair)
    return augment(instance, added)
