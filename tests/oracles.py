"""Brute-force references that the tests hold the solvers to.

Everything here realizes a definition directly -- subset enumeration over
candidate insertions, exhaustive simple-path search, exhaustive covering
search -- and shares no code path with the solvers it validates: distances
come from ``diamaug.oracle``'s own Floyd–Warshall, updated one inserted edge
at a time. Hard size guards refuse oversized inputs instead of silently
truncating.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from diamaug.core import (
    INF,
    INF64,
    Dist,
    InstanceError,
    Pair,
    WeightedInstance,
    ensure_valid,
    to_dist,
)
from diamaug.oracle import OracleLimitError, _base_matrix, _with_edge
from helpers import all_pairs, non_edges

# Default guards of the span-height and feasibility searches.
MAX_NONEDGES = 28
MAX_NODES = 2_000_000


def pair_steps(instance: WeightedInstance) -> list[list[tuple[int, int]]]:
    """(weight, insertion cost) of every vertex pair, with cost 0 on edges, for
    :func:`path_oracle`; guards to n <= 8. Read once per instance: the table
    serves every (u, v, beta) query."""
    ensure_valid(instance)
    n = instance.n
    if n > 8:
        raise OracleLimitError(f"path oracle is limited to n <= 8, got n={n}")
    return [
        [
            (instance.weight.get(x, y), 0 if instance.is_edge(x, y) else instance.cost.get(x, y))
            if x != y
            else (0, 0)
            for y in range(n)
        ]
        for x in range(n)
    ]


def path_oracle(
    instance: WeightedInstance,
    u: int,
    v: int,
    beta: int,
    steps: list[list[tuple[int, int]]] | None = None,
) -> Dist:
    """Minimum weight over all simple u-v paths using non-edges of total cost <= beta.

    Exhaustive depth-first enumeration over the complete graph on the
    instance vertices; guards to n <= 8. ``steps`` is the instance's
    :func:`pair_steps`, read here when not given.
    """
    steps = pair_steps(instance) if steps is None else steps
    n = len(steps)
    if u == v:
        return 0
    best: Dist = INF
    visited = [False] * n
    visited[u] = True

    def dfs(x: int, weight: int, cost_used: int) -> None:
        nonlocal best
        if weight >= best:
            return
        for y, (w, c) in enumerate(steps[x]):
            if visited[y]:
                continue
            spent = cost_used + c
            if spent > beta:
                continue
            step = weight + w
            if y == v:
                if step < best:
                    best = step
                continue
            visited[y] = True
            dfs(y, step, spent)
            visited[y] = False

    dfs(u, 0, 0)
    return best


def span_height_profile(
    instance: WeightedInstance,
    targets: Sequence[int],
    root: int,
    budget: int,
    *,
    max_nonedges: int = MAX_NONEDGES,
    max_nodes: int = MAX_NODES,
) -> list[Dist]:
    """For each j in 0..budget, the least achievable spanning height.

    The spanning height of an augmented graph is the largest distance from
    ``root`` to any target; minimizing it over all insertion sets of cost at
    most j is what the subset dynamic program computes, so this enumeration
    is its independent check. Guards to at most 3 targets.
    """
    ensure_valid(instance)
    if not (0 <= root < instance.n):
        raise ValueError(f"source {root} out of range for n={instance.n}")
    targets = tuple(targets)
    if len(targets) > 3:
        raise OracleLimitError(f"span-height oracle is limited to 3 targets, got {len(targets)}")
    pairs = non_edges(instance)
    if len(pairs) > max_nonedges:
        raise OracleLimitError(
            f"instance too large: {len(pairs)} non-edges exceed the guard ({max_nonedges})"
        )
    costs = [instance.cost.get(u, v) for (u, v) in pairs]
    heights: list[Dist] = [INF] * (budget + 1)
    explored = 0

    def visit(d: np.ndarray, start: int, cost_used: int) -> None:
        nonlocal explored
        explored += 1
        if explored > max_nodes:
            raise OracleLimitError(
                f"instance too large: enumeration exceeded {max_nodes} candidate sets"
            )
        h = max((to_dist(int(d[root, t]), INF64) for t in targets), default=0)
        for j in range(cost_used, budget + 1):
            if h < heights[j]:
                heights[j] = h
        for idx in range(start, len(pairs)):
            c = costs[idx]
            if cost_used + c > budget:
                continue
            u, v = pairs[idx]
            visit(_with_edge(d, u, v, instance.weight.get(u, v)), idx + 1, cost_used + c)

    visit(_base_matrix(instance), 0, 0)
    return heights


def span_height_oracle(
    instance: WeightedInstance,
    targets: Sequence[int],
    root: int,
    budget: int,
    **guards: int,
) -> Dist:
    """Least spanning height achievable with insertions of cost <= budget."""
    return span_height_profile(instance, targets, root, budget, **guards)[budget]


def diameter2_feasible(
    instance: WeightedInstance,
    *,
    max_nodes: int = MAX_NODES,
) -> bool:
    """Decide whether insertions within budget can bring the diameter to <= 2.

    Only defined for unit-weight instances, where "distance at most 2" means
    "adjacent or sharing a neighbor". Complete search: a pair at distance
    greater than 2 can only be fixed by a new edge incident to one of its
    endpoints, so branching over those candidates never misses a solution.
    """
    ensure_valid(instance)
    n = instance.n
    for u, v in all_pairs(n):
        if instance.weight.get(u, v) != 1:
            raise InstanceError("diameter-2 feasibility oracle requires unit weights")

    base = [0] * n
    for u, v in instance.edges:
        base[u] |= 1 << v
        base[v] |= 1 << u

    nodes = 0

    def first_deficient(adj: list[int]) -> Pair | None:
        for u in range(n):
            row = adj[u]
            for v in range(u + 1, n):
                if not (row >> v) & 1 and not row & adj[v]:
                    return (u, v)
        return None

    def search(adj: list[int], budget_left: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise OracleLimitError(f"feasibility search exceeded {max_nodes} nodes")
        pair = first_deficient(adj)
        if pair is None:
            return True
        if budget_left <= 0:
            return False
        u, v = pair
        candidates: set[Pair] = set()
        for x in range(n):
            if x != u and not (adj[u] >> x) & 1:
                candidates.add((u, x) if u < x else (x, u))
            if x != v and not (adj[v] >> x) & 1:
                candidates.add((v, x) if v < x else (x, v))
        for a, b in sorted(candidates):
            c = instance.cost.get(a, b)
            if c > budget_left:
                continue
            adj2 = list(adj)
            adj2[a] |= 1 << b
            adj2[b] |= 1 << a
            if search(adj2, budget_left - c):
                return True
        return False

    return search(base, instance.budget)


def has_cover(sets: Sequence[frozenset[int]], universe_size: int, k: int) -> bool:
    """Brute-force covering decision: can <= k of the sets cover the universe."""
    universe = frozenset(range(universe_size))
    if not universe:
        return True
    for r in range(1, min(k, len(sets)) + 1):
        for combo in combinations(sets, r):
            if frozenset().union(*combo) >= universe:
                return True
    return False
