"""Shared fixtures and corpus builders for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from diamaug import (
    BoundedCostDistances,
    ClusterCenters,
    InstanceError,
    PairTable,
    PathSource,
    PathWitness,
    WeightedInstance,
    apsp_b,
    ensure_unit_cost,
    ensure_valid,
    gen_random,
)
from diamaug.core import INF64, Dist, Pair, _dijkstra, graph_metric, ordered_pair, to_dist


def all_pairs(n: int) -> Iterator[Pair]:
    """All unordered vertex pairs of an n-vertex instance, lexicographic."""
    for u in range(n):
        for v in range(u + 1, n):
            yield (u, v)


def build(
    n: int,
    edges: set[tuple[int, int]],
    *,
    budget: int = 1,
    default_weight: int = 1,
    default_cost: int = 1,
    edge_weight: int | None = None,
    weight_overrides: dict[tuple[int, int], int] | None = None,
    cost_overrides: dict[tuple[int, int], int] | None = None,
) -> WeightedInstance:
    overrides = dict(weight_overrides or {})
    if edge_weight is not None:
        for edge in edges:
            overrides.setdefault(edge, edge_weight)
    return WeightedInstance(
        n=n,
        edges=frozenset(edges),
        weight=PairTable(default=default_weight, overrides=overrides),
        cost=PairTable(default=default_cost, overrides=cost_overrides or {}),
        budget=budget,
    )


def path_graph(n: int, **kwargs) -> WeightedInstance:
    return build(n, {(i, i + 1) for i in range(n - 1)}, **kwargs)


def cycle_graph(n: int, **kwargs) -> WeightedInstance:
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    return build(n, edges, **kwargs)


def complete_graph(n: int, **kwargs) -> WeightedInstance:
    return build(n, set(combinations(range(n), 2)), **kwargs)


def star_graph(leaves: int, **kwargs) -> WeightedInstance:
    return build(leaves + 1, {(0, i) for i in range(1, leaves + 1)}, **kwargs)


def p4(budget: int = 1, **kwargs) -> WeightedInstance:
    return path_graph(4, budget=budget, **kwargs)


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


def connected_unit_instances(max_n: int, budget: int) -> list[WeightedInstance]:
    """Every connected graph on up to max_n labeled vertices, unit weights/costs."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
            if _connected(n, edges):
                out.append(build(n, set(edges), budget=budget))
    return out


def seeded_corpus(
    count: int,
    seed: int,
    *,
    n_range: tuple[int, int] = (2, 7),
    budget_range: tuple[int, int] = (1, 3),
    max_weight: int = 3,
    max_cost: int = 2,
) -> list[WeightedInstance]:
    """Deterministic random instances; may be disconnected."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(*n_range)
        budget = rng.randint(*budget_range)
        p = rng.choice((0.25, 0.4, 0.6, 0.85))
        out.append(gen_random(n, p, max_weight, max_cost, budget, seed * 100_000 + i))
    return out


def override_corpus(
    count: int, seed: int, *, n_range: tuple[int, int] = (2, 8)
) -> list[WeightedInstance]:
    """Deterministic instances whose non-edges carry listed weights and costs.

    Overrides take zero weights and several cost classes, some above the
    budget (up to 2**70). Every third instance lists every pair's weight and
    has no default weight, and every third after that lists every non-edge's
    cost and has no default cost: partial tables.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(*n_range)
        budget = rng.randint(0, 4)
        pairs = list(all_pairs(n))
        edges = {pair for pair in pairs if rng.random() < 0.3}
        weights = {pair: rng.randint(0, 5) for pair in edges}
        costs: dict[Pair, int] = {}
        share = rng.choice((0.1, 0.4, 0.8))
        cost_values = list(range(1, budget + 3)) + [2**70]
        for pair in pairs:
            if pair in edges:
                continue
            if rng.random() < share:
                weights[pair] = rng.choice((0, 1, 2, 7))
            if rng.random() < share:
                costs[pair] = rng.choice(cost_values)
        default_weight: int | None = rng.randint(0, 5)
        default_cost: int | None = rng.choice(cost_values)
        if i % 3 == 1:
            weights = {pair: weights.get(pair, default_weight) for pair in pairs}
            default_weight = None
        elif i % 3 == 2:
            costs = {pair: costs.get(pair, default_cost) for pair in pairs if pair not in edges}
            default_cost = None
        out.append(
            WeightedInstance(
                n=n,
                edges=frozenset(edges),
                weight=PairTable(default=default_weight, overrides=weights),
                cost=PairTable(default=default_cost, overrides=costs),
                budget=budget,
            )
        )
    return out


_HEADROOM = (2**62 - 1) // 5  # largest weight that n = 5 admits

# Zero weights, disconnected graphs, n = 1, budget 0, costs above B, headroom weights.
EDGE_CASES = [
    build(1, set(), budget=2),
    build(4, {(0, 1), (2, 3)}, budget=0),
    build(5, {(0, 1), (1, 2)}, budget=1, default_cost=2),
    build(5, {(0, 1), (3, 4)}, budget=3, cost_overrides={(0, 4): 4, (1, 3): 2}),
    path_graph(5, budget=2, default_weight=0, edge_weight=0),
    build(5, {(0, 1), (1, 2)}, budget=2, default_weight=0, cost_overrides={(2, 3): 3}),
    path_graph(5, budget=2, default_weight=_HEADROOM, edge_weight=_HEADROOM),
    build(5, {(0, 1)}, budget=2, default_weight=_HEADROOM, default_cost=2),
    build(5, {(0, 1), (1, 2), (2, 3)}, budget=1, default_weight=_HEADROOM, edge_weight=0),
]


def _raw(n: int, edges, weight: PairTable, cost: PairTable, budget: int = 1) -> WeightedInstance:
    return WeightedInstance(n=n, edges=frozenset(edges), weight=weight, cost=cost, budget=budget)


_FULL_3 = PairTable(None, {(0, 1): 1, (0, 2): 1, (1, 2): 1})

# Instances that validation rejects, plus two partial or oversized ones it
# accepts: negative weights, costs below 1, keys out of range or not
# normalized, partial tables that miss a pair, and values beyond int64.
INVALID_CASES = [
    build(0, set()),
    build(-2, set()),
    build(3, {(0, 1)}, budget=-1),
    build(4, {(0, 1)}, default_weight=-1),
    build(4, {(0, 1), (1, 2)}, weight_overrides={(0, 1): -2, (0, 3): -5}),
    build(4, {(0, 1)}, default_cost=0),
    build(4, {(0, 1)}, cost_overrides={(0, 2): 0, (1, 3): -3, (0, 1): 0}),
    build(
        4,
        {(0, 1)},
        weight_overrides={(0, 9): 1, (-1, 2): 1, (2, 1): 7, (3, 3): 1},
        cost_overrides={(3, 0): 5, (4, 5): 0},
    ),
    build(4, {(0, 1), (2, 1), (0, 7), (-1, 3)}),
    _raw(3, {(0, 1)}, PairTable(None, {(0, 1): 1, (0, 2): 1}), PairTable(1)),
    _raw(4, {(0, 1)}, PairTable(1), PairTable(None, {(0, 2): 1, (0, 3): 0})),
    _raw(3, {(0, 1)}, _FULL_3, PairTable(None, {(0, 2): 1, (1, 2): 1})),
    _raw(3, {(0, 1)}, _FULL_3, PairTable(2)),
    build(4, {(0, 1)}, weight_overrides={(0, 2): 2**70}),
    build(4, {(0, 1)}, default_weight=2**70),
    build(
        4,
        {(0, 1)},
        weight_overrides={(0, 2): -(2**70)},
        cost_overrides={(0, 3): -(2**70), (1, 2): 2**70},
    ),
    build(4, {(0, 1)}, default_cost=-(2**70)),
    build(4, {(0, 1)}, default_cost=2**70, cost_overrides={(0, 2): 2**71}),
    build(4, {(0, 1)}, default_weight=2**62, default_cost=2**62, cost_overrides={(0, 2): 2**63}),
]


LayeredNode = tuple[int, int]  # (vertex, layer)


@dataclass(frozen=True, eq=False)
class LayeredDigraph:
    """Layered search digraph, the differential reference for ``apsp_b``.

    The instance graph is replicated into B+1 layers: staying inside a layer
    follows existing edges, jumping from layer ``i`` to layer
    ``i + cost({u, v})`` crosses the non-edge ``{u, v}``, and a zero-weight
    arc from ``(v, i)`` to ``(v, i + 1)`` lets a path stop spending early. The
    shortest directed distance from ``(u, 0)`` to ``(v, beta)`` is then the
    cheapest beta-bounded u-v path weight.

    ``nodes`` lists every (vertex, layer) pair; ``arcs`` lists
    (source, target, weight) triples sorted by (source, target).
    """

    n: int
    budget: int
    nodes: tuple[LayeredNode, ...]
    arcs: tuple[tuple[LayeredNode, LayeredNode, int], ...]


def build_layered_digraph(instance: WeightedInstance) -> LayeredDigraph:
    ensure_valid(instance)
    n, budget = instance.n, instance.budget
    nodes = tuple((v, i) for v in range(n) for i in range(budget + 1))
    arcs: list[tuple[LayeredNode, LayeredNode, int]] = []
    for i in range(budget + 1):
        for u, v in instance.edges:
            w = instance.weight.get(u, v)
            arcs.append(((u, i), (v, i), w))
            arcs.append(((v, i), (u, i), w))
    for u, v in instance.non_edges():
        c = instance.cost.get(u, v)
        w = instance.weight.get(u, v)
        for i in range(budget - c + 1):
            arcs.append(((u, i), (v, i + c), w))
            arcs.append(((v, i), (u, i + c), w))
    for v in range(n):
        for i in range(budget):
            arcs.append(((v, i), (v, i + 1), 0))
    arcs.sort(key=lambda arc: (arc[0], arc[1]))
    return LayeredDigraph(n=n, budget=budget, nodes=nodes, arcs=tuple(arcs))


def _engine_inputs(instance: WeightedInstance) -> dict[int, np.ndarray]:
    """The nonempty W_c (c <= budget) as dense uint64 matrices, INF64 for unreachable.

    The reference jump set: ``apsp_b`` reads the same jumps from its
    complement structure instead.
    """
    budget, dense = instance.budget, instance.dense
    weight = dense.weight.astype(np.uint64)  # a valid instance's weights lie in [0, INF64)
    cost = np.minimum(dense.cost, budget + 1)
    cost[dense.edge] = budget + 1  # existing edges are never inserted
    np.fill_diagonal(cost, budget + 1)
    # every entry is >= 1: validation checks non-edge costs, the rest are B+1
    present = np.bincount(cost.ravel(), minlength=budget + 2)[: budget + 1]
    return {
        c: np.where(cost == c, weight, np.uint64(INF64)) for c in np.flatnonzero(present).tolist()
    }


def _reference_min_plus(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out = min(out, a ⊗ b)``, one middle index at a time."""
    for k in range(a.shape[1]):
        np.minimum(out, a[:, k, None] + b[None, k, :], out=out)


def reference_table_rows(instance: WeightedInstance, rows: Sequence[int]) -> np.ndarray:
    """Rows ``rows`` of the bounded-cost table by dense (min,+) products, uint64.

    The reference for ``apsp_b``'s table: one product D_{beta-c} ⊗ W_c per
    cost class and one walk product per budget, with no use of the
    complement structure.
    """
    graph, jumps, budget = instance.metric, _engine_inputs(instance), instance.budget
    table = np.empty((budget + 1, len(rows), instance.n), dtype=np.uint64)
    table[0] = graph[np.array(rows, dtype=np.intp)]
    for beta in range(1, budget + 1):
        last_jump = np.full(table.shape[1:], INF64, dtype=np.uint64)
        for c, jump in jumps.items():
            if c <= beta:
                _reference_min_plus(table[beta - c], jump, last_jump)
        table[beta] = table[beta - 1]
        _reference_min_plus(last_jump, graph, table[beta])
    return table


def reference_witnesses(instance: WeightedInstance) -> dict[tuple[int, int, int], PathWitness]:
    """Witness paths for every finite (beta, source, v) entry, by a Python walk.

    The reference for ``PathSource.path_to`` and its tie-break: an entry
    that differs from D₀ ends with the first jump x -> y, looping over c,
    then x, then y ascending over the dense W_c, with
    D_{beta-c}[s, x] + W_c[x, y] + D₀[y, v] = D_beta[s, v]. The table is
    ``reference_table_rows``; graph paths follow ``_dijkstra`` trees.
    """
    n, budget = instance.n, instance.budget
    table = reference_table_rows(instance, range(n)).tolist()
    graph = instance.metric.tolist()
    jumps = {c: jump.tolist() for c, jump in sorted(_engine_inputs(instance).items())}
    trees = [_dijkstra(instance, a)[1] for a in range(n)]

    def graph_path(a: int, b: int) -> list[int]:
        path = [b]
        while path[-1] != a:
            path.append(trees[a][path[-1]])
        return path[::-1]

    def last_jump(s: int, beta: int, v: int) -> tuple[int, int, int]:
        target = table[beta][s][v]
        for c, jump in jumps.items():
            if c > beta:
                break
            for x in range(n):
                for y in range(n):
                    if table[beta - c][s][x] + jump[x][y] + graph[y][v] == target:
                        return c, x, y
        raise AssertionError(f"entry ({beta}, {s}, {v}) has no last jump")

    out = {}
    for start_beta in range(budget + 1):
        for s in range(n):
            for start_v in range(n):
                if table[start_beta][s][start_v] >= INF64:
                    continue
                beta, v = start_beta, start_v
                tails: list[list[int]] = []
                used: set[Pair] = set()
                cost = 0
                while table[beta][s][v] != graph[s][v]:
                    c, x, y = last_jump(s, beta, v)
                    tails.append(graph_path(y, v))
                    used.add(ordered_pair(x, y))
                    cost += c
                    beta, v = beta - c, x
                vertices = graph_path(s, v)
                for tail in reversed(tails):
                    vertices += tail
                weight = sum(instance.weight.get(a, b) for a, b in zip(vertices, vertices[1:]))
                out[start_beta, s, start_v] = PathWitness(
                    tuple(vertices), frozenset(used), weight, cost
                )
    return out


def dijkstra_rows(instance: WeightedInstance, added=()) -> list[list[Dist]]:
    """Graph metric rows by one Dijkstra per source over the edges plus ``added``.

    The reference for ``graph_metric``'s consumers: it shares only the
    instance model with them, not the Floyd–Warshall.
    """
    augmented = replace(instance, edges=instance.edges | {ordered_pair(*p) for p in added})
    return [_dijkstra(augmented, s)[0] for s in range(instance.n)]


# One-row shorthands over the package's engines, for tests that check a
# single source or a single witness.


def sssp(instance: WeightedInstance, source: int, added: Iterable[Pair] = ()) -> list[Dist]:
    """Distances from ``source`` using the instance edges plus ``added`` pairs.

    Row ``source`` of the cached D₀ when ``added`` is empty, else of a fresh
    ``graph_metric``; unreachable vertices get ``INF``.
    """
    if not (0 <= source < instance.n):
        raise ValueError(f"source {source} out of range for n={instance.n}")
    metric = graph_metric(instance, added) if added else instance.metric
    return [to_dist(d) for d in metric[source].tolist()]


def sssp_b(instance: WeightedInstance, source: int) -> PathSource:
    """Bounded-cost distances from one source, for every budget 0..B."""
    return PathSource(apsp_b(instance, (source,)), source)


def reconstruct_path(dists: BoundedCostDistances, beta: int, u: int, v: int) -> PathWitness:
    """Witness path for a finite entry of ``dists``; ``u`` must be one of its sources."""
    return PathSource(dists, u).path_to(v, beta)


def reference_centers(instance: WeightedInstance, first_center: int) -> ClusterCenters:
    """Farthest-first traversal as a loop over Dijkstra rows.

    The reference for ``greedy_centers``: ties for farthest go to the
    smallest id, a vertex no center reaches counts as farthest, and
    assignment ties keep the earlier center.
    """
    n = instance.n
    rows = dijkstra_rows(instance)
    centers = [first_center]
    best = list(rows[first_center])
    assignment = [0] * n
    while len(centers) < min(instance.budget + 1, n):
        farthest, farthest_dist = -1, -1
        for v in range(n):
            if v not in centers and best[v] > farthest_dist:
                farthest, farthest_dist = v, best[v]
        centers.append(farthest)
        for v in range(n):
            if rows[farthest][v] < best[v]:
                best[v] = rows[farthest][v]
                assignment[v] = len(centers) - 1
    return ClusterCenters(
        centers=tuple(centers),
        assignment=tuple(assignment),
        center_distances=tuple(best),
        radius=max(best),
    )


# Pair-by-pair loops over ``PairTable.get``: the differential references for
# the dense pair view's consumers (validation, canonical text, the unit-cost
# check and the MST connectors).


def _covers(table: PairTable, n: int) -> bool:
    return table.default is not None or all(pair in table.overrides for pair in all_pairs(n))


def reference_validate(instance: WeightedInstance) -> list[str]:
    """``validate`` as one ``get`` per vertex pair; same messages, same order."""
    problems: list[str] = []
    n = instance.n
    if n < 1:
        problems.append(f"vertex count must be >= 1, got {n}")
        return problems
    if instance.budget < 0:
        problems.append(f"budget must be >= 0, got {instance.budget}")

    for pair in instance.edges:
        u, v = pair
        if not (0 <= u < v < n):
            problems.append(f"edge {pair} is not a normalized pair of distinct vertices in [0, {n})")

    for table, name in ((instance.weight, "weight"), (instance.cost, "cost")):
        for pair, value in table.overrides.items():
            u, v = pair
            if not (0 <= u < v < n):
                problems.append(f"{name} override {pair} is out of range")

    if not _covers(instance.weight, n):
        problems.append("weight not total: no default and some pairs unlisted")
    if instance.cost.default is None and any(
        pair not in instance.cost.overrides
        for pair in all_pairs(n)
        if pair not in instance.edges
    ):
        problems.append("cost not total: no default and some non-edges unlisted")

    if instance.weight.default is not None and instance.weight.default < 0:
        problems.append(f"default weight must be >= 0, got {instance.weight.default}")
    for pair, value in instance.weight.overrides.items():
        if value < 0:
            problems.append(f"weight of {pair} must be >= 0, got {value}")

    for pair in all_pairs(n):
        if pair in instance.edges:
            continue
        try:
            cost = instance.cost.get(*pair)
        except KeyError:
            continue
        if cost < 1:
            problems.append(f"cost of non-edge {pair} must be >= 1, got {cost}")

    if _covers(instance.weight, n) and n * instance.weight.max_value() >= INF64:
        problems.append(
            f"overflow headroom exceeded: n * max_weight = {n * instance.weight.max_value()} "
            f"must stay below {INF64}"
        )
    return problems


def reference_serialize_instance(instance: WeightedInstance) -> str:
    """``serialize_instance`` as one ``get`` per vertex pair."""
    lines = [f"n {instance.n}", f"B {instance.budget}"]
    dw, dc = instance.weight.default, instance.cost.default
    if dw is not None or dc is not None:
        if dw is None or dc is None:
            raise ValueError("cannot serialize: only one of the default weight/cost is set")
        lines.append(f"default_nonedge weight {dw} cost {dc}")
    for u, v in sorted(instance.edges):
        lines.append(f"edge {u} {v} {instance.weight.get(u, v)}")
    for u, v in all_pairs(instance.n):
        if (u, v) in instance.edges:
            continue
        w = instance.weight.get(u, v)
        c = instance.cost.get(u, v)
        if w != dw or c != dc:
            lines.append(f"nonedge {u} {v} {w} {c}")
    return "\n".join(lines) + "\n"


def outcome(call, *args):
    """A call's result, or the type and text of what it raised."""
    try:
        return call(*args)
    except Exception as exc:  # compared, not handled: both sides must fail alike
        return type(exc), str(exc)


def unit_cost_error(instance: WeightedInstance) -> str | None:
    """The message ``ensure_unit_cost`` raises, or None when it accepts."""
    try:
        ensure_unit_cost(instance)
    except InstanceError as exc:
        return str(exc)
    return None


def reference_unit_cost_error(instance: WeightedInstance) -> str | None:
    """The message ``ensure_unit_cost`` raises, from a lexicographic non-edge scan."""
    try:
        ensure_valid(instance)
    except InstanceError as exc:
        return str(exc)
    for u, v in instance.non_edges():
        cost = instance.cost.get(u, v)
        if cost != 1:
            return f"unit-cost solver requires cost 1 on non-edges, ({u}, {v}) costs {cost}"
    return None


def reference_connectors(
    instance: WeightedInstance, members: list[tuple[int, ...]]
) -> dict[tuple[int, int], tuple[int, bool, int, int]]:
    """Lightest (weight, non-edge, u, v) connector of every pair of non-empty clusters."""
    occupied = [i for i, vs in enumerate(members) if vs]
    connectors = {}
    for a_pos, i in enumerate(occupied):
        for j in occupied[a_pos + 1 :]:
            connectors[(i, j)] = min(
                (instance.weight.get(u, v), not instance.is_edge(u, v), u, v)
                for u in members[i]
                for v in members[j]
            )
    return connectors
