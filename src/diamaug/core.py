"""Instance model, validation and the graph metric.

An instance is an undirected graph on vertices ``0..n-1`` with nonnegative
integer edge weights. Every vertex pair additionally carries a weight (the
weight a new edge would have if inserted) and every non-edge a positive
insertion cost. A solver may insert non-edges whose costs sum to at most the
instance budget, trying to shrink the diameter of the augmented graph.

All arithmetic is integer-only; unreachable distances are represented by
``math.inf``, which absorbs addition and compares greater than every finite
value. :func:`graph_metric` is the one all-pairs shortest-path routine. An
instance caches its validation and its metric D₀, which :func:`diameter` never reads.

Every scan over all vertex pairs reads one cached dense view of the instance,
:class:`DensePairs`: weight and cost as symmetric n×n int64 matrices, an edge
mask, and masks of the pairs each table lists. Matrix entries saturate at
±INF64 (2**62). Every weight of a valid instance lies below that bound, so
weights are exact; costs are unbounded, so a cost of 2**70 reads as INF64 in
the view. A value that is printed or summed is read from the
:class:`PairTable`, never from the view.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

import numpy as np

INF = math.inf

# Finite values are ints; math.inf marks "unreachable".
Dist = int | float

Pair = tuple[int, int]

# int64 stand-in for INF in numpy distance tables. It is also the headroom
# bound: validation keeps every finite distance below it, so table entries
# are exact and two of them add up without wrapping in uint64.
INF64 = 2**62


def to_dist(value: int) -> Dist:
    """A numpy table entry as a Dist: INF for INF64 (or above), else the int."""
    return INF if value >= INF64 else int(value)


class InstanceError(ValueError):
    """Raised when an operation receives an invalid instance."""


def ordered_pair(u: int, v: int) -> Pair:
    """Normalize an unordered vertex pair to (min, max)."""
    if u == v:
        raise ValueError(f"pair must have distinct endpoints, got ({u}, {v})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class PairTable:
    """Symmetric integer function over unordered vertex pairs.

    Stored as a default value plus per-pair overrides; pairs not listed in
    ``overrides`` take ``default``. A table with ``default=None`` is partial
    and only valid if the overrides cover every pair (checked by
    :func:`validate`). ``overrides`` is a read-only view of a private copy,
    so caches built from a table cannot go stale.
    """

    default: int | None
    overrides: Mapping[Pair, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", MappingProxyType(dict(self.overrides)))

    def get(self, u: int, v: int) -> int:
        value = self.overrides.get(ordered_pair(u, v), self.default)
        if value is None:
            raise KeyError(f"pair ({u}, {v}) has no value and no default")
        return value

    def max_value(self) -> int:
        values = list(self.overrides.values())
        if self.default is not None:
            values.append(self.default)
        return max(values, default=0)


def _saturated(values: Collection[int]) -> np.ndarray:
    """Python ints of any size as int64, each clipped to [-INF64, INF64]."""
    try:
        array = np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:  # some value lies beyond int64: clip the exact ints instead
        array = np.array(list(values), dtype=object).clip(-INF64, INF64).astype(np.int64)
    return array.clip(-INF64, INF64)


def _pair_index(pairs: Collection[Pair], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of the normalized pairs of distinct vertices in [0, n).

    The third array marks which of ``pairs``, in iteration order, those are.
    Other keys are skipped: ``get`` never reads them, and :func:`validate`
    reports them.
    """
    try:
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
    except OverflowError:  # a vertex beyond int64 is out of range anyway
        flat = np.array([-1 if abs(x) > INF64 else x for x in chain.from_iterable(pairs)])
    rows, cols = flat.reshape(-1, 2).T
    kept = (0 <= rows) & (rows < cols) & (cols < n)
    return rows[kept], cols[kept], kept


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _dense_table(table: PairTable, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``table`` as a symmetric n×n int64 matrix, and the mask of the pairs it lists.

    Entries take the saturated default, 0 when the table is partial.
    """
    rows, cols, kept = _pair_index(table.overrides.keys(), n)
    values = _saturated(table.overrides.values())[kept]
    fill = 0 if table.default is None else _saturated([table.default])[0]
    matrix = np.full((n, n), fill, dtype=np.int64)
    listed = np.zeros((n, n), dtype=bool)
    matrix[rows, cols] = matrix[cols, rows] = values
    listed[rows, cols] = listed[cols, rows] = True
    return _read_only(matrix), _read_only(listed)


@dataclass(frozen=True, eq=False)
class DensePairs:
    """Every vertex pair of an instance as read-only n×n numpy arrays.

    ``weight`` and ``cost`` are symmetric int64 matrices whose entries
    saturate at ±INF64: a valid instance's weights are exact, but a cost may
    exceed the bound, so values that are printed or summed come from the
    ``PairTable``. ``weight_listed`` and ``cost_listed`` mark the pairs each
    table's overrides name; an unlisted pair of a partial table holds 0.
    ``edge`` marks the edges. Keys outside [0, n) or not normalized are
    skipped, as ``get`` skips them. The diagonal holds no pair: every mask is
    False there.
    """

    weight: np.ndarray
    cost: np.ndarray
    weight_listed: np.ndarray
    cost_listed: np.ndarray
    edge: np.ndarray

    @classmethod
    def of(cls, instance: WeightedInstance) -> DensePairs:
        n = max(instance.n, 0)
        weight, weight_listed = _dense_table(instance.weight, n)
        cost, cost_listed = _dense_table(instance.cost, n)
        rows, cols, _ = _pair_index(instance.edges, n)
        edge = np.zeros((n, n), dtype=bool)
        edge[rows, cols] = edge[cols, rows] = True
        return cls(weight, cost, weight_listed, cost_listed, _read_only(edge))


@dataclass(frozen=True)
class WeightedInstance:
    """An augmentation problem instance.

    Attributes:
        n: vertex count (vertices are 0..n-1).
        edges: existing undirected edges, as normalized pairs.
        weight: weight of every pair, existing edges and candidate
            insertions alike.
        cost: insertion cost of every pair; consulted only on non-edges and
            required to be a positive integer there.
        budget: total insertion budget.

    The cached properties assume the instance never changes; the tables'
    overrides are read-only. ``dense`` is the one n×n view of the pairs
    (see :class:`DensePairs`); it is built on first use, by validation or
    by any other scan over all pairs.
    """

    n: int
    edges: frozenset[Pair]
    weight: PairTable
    cost: PairTable
    budget: int

    @cached_property
    def dense(self) -> DensePairs:
        """The weight, cost and edge matrices, built once, read-only."""
        return DensePairs.of(self)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor, weight) pairs, neighbors ascending."""
        weight = self.dense.weight
        return tuple(
            tuple(zip(neighbors.tolist(), weight[u, neighbors].tolist()))
            for u, neighbors in enumerate(map(np.flatnonzero, self.dense.edge))
        )

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """:func:`validate`'s findings, computed once for :func:`ensure_valid`."""
        return tuple(validate(self))

    @cached_property
    def metric(self) -> np.ndarray:
        """D₀: :func:`graph_metric` of the bare instance, computed once, read-only."""
        metric = graph_metric(self)
        metric.flags.writeable = False
        return metric

    def is_edge(self, u: int, v: int) -> bool:
        return ordered_pair(u, v) in self.edges

    def non_edges(self) -> list[Pair]:
        """All insertable pairs, lexicographically sorted."""
        rows, cols = np.nonzero(np.triu(~self.dense.edge, 1))
        return list(zip(rows.tolist(), cols.tolist()))


@dataclass(frozen=True)
class Augmentation:
    """A set of inserted non-edges with its total cost and resulting diameter."""

    added: frozenset[Pair]
    total_cost: int
    diameter: Dist


def validate(instance: WeightedInstance) -> list[str]:
    """Check every instance invariant and report violations.

    Returns the list of violated invariants; an empty list means the
    instance is valid. Never raises and never mutates.
    """
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

    dense = instance.dense
    weight_total = instance.weight.default is not None or not np.triu(~dense.weight_listed, 1).any()
    if not weight_total:
        problems.append("weight not total: no default and some pairs unlisted")
    if instance.cost.default is None and np.triu(~(dense.cost_listed | dense.edge), 1).any():
        # Costs are only consulted on non-edges, so edges need no cost entry.
        problems.append("cost not total: no default and some non-edges unlisted")

    if instance.weight.default is not None and instance.weight.default < 0:
        problems.append(f"default weight must be >= 0, got {instance.weight.default}")
    for pair, value in instance.weight.overrides.items():
        if value < 0:
            problems.append(f"weight of {pair} must be >= 0, got {value}")

    costed = dense.cost_listed if instance.cost.default is None else True
    below_one = np.triu(costed & ~dense.edge & (dense.cost < 1), 1)
    for pair in zip(*(index.tolist() for index in np.nonzero(below_one))):
        problems.append(f"cost of non-edge {pair} must be >= 1, got {instance.cost.get(*pair)}")

    if weight_total and n * instance.weight.max_value() >= INF64:
        problems.append(
            f"overflow headroom exceeded: n * max_weight = {n * instance.weight.max_value()} "
            f"must stay below {INF64}"
        )
    return problems


def ensure_valid(instance: WeightedInstance) -> None:
    """Raise InstanceError if the instance violates any invariant (cached per instance)."""
    if instance.problems:
        raise InstanceError("; ".join(instance.problems))


def _dijkstra(instance: WeightedInstance, source: int) -> tuple[list[Dist], list[int]]:
    """Nonnegative-weight single-source shortest paths over the instance edges.

    Returns (distances, predecessors). Ties between equal-length paths are
    resolved toward the smallest predecessor vertex id, so reconstruction is
    deterministic. Predecessor -1 means source or unreachable.
    """
    n, adj = instance.n, instance.adjacency
    dist: list[Dist] = [INF] * n
    pred = [-1] * n
    dist[source] = 0
    done = [False] * n
    heap: list[tuple[Dist, int]] = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and not done[v] and v != source and (pred[v] < 0 or u < pred[v]):
                # settled targets keep their predecessor: chains then follow
                # settlement order and stay acyclic under zero-weight ties
                pred[v] = u
    return dist, pred


def graph_metric(instance: WeightedInstance, added: Iterable[Pair] = ()) -> np.ndarray:
    """All-pairs distances over the edges plus ``added``, by Floyd–Warshall.

    n×n uint64, INF64 for unreachable pairs. Validating first keeps finite
    distances under the headroom bound, so two entries add up exactly.
    Raises InstanceError for an added pair outside [0, n).
    """
    ensure_valid(instance)
    n = instance.n
    pairs = [ordered_pair(*pair) for pair in added]
    if any(not (0 <= u < v < n) for u, v in pairs):
        raise InstanceError(f"added pairs {pairs} out of range for n={n}")
    dense = instance.dense
    metric = np.where(dense.edge, dense.weight, INF64).astype(np.uint64)
    u, v = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    metric[u, v] = metric[v, u] = dense.weight[u, v]
    np.fill_diagonal(metric, 0)
    for k in range(n):
        np.minimum(metric, metric[:, k, None] + metric[None, k, :], out=metric)
    return metric


def diameter(instance: WeightedInstance, added: Iterable[Pair] = ()) -> Dist:
    """Largest distance, from a fresh :func:`graph_metric`; 0 for a single vertex."""
    return to_dist(int(graph_metric(instance, added).max()))


def augment(instance: WeightedInstance, added: Iterable[Pair]) -> Augmentation:
    """Bundle a set of inserted non-edges with its cost and achieved diameter.

    Raises InstanceError if some pair is already an edge or lies outside [0, n).
    """
    pairs = frozenset(ordered_pair(*pair) for pair in added)
    for pair in pairs:
        if pair in instance.edges:
            raise InstanceError(f"pair {pair} is already an edge")
    reached = diameter(instance, pairs)  # range-checks pairs before costing them
    total = sum(instance.cost.get(*pair) for pair in pairs)
    return Augmentation(added=pairs, total_cost=total, diameter=reached)
