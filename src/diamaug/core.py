"""Instance model, validation and the graph metric.

An instance is an undirected graph on vertices ``0..n-1`` with nonnegative
integer edge weights. Every vertex pair additionally carries a weight (the
weight a new edge would have if inserted) and every non-edge a positive
insertion cost. A solver may insert non-edges whose costs sum to at most the
instance budget, trying to shrink the diameter of the augmented graph.

All arithmetic is integer-only; unreachable distances are represented by
``math.inf``, which absorbs addition and compares greater than every finite
value. :func:`graph_metric` is the package's only shortest-path routine:
witness paths read their graph segments from its cached result. An instance
caches its validation and its metric D₀, which :func:`diameter` extends.

Every distance table of an instance (D₀, the diameter check's copy, the
bounded-cost table D_β and the height table H) holds one unsigned dtype,
with a sentinel s standing for "unreachable": ``instance.dist_type``, chosen
once from n·W, where W is the largest weight of any pair (edge or not).

* n·W < 2**14: uint16 with s = 2**14;
* n·W < 2**30: uint32 with s = 2**30;
* otherwise uint64 with s = INF64 (2**62); validation keeps n·W below it.

Why it is exact: every finite entry of D₀ and D_β is the weight of a
simple path, so at most (n−1)·W < s. So is every finite H[S, j, u]: take a
composition of walks that reaches it; a shortest-path tree of their union
from u, pruned to S, is again a composition within budget j, and its height
is the weight of a simple path. Every table entry is therefore at most s,
and the largest sum the package forms, D[:, u] + w + D[v, :] in the
diameter check, stays below 3·s, which each dtype holds without wrapping.
Scalars added to a table are cast to its dtype first: a uint64 scalar
would silently widen a uint16 sum.

An instance stores its listed pairs once, as arrays (:class:`PairSet`,
:class:`PairTable`), plus one cached view, :class:`DensePairs`: an edge mask
and, per table, an n×n index into its arrays, read only in this module.
Callers read exact values through ``instance.weight_at`` and ``cost_at``,
and take non-edges from ``instance.non_edge_pairs``: those some tables list,
by a sort of their arrays, or every non-edge, the one scan over all pairs.
"""

from __future__ import annotations

import math
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

INF = math.inf

# Finite values are ints; math.inf marks "unreachable".
Dist = int | float

Pair = tuple[int, int]

# The headroom bound: validation keeps n·W, and so every finite distance,
# below it. It is the sentinel of uint64 distance tables and the oracle's own INF.
INF64 = 2**62


class DistType(NamedTuple):
    """The dtype of an instance's distance tables and its "unreachable" sentinel."""

    dtype: type[np.unsignedinteger]
    sentinel: np.unsignedinteger  # a scalar of ``dtype``


def dist_type_for(span: int) -> DistType:
    """The narrowest exact table dtype for an instance with n·W = ``span``.

    The sentinel s exceeds every finite entry, (n−1)·W < span, and 3·s fits
    the dtype (see the module docstring).
    """
    if span < 2**14:
        return DistType(np.uint16, np.uint16(2**14))
    if span < 2**30:
        return DistType(np.uint32, np.uint32(2**30))
    return DistType(np.uint64, np.uint64(INF64))


def to_dist(value: int, sentinel: int) -> Dist:
    """A table entry as a Dist: INF for the table's sentinel (or above), else the int."""
    return INF if value >= sentinel else int(value)


class InstanceError(ValueError):
    """Raised when an operation receives an invalid instance."""


def ordered_pair(u: int, v: int) -> Pair:
    """Normalize an unordered vertex pair to (min, max)."""
    if u == v:
        raise ValueError(f"pair must have distinct endpoints, got ({u}, {v})")
    return (u, v) if u < v else (v, u)


def exact_array(values: list) -> np.ndarray:
    """A list, or nested lists, of ints or int strings, each read by ``int``, as int64; as exact
    Python ints in an object array when one lies beyond int64. ValueError if ragged."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.vectorize(int, otypes=[object])(values)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class PairSet(AbstractSet):
    """A set of ``(u, v)`` tuples stored as a read-only (m, 2) array, as listed.

    It holds an instance's edges and a :class:`PairTable`'s pairs as given,
    in :func:`exact_array`'s dtypes. Set operators return frozensets.
    """

    def __init__(self, pairs: Iterable[Pair] | np.ndarray):
        if not isinstance(pairs, np.ndarray):
            pairs = exact_array(list(chain.from_iterable(pairs))).reshape(-1, 2)
        self.array = _read_only(pairs)
        self._within: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def __iter__(self) -> Iterator[Pair]:
        return map(tuple, self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)

    def __contains__(self, pair: object) -> bool:
        return pair in self._members

    @cached_property
    def _members(self) -> frozenset[Pair]:
        return frozenset(self)

    _from_iterable = staticmethod(frozenset)

    def __repr__(self) -> str:
        return f"PairSet({self.array.tolist()})"

    def within(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows and columns of the normalized pairs in [0, n), and the mask of those pairs.

        Read-only and kept per n: the view, validation and the sorted scans ask alike.
        """
        if n not in self._within:
            rows, cols = self.array.T
            kept = (0 <= rows) & (rows < cols) & (cols < n)
            if not kept.all():  # else the array's own columns serve, uncopied
                rows, cols = rows[kept], cols[kept]
            rows, cols = (index.astype(np.intp, copy=False) for index in (rows, cols))
            self._within[n] = (_read_only(rows), _read_only(cols), _read_only(kept))
        return self._within[n]


def sorted_pairs(n: int, *pair_sets: PairSet) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the normalized pairs in [0, n) that any of ``pair_sets`` lists.

    Each pair comes once, in (u, v) order: a sort of the listed pairs, so
    O(m log m) with no n×n array. n·n must fit int64, as it does for any n
    whose dense view fits in memory.
    """
    keys = [rows * n + cols for rows, cols, _ in (pairs.within(n) for pairs in pair_sets)]
    keys = np.sort(np.concatenate(keys))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.divmod(keys[first], max(n, 1))


@dataclass(frozen=True, eq=False, init=False)
class PairTable:
    """Symmetric integer function over unordered vertex pairs.

    Listed ``pairs`` with ``values`` (read-only, :func:`exact_array`'s
    dtypes), and ``default`` for the rest; with ``default=None`` the table
    is partial and only valid if it lists every pair (see :func:`validate`).
    ``PairTable(default, overrides)`` copies a mapping, :meth:`listed` keeps
    arrays. ``overrides``, which ``get`` reads, is built on first use.
    """

    default: int | None
    pairs: PairSet
    values: np.ndarray

    def __init__(self, default: int | None, overrides: Mapping[Pair, int] = MappingProxyType({})):
        values = _read_only(exact_array(list(overrides.values())))
        self.__dict__.update(default=default, pairs=PairSet(overrides), values=values)

    @classmethod
    def listed(cls, default: int | None, pairs: np.ndarray, values: np.ndarray) -> PairTable:
        table = cls(default)
        table.__dict__.update(pairs=PairSet(pairs), values=_read_only(values))
        return table

    def __eq__(self, other: object) -> bool:
        same_default = isinstance(other, PairTable) and self.default == other.default
        return same_default and self.overrides == other.overrides

    @cached_property
    def overrides(self) -> Mapping[Pair, int]:
        return MappingProxyType(dict(zip(self.pairs, self.values.tolist())))

    def get(self, u: int, v: int) -> int:
        value = self.overrides.get(ordered_pair(u, v), self.default)
        if value is None:
            raise KeyError(f"pair ({u}, {v}) has no value and no default")
        return value

    def max_value(self) -> int:
        values = [int(self.values.max())] if len(self.values) else []
        return max(values + ([] if self.default is None else [self.default]), default=0)

    @cached_property
    def _padded(self) -> np.ndarray:
        """``values`` after a slot for the default (0 for a partial table), read at index 0."""
        return _read_only(np.concatenate([exact_array([self.default or 0]), self.values]))

    def at(self, index: np.ndarray, rows, cols) -> np.ndarray:
        """The exact values at the pairs (rows, cols), which broadcast, read through this
        table's :class:`DensePairs` index: the listed value, else the default. int64, or
        Python ints in an object array; KeyError at the first unlisted pair of a partial table."""
        positions = index[rows, cols]
        if self.default is None and not positions.all():
            first = np.argmin(positions)
            u, v = (int(np.broadcast_to(x, positions.shape).flat[first]) for x in (rows, cols))
            raise KeyError(f"pair ({u}, {v}) has no value and no default")
        return self._padded[positions]


def _index(n: int, pairs: PairSet) -> np.ndarray:
    """A read-only symmetric n×n int32 array: 1 + the position in ``pairs`` of each pair
    it lists in [0, n), the largest for a pair listed twice, and 0 elsewhere."""
    rows, cols, kept = pairs.within(n)
    positions = np.flatnonzero(kept).astype(np.int32) + 1
    index = np.zeros((n, n), dtype=np.int32)
    keys = np.concatenate([rows * n + cols, cols * n + rows])
    np.maximum.at(index.reshape(-1), keys, np.concatenate([positions, positions]))
    return _read_only(index)


@dataclass(frozen=True, eq=False)
class DensePairs:
    """Every vertex pair of an instance as read-only n×n numpy arrays.

    ``weight_index`` and ``cost_index`` are their table's :func:`_index`, read
    by :meth:`PairTable.at`. Of a pair listed twice the later entry holds:
    ``np.maximum.at`` keeps the larger position in any order. ``edge`` marks
    the edges. Pairs outside [0, n), on the diagonal or not normalized are
    skipped, as ``get`` skips them.
    """

    weight_index: np.ndarray
    cost_index: np.ndarray
    edge: np.ndarray

    @classmethod
    def of(cls, instance: WeightedInstance) -> DensePairs:
        """Raises InstanceLimitError, before any n×n array, above ``MAX_INSTANCE_BYTES``."""
        n = max(instance.n, 0)
        check_instance_size(n, instance.weight.max_value())
        weight, cost = _index(n, instance.weight.pairs), _index(n, instance.cost.pairs)
        rows, cols, _ = instance.edges.within(n)
        edge = np.zeros((n, n), dtype=bool)
        edge[rows, cols] = edge[cols, rows] = True
        return cls(weight, cost, _read_only(edge))


@dataclass(frozen=True)
class WeightedInstance:
    """An augmentation problem instance.

    Attributes:
        n: vertex count (vertices are 0..n-1).
        edges: existing undirected edges, as normalized pairs; any
            collection of pairs is stored as a :class:`PairSet`.
        weight: weight of every pair, existing edges and candidate
            insertions alike.
        cost: insertion cost of every pair; consulted only on non-edges and
            required to be a positive integer there.
        budget: total insertion budget.

    The cached properties assume the instance never changes; the pair
    arrays are read-only. ``dense`` is the one n×n view of the pairs (see
    :class:`DensePairs`); it is built on first use, by validation or by any
    other scan over all pairs.
    """

    n: int
    edges: PairSet
    weight: PairTable
    cost: PairTable
    budget: int

    def __post_init__(self) -> None:
        if not isinstance(self.edges, PairSet):
            object.__setattr__(self, "edges", PairSet(self.edges))

    @cached_property
    def dense(self) -> DensePairs:
        """The index and edge matrices, built once, read-only."""
        return DensePairs.of(self)

    @cached_property
    def edge_weights(self) -> np.ndarray:
        """The edges' weights as a read-only n×n matrix in ``dist_type``, its sentinel
        elsewhere, the diagonal too. Validates first, which keeps the weights below it."""
        ensure_valid(self)
        u, v, _ = self.edges.within(self.n)
        weights = np.full((self.n, self.n), self.dist_type.sentinel)
        weights[u, v] = weights[v, u] = self.weight_at(u, v)
        return _read_only(weights)

    def weight_at(self, rows, cols) -> np.ndarray:
        """The exact weights at the pairs (rows, cols), which broadcast: :meth:`PairTable.at`."""
        return self.weight.at(self.dense.weight_index, rows, cols)

    def cost_at(self, rows, cols) -> np.ndarray:
        """The exact costs at the pairs (rows, cols), which broadcast: :meth:`PairTable.at`."""
        return self.cost.at(self.dense.cost_index, rows, cols)

    def non_edge_pairs(self, *tables: PairTable) -> tuple[np.ndarray, np.ndarray]:
        """Rows and columns of non-edges, each once, in (u, v) order: those ``tables`` list,
        by :func:`sorted_pairs` in O(m log m), or, given none, every non-edge, the one scan
        over all pairs. The view's size check runs first: a key u·n + v wraps for n ≥ 2**63."""
        edge = self.dense.edge
        if not tables:
            return np.nonzero(np.triu(~edge, 1))
        rows, cols = sorted_pairs(self.n, *(table.pairs for table in tables))
        kept = ~edge[rows, cols]
        return rows[kept], cols[kept]

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """:func:`validate`'s findings, computed once for :func:`ensure_valid`."""
        return tuple(validate(self))

    @cached_property
    def dist_type(self) -> DistType:
        """Every distance table's dtype and sentinel, chosen once from n·W."""
        return dist_type_for(self.n * self.weight.max_value())

    @cached_property
    def metric(self) -> np.ndarray:
        """D₀: :func:`graph_metric` of the bare instance, computed once, read-only."""
        metric = graph_metric(self)
        metric.flags.writeable = False
        return metric

    def is_edge(self, u: int, v: int) -> bool:
        return ordered_pair(u, v) in self.edges


@dataclass(frozen=True)
class Augmentation:
    """A set of inserted non-edges with its total cost and resulting diameter."""

    added: frozenset[Pair]
    total_cost: int
    diameter: Dist


@dataclass(frozen=True)
class SolveOutcome:
    """What a solver returns: its augmentation and everything its report prints.

    ``parameters`` are the report's ``param`` lines, in order; ``timings`` the
    seconds per stage, empty for a solver without stages. Each optional
    distance is reported when set.
    """

    augmentation: Augmentation
    parameters: dict[str, int | str]
    timings: dict[str, float] = field(default_factory=dict)
    tree_height: Dist | None = None
    cluster_radius: Dist | None = None
    d_opt: Dist | None = None


def validate(instance: WeightedInstance) -> list[str]:
    """Check every instance invariant and report violations.

    Returns the list of violated invariants; an empty list means the
    instance is valid. Never mutates; raises InstanceLimitError only for a
    dense view over ``MAX_INSTANCE_BYTES``, which validation builds first
    (:meth:`WeightedInstance.non_edge_pairs`). The range checks, the repeated
    edges, the totality counts and the negative weights read the listed
    pairs' arrays, and the costs below 1 are looked up at the listed cost
    pairs. Every non-edge is scanned only under a default cost below 1,
    where each unlisted non-edge is a finding.
    """
    problems: list[str] = []
    n = instance.n
    if n < 1:
        problems.append(f"vertex count must be >= 1, got {n}")
        return problems
    if instance.budget < 0:
        problems.append(f"budget must be >= 0, got {instance.budget}")
    weight, cost = instance.weight, instance.cost
    listed = cost.default is None or cost.default >= 1  # only a listed pair can cost less
    non_edges = instance.non_edge_pairs(cost) if listed else instance.non_edge_pairs()

    edge_problem = "edge {} is not a normalized pair of distinct vertices in [0, {n})"
    for pairs, problem in (
        (instance.edges, edge_problem),
        (instance.weight.pairs, "weight override {} is out of range"),
        (instance.cost.pairs, "cost override {} is out of range"),
    ):
        kept = pairs.within(n)[2]
        if not kept.all():
            problems += [problem.format(tuple(pair), n=n) for pair in pairs.array[~kept].tolist()]
    rows, cols, _ = instance.edges.within(n)
    keys = np.sort(rows * n + cols)
    repeated = keys[1:][keys[1:] == keys[:-1]]
    problems += [f"edge {divmod(key, n)} is listed twice" for key in np.unique(repeated).tolist()]

    all_pairs = n * (n - 1) // 2
    weight_total = weight.default is not None or len(sorted_pairs(n, weight.pairs)[0]) == all_pairs
    if not weight_total:
        problems.append("weight not total: no default and some pairs unlisted")
    if cost.default is None and len(non_edges[0]) < all_pairs - (len(keys) - len(repeated)):
        # Costs are only consulted on non-edges, so edges need no cost entry.
        problems.append("cost not total: no default and some non-edges unlisted")

    if weight.default is not None and weight.default < 0:
        problems.append(f"default weight must be >= 0, got {weight.default}")
    for i in np.flatnonzero(weight.values < 0).tolist():
        pair = tuple(weight.pairs.array[i].tolist())
        problems.append(f"weight of {pair} must be >= 0, got {weight.values[i]}")

    costs = instance.cost_at(*non_edges)
    for u, v, value in zip(*(x[costs < 1].tolist() for x in (*non_edges, costs))):
        problems.append(f"cost of non-edge {(u, v)} must be >= 1, got {value}")

    if weight_total and n * weight.max_value() >= INF64:
        problems.append(
            f"overflow headroom exceeded: n * max_weight = {n * weight.max_value()} "
            f"must stay below {INF64}"
        )
    return problems


def ensure_valid(instance: WeightedInstance) -> None:
    """Raise InstanceError if the instance violates any invariant (cached per instance)."""
    if instance.problems:
        raise InstanceError("; ".join(instance.problems))


# The largest instance a command loads or generates: its pair view (9 bytes per pair), edge
# weights and D₀, n·n·(9 + 2·2) bytes up to n = 4,544 in uint16.
MAX_INSTANCE_BYTES = 2**28


class InstanceLimitError(ValueError):
    """Raised for an instance whose pair view and D₀ would exceed MAX_INSTANCE_BYTES."""


def check_instance_size(n: int, max_weight: int) -> None:
    """Raise InstanceLimitError when n vertices with weights up to ``max_weight`` need a
    pair view and D₀ above MAX_INSTANCE_BYTES; it reads no array, so it runs before any."""
    n = max(n, 0)
    itemsize = np.dtype(dist_type_for(n * max_weight).dtype).itemsize
    size = n * n * (4 + 4 + 1 + 2 * itemsize)  # DensePairs, edge_weights and D₀
    if size > MAX_INSTANCE_BYTES:
        raise InstanceLimitError(
            f"instance too large: n={n} needs {size} bytes for its pair view and D₀, "
            f"above {MAX_INSTANCE_BYTES}"
        )


def check_bounded_table_size(budget: int, rows: int, n: int, itemsize: int) -> None:
    """Raise InstanceLimitError when a bounded-cost table, (budget+1)·rows·n entries of
    ``itemsize`` bytes, exceeds MAX_INSTANCE_BYTES; it reads no array, so it runs before any."""
    size = (budget + 1) * rows * n * itemsize
    if size > MAX_INSTANCE_BYTES:
        raise InstanceLimitError(
            f"bounded-cost table too large: budget {budget} and n={n} need {size} bytes, "
            f"above {MAX_INSTANCE_BYTES}"
        )


def graph_metric(instance: WeightedInstance) -> np.ndarray:
    """All-pairs distances over the edges, by Floyd–Warshall.

    n×n in ``instance.dist_type``, its sentinel for unreachable pairs.
    Validating first keeps weights, and so finite distances, below the
    sentinel, so two entries add up exactly.
    """
    metric = instance.edge_weights.copy()  # validates first
    np.fill_diagonal(metric, 0)
    for k in range(instance.n):
        np.minimum(metric, metric[:, k, None] + metric[None, k, :], out=metric)
    return metric


def diameter(instance: WeightedInstance, added: Iterable[Pair] = ()) -> Dist:
    """Largest distance with ``added`` inserted into D₀; 0 for a single vertex.

    Each pair u–v of weight w takes D = min(D, D[:, u] + w + D[v, :] and its
    transpose), exact for insertions. Entries stay at most the sentinel s and
    w is below it, so the sum stays below 3·s and does not wrap in the
    instance's dtype. Raises InstanceError for a pair outside [0, n).
    """
    dists = instance.metric.copy()  # validates first
    pairs = [ordered_pair(*pair) for pair in added]
    if any(not (0 <= u < v < instance.n) for u, v in pairs):
        raise InstanceError(f"added pairs {pairs} out of range for n={instance.n}")
    dtype, sentinel = instance.dist_type
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    weights = instance.weight_at(rows, cols).astype(dtype)
    for u, v, weight in zip(rows.tolist(), cols.tolist(), weights):
        via = dists[:, u, None] + weight + dists[None, v, :]
        np.minimum(dists, np.minimum(via, via.T), out=dists)
    return to_dist(int(dists.max()), sentinel)


def augment(instance: WeightedInstance, added: Iterable[Pair]) -> Augmentation:
    """Bundle a set of inserted non-edges with its cost and achieved diameter.

    Raises InstanceError if some pair is already an edge or lies outside [0, n).
    """
    pairs = frozenset(ordered_pair(*pair) for pair in added)
    reached = diameter(instance, pairs)  # validates, and range-checks pairs before costing them
    for pair in pairs:
        if instance.dense.edge[pair]:
            raise InstanceError(f"pair {pair} is already an edge")
    rows, cols = np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2).T
    total = sum(instance.cost_at(rows, cols).tolist())
    return Augmentation(added=pairs, total_cost=total, diameter=reached)
