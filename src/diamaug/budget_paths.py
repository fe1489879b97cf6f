"""Budget-bounded shortest paths by a (min,+) table recurrence.

A path in the complete graph on the instance vertices may use non-edges as
long as their insertion costs sum to at most a budget ``beta``. Write D₀ for
the graph metric (existing edges only), W_c for the matrix holding the
weight of every non-edge of cost c (unreachable elsewhere), and ⊗ for the
(min,+) matrix product. Splitting a cheapest beta-bounded path at its last
non-edge gives

    D_beta = min(D_{beta-1}, X_beta ⊗ D₀),  X_beta = min_{c <= beta} D_{beta-c} ⊗ W_c,

so the table for every budget 0..B follows from D₀ (``instance.metric``) and
the non-edges alone, which are read through the instance's pair index
(costs clipped to B+1). Row s of D_beta depends only on row s of the smaller
budgets, so :class:`BoundedCostDistances` builds the rows of the sources
it is given in one batch, and a :class:`PathSource` is a view of one row.

Each budget pays for one jump step (X_beta) and at most one walk product.
The jump step uses the complement structure of the W_c rather than a dense
product (the complement-graph search of Ito and Yokoyama). Almost every
non-edge takes the one default weight w₀ and cost c₀. Call y's exception set
y itself, its neighbours and the pairs the tables list. Then

    X_beta[s, y] = w₀ + min of D_{beta-c₀}[s, x] over x outside y's exception set,

which is w₀ off s's own exception set (x = s, as D[s, s] = 0); inside it,
a minimum over row s with y's exception set masked out. Where s reaches y
over edges within w₀, no walk through that jump beats the graph's, so w₀
stands in for it and only the rest is searched. The listed non-edges of
each cost class add a sparse (x, y, w) correction. A budget below every
jump cost skips its walk product, since X_beta is then unreachable
everywhere. Past c₀, X_beta changes only on the exception sets
and the listed targets, and an unchanged entry adds no walk, so the walk
product may read only those columns. The product runs over the middle
index in blocks, so its temporaries stay small for full and few-row tables
alike.

Tables take the instance's dtype and sentinel s (``instance.dist_type``,
see :mod:`diamaug.core`): uint16, uint32 or uint64, chosen from n·W. Every
finite D_β entry is the weight of a simple path, at most (n−1)·W < s, and
every table entry is at most s. A sum adds at most two entries and a
weight, so it stays below 3·s, which the dtype holds without wrapping; the
default jumps of X_beta are clipped to s before its walk. The jumps'
weights are held in the table's dtype, so no sum widens.

Witness paths are walked back from the table and the complement structure
it was built from (``jumps``). An entry that equals its D₀ entry is a graph
path, read from a shortest-path tree that :func:`_graph_tree` builds from
D₀'s row of its start (one per start and table, ``trees``). Otherwise its
last non-edge is the smallest (c, x, y), over the default and listed jumps
of cost c, with D_{beta-c}[s, x] + w(x, y) + D₀[y, v] = D_beta[s, v]; the
walk continues from (x, beta - c) and ends with a graph path y -> v. The
budget drops on every jump, so zero-weight ties cannot make the walk cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import (
    Dist,
    Pair,
    WeightedInstance,
    check_bounded_table_size,
    ensure_valid,
    ordered_pair,
    to_dist,
)


class NoPathError(LookupError):
    """Requested a path witness for an unreachable table entry."""


# Entries of the largest broadcast temporary of a (min,+) product or a jump step.
_TILE = 2**15
# Row-block length below which a product also blocks its middle index. On
# longer rows one in-place minimum per middle index is cheaper than reducing
# a blocked temporary over it.
_SHORT_ROWS = 2**12


def _min_plus(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, columns: np.ndarray | None = None
) -> None:
    """``out = min(out, a ⊗ b)`` over entries of one dtype, each sum below its maximum.

    The sums stay in that dtype, as callers keep operands at most the
    instance's sentinel s and 3·s fits the dtype. With ``columns``, ``a`` is
    sparse: row i holds ``a[i, k]`` at column ``columns[i, k]`` and s
    elsewhere. Rows run in blocks of at most ``_TILE`` entries. A block
    shorter than ``_SHORT_ROWS`` entries takes the middle index in blocks
    too, so a 1–3-row product is a few numpy calls; no temporary exceeds
    ``_TILE`` entries.
    """
    rows, n = out.shape
    row_block = max(1, min(rows, _TILE // n))
    mid_block = _TILE // (row_block * n) if row_block * n < _SHORT_ROWS else 1
    for r in range(0, rows, row_block):
        a_rows, out_rows = a[r : r + row_block], out[r : r + row_block]
        for k in range(0, a.shape[1], mid_block):
            if columns is None:
                right = b[None, k : k + mid_block]
            else:
                right = b[columns[r : r + row_block, k : k + mid_block]]
            sums = a_rows[:, k : k + mid_block, None] + right
            np.minimum(out_rows, sums.min(axis=1) if mid_block > 1 else sums[:, 0], out=out_rows)


@dataclass(frozen=True, eq=False)
class _ComplementJumps:
    """Every W_c (c <= B) as one default jump on a complement plus listed jumps.

    A non-edge that neither table lists has the default weight and cost.
    ``excluded[y]`` is y's exception set: y, its neighbours and every pair
    the tables list; it is symmetric, and x-y is a default jump exactly
    where ``excluded[x, y]`` is False. ``cost`` is B+1 when no pair takes the
    default. ``listed[c]`` holds the listed non-edges x-y of cost c as
    entries ``(x, weight, y)`` sorted by y, then x: ``ends`` are the distinct
    y, ``starts`` where each y's entries begin. ``targets`` holds every y
    that a listed jump of cost <= B ends at. Weights and ``sentinel`` are in
    the instance's table dtype. The listed jumps come from the tables' arrays
    (``instance.non_edge_pairs``); only ``excluded`` is n×n.
    """

    weight: np.unsignedinteger
    sentinel: np.unsignedinteger
    cost: int
    excluded: np.ndarray
    listed: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    targets: np.ndarray

    @classmethod
    def of(cls, instance: WeightedInstance) -> _ComplementJumps:
        budget, (dtype, sentinel) = instance.budget, instance.dist_type
        rows, cols = instance.non_edge_pairs(instance.weight, instance.cost)
        excluded = instance.dense.edge.copy()
        excluded[rows, cols] = excluded[cols, rows] = True
        np.fill_diagonal(excluded, True)
        if not excluded.all():  # some pair is unlisted, so validation saw both defaults
            cost, weight = min(instance.cost.default, budget + 1), instance.weight.default
        else:
            cost, weight = budget + 1, 0
        ys, xs = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        order = np.argsort(ys * instance.n + xs)  # grouped by y
        ys, xs = ys[order], xs[order]
        costs = instance.cost_at(ys, xs)
        # a valid instance's weights lie in [0, sentinel)
        weights = instance.weight_at(ys, xs).astype(dtype)
        groups = {}
        for c in np.unique(costs[costs <= budget]).tolist():
            y, x = ys[costs == c], xs[costs == c]
            ends, starts = np.unique(y, return_index=True)
            groups[c] = (x, weights[costs == c], y, ends, starts)
        targets = np.unique(ys[costs <= budget])
        return cls(dtype(weight), sentinel, cost, excluded, groups, targets)

    @property
    def cheapest(self) -> int:
        """The smallest cost of any jump; B+1 when there is none."""
        return min([self.cost, *self.listed])

    def last_jump(
        self, table: np.ndarray, beta: int, pending: tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """X_beta = min over c <= beta of D_{beta-c} ⊗ W_c, up to dominated entries.

        ``pending`` lists the (row, y) whose default jump needs a search:
        the row's minimum of D_{beta-c₀} with y's exception set masked out,
        taken for at most ``_TILE`` entries at a time. Elsewhere X holds the
        default weight. Off the source's exception set that is the jump's
        exact weight: it leaves from the source itself, where D[s, s] = 0 is
        the row minimum. Inside the set it stands in for a jump no lighter
        than the source's graph distance to y, so its walks add nothing to
        D_{beta-1}. Default entries are at most the sentinel s, listed ones
        below s plus a weight. ``out`` has the table's dtype.
        """
        if self.cost <= beta:
            out = np.full(table.shape[1:], self.weight, dtype=table.dtype)
            before, (rows, ys) = table[beta - self.cost], pending
            step = max(1, _TILE // before.shape[1])
            for i in range(0, len(rows), step):
                row, y = rows[i : i + step], ys[i : i + step]
                nearest = np.where(self.excluded[y], self.sentinel, before[row]).min(axis=1)
                out[row, y] = np.minimum(nearest + self.weight, self.sentinel)  # both terms <= s
        else:
            out = np.full(table.shape[1:], self.sentinel, dtype=table.dtype)
        for c, (sources, weights, _, ends, starts) in self.listed.items():
            if c <= beta:
                sums = np.minimum.reduceat(table[beta - c][:, sources] + weights, starts, axis=1)
                out[:, ends] = np.minimum(out[:, ends], sums)
        return out


def _table_rows(
    graph: np.ndarray, jumps: _ComplementJumps, rows: np.ndarray, table: np.ndarray
) -> None:
    """Fill ``table``, (budget+1, len(rows), n) in D₀'s dtype, with rows ``rows`` of D_beta.

    Each budget takes one jump step and, when some jump costs at most beta,
    one walk product: D_beta = min(D_{beta-1}, X_beta ⊗ D₀). A default jump
    into y weighs at least w₀, so where the source reaches y within w₀ over
    edges, its walks are no shorter than the graph's, and w₀ stands in for
    it; only the rest of each exception set is searched (``pending``). An
    X_beta entry equal to its X_{beta-1} entry adds nothing, as D_{beta-1}
    holds its walks. So past c₀, when few enough columns change (the pending
    ones and the listed targets), the walk product reads only those.
    """
    budget, n = table.shape[0] - 1, graph.shape[0]
    table[0] = graph[rows]
    searched = jumps.excluded[rows] & (graph[rows] > jumps.weight)
    pending = np.nonzero(searched)
    width = int(searched.sum(axis=1).max(initial=0))
    changing = None
    if 2 * (width + len(jumps.targets)) < n:  # a gathered row costs more than a dense one
        changing = np.concatenate(  # each row's searched columns, padded with others
            [
                np.argsort(~searched, axis=1, kind="stable")[:, :width],
                np.broadcast_to(jumps.targets, (len(rows), len(jumps.targets))),
            ],
            axis=1,
        )
    for beta in range(1, budget + 1):
        table[beta] = table[beta - 1]
        if jumps.cheapest <= beta:
            jump = jumps.last_jump(table, beta, pending)
            if beta == jumps.cost or changing is None:
                _min_plus(jump, graph, table[beta])
            else:
                changed = np.take_along_axis(jump, changing, axis=1)
                _min_plus(changed, graph, table[beta], changing)


def _check_entry(instance: WeightedInstance, beta: int, v: int) -> None:
    """ValueError unless 0 <= beta <= budget and 0 <= v < n: numpy would wrap negatives."""
    if not (0 <= beta <= instance.budget and 0 <= v < instance.n):
        raise ValueError(f"entry ({beta}, {v}) out of range for B={instance.budget}, n={instance.n}")


def _graph_tree(instance: WeightedInstance, a: int) -> list[int]:
    """Predecessors on shortest paths from ``a`` over the edges, read from D₀'s row a.

    An edge u-v is tight when D₀[a, u] + w(u, v) = D₀[a, v] < s, and hop[x]
    is the fewest tight edges from a to x. pred[v] is the smallest u with u-v
    tight and (D₀[a, u], hop[u]) < (D₀[a, v], hop[v]); -1 at a and off its
    component. On positive weights that is the smallest-predecessor tie-break
    of Dijkstra's search; the hop term, searched only when a zero-weight tie
    exists, keeps such ties acyclic.
    """
    dist, n, sentinel = instance.metric[a], instance.n, instance.dist_type.sentinel
    # edges weigh below s and other entries are s, which no finite distance matches
    tight = (dist[:, None] + instance.edge_weights == dist) & (dist < sentinel)
    level = tight & (dist[:, None] == dist)  # zero-weight tight edges
    if level.any():
        hop, frontier, step = np.full(n, n), np.arange(n) == a, 0
        while frontier.any():  # breadth-first; every vertex joins one frontier at most
            hop[frontier] = step
            frontier, step = tight[frontier].any(axis=0) & (hop == n), step + 1
        tight &= ~level | (hop[:, None] < hop)
    return np.where(tight.any(axis=0), tight.argmax(axis=0), -1).tolist()


@dataclass(frozen=True, eq=False)
class BoundedCostDistances:
    """The bounded-cost table ``table[beta, sources[u], v]`` from each source u.

    ``sources`` maps each source, ascending, to its row of ``table``, which has
    shape (B+1, len(sources), n) in the instance's ``dist_type``, whose sentinel
    marks unreachable entries. :meth:`of` builds every row in one batch and
    nothing fills the table later; :meth:`row` finds a source's row. A row's
    values do not depend on its batch, as every entry is an exact minimum, so
    a table over every vertex (:func:`apsp_b`) has ``table[beta]`` symmetric,
    as every path runs both ways. ``jumps`` is the complement structure rows
    are built from, and ``trees`` holds one :func:`_graph_tree` per start of a
    graph path; the witness walks of every :class:`PathSource` view read both.
    """

    instance: WeightedInstance
    sources: dict[int, int]
    table: np.ndarray
    jumps: _ComplementJumps
    trees: dict[int, list[int]] = field(default_factory=dict, repr=False)

    @classmethod
    def of(cls, instance: WeightedInstance, sources: Iterable[int]) -> BoundedCostDistances:
        """The rows of the distinct ``sources``, built in one batch.

        Raises ValueError for a source outside [0, n) and InstanceLimitError,
        before allocating the table, for one over ``MAX_INSTANCE_BYTES``.
        """
        ensure_valid(instance)
        n, budget, dtype = instance.n, instance.budget, instance.dist_type.dtype
        rows = np.unique(np.fromiter(sources, dtype=np.intp))
        if len(rows) and not (0 <= rows[0] and rows[-1] < n):
            raise ValueError(f"sources {rows.tolist()} out of range for n={n}")
        check_bounded_table_size(budget, len(rows), n, np.dtype(dtype).itemsize)
        table = np.empty((budget + 1, len(rows), n), dtype=dtype)
        jumps = _ComplementJumps.of(instance)
        _table_rows(instance.metric, jumps, rows, table)
        table.flags.writeable = False
        return cls(instance, {u: i for i, u in enumerate(rows.tolist())}, table, jumps)

    def row(self, u: int) -> int:
        """The index of ``u``'s row in ``table``; ValueError unless ``u`` is a source."""
        if u not in self.sources:
            raise ValueError(f"vertex {u} is not a source of this table")
        return self.sources[u]

    def get(self, beta: int, u: int, v: int) -> Dist:
        _check_entry(self.instance, beta, v)
        return to_dist(int(self.table[beta, self.row(u), v]), self.instance.dist_type.sentinel)


def apsp_b(instance: WeightedInstance) -> BoundedCostDistances:
    """Bounded-cost distances between every pair of vertices, for budgets 0..B."""
    return BoundedCostDistances.of(instance, range(instance.n))


@dataclass(frozen=True)
class PathWitness:
    """A concrete path realizing a bounded-cost distance table entry.

    ``vertices`` runs from the source to the target; ``used_non_edges`` is
    the set of distinct non-edges it crosses.
    """

    vertices: tuple[int, ...]
    used_non_edges: frozenset[Pair]


class PathSource:
    """A view of ``source``'s row of ``dists``, with witness paths.

    ``table[beta][v]`` is the cheapest weight of a beta-bounded path from
    ``source`` to ``v`` (the instance's sentinel for unreachable; read
    entries through ``to_dist``). ValueError unless ``source`` is one of
    ``dists.sources``.
    """

    def __init__(self, dists: BoundedCostDistances, source: int):
        self.table = dists.table[:, dists.row(source)]
        self.instance, self.source, self._dists = dists.instance, source, dists

    def _graph_path(self, a: int, b: int) -> list[int]:
        """Vertices of a shortest a-b path over existing edges."""
        if a not in self._dists.trees:
            self._dists.trees[a] = _graph_tree(self.instance, a)
        pred = self._dists.trees[a]
        path = [b]
        while path[-1] != a:
            path.append(pred[path[-1]])
        path.reverse()
        return path

    def _last_jump(self, beta: int, v: int) -> tuple[int, int, int]:
        """Smallest (c, x, y) whose jump ends a cheapest beta-bounded path to ``v``.

        Cost c's jumps are the default ones (when c is the default cost) and
        the listed ones of cost c; no pair is both.
        """
        jumps, n = self._dists.jumps, self.instance.n
        into_v, target = self.instance.metric[:, v], self.table[beta, v]
        for c in sorted({jumps.cost, *jumps.listed}):
            if c > beta:
                break
            before, hits = self.table[beta - c], []
            if c == jumps.cost:
                found = np.flatnonzero(before[:, None] + (into_v + jumps.weight) == target)
                hits += found[~jumps.excluded.ravel()[found]][:1].tolist()
            if c in jumps.listed:
                xs, weights, ys, _, _ = jumps.listed[c]
                match = before[xs] + weights + into_v[ys] == target
                hits += (xs[match] * n + ys[match]).tolist()
            if hits:
                x, y = divmod(min(hits), n)
                return c, x, y
        raise AssertionError(f"table entry ({beta}, {self.source}, {v}) has no last jump")

    def path_to(self, v: int, beta: int) -> PathWitness:
        """Witness path for the (beta, source, v) table entry.

        Raises NoPathError when the entry is unreachable.
        """
        _check_entry(self.instance, beta, v)  # a negative v would walk a wrapped row forever
        if self.table[beta, v] >= self.instance.dist_type.sentinel:
            raise NoPathError(f"no path: source {self.source}, target {v}, budget {beta}")
        tails: list[list[int]] = []  # graph paths y -> v, each after a jump x -> y
        used: set[Pair] = set()
        while self.table[beta, v] != self.instance.metric[self.source, v]:
            c, x, y = self._last_jump(beta, v)
            tails.append(self._graph_path(y, v))
            used.add(ordered_pair(x, y))
            beta, v = beta - c, x
        vertices = self._graph_path(self.source, v)
        for tail in reversed(tails):
            vertices += tail
        return PathWitness(vertices=tuple(vertices), used_non_edges=frozenset(used))
