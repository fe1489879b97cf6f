"""Budget-bounded shortest paths by a (min,+) table recurrence.

A path in the complete graph on the instance vertices may use non-edges as
long as their insertion costs sum to at most a budget ``beta``. Write D₀ for
the graph metric (existing edges only), W_c for the matrix holding the
weight of every non-edge of cost c (unreachable elsewhere), and ⊗ for the
(min,+) matrix product. Splitting a cheapest beta-bounded path at its last
non-edge gives

    D_beta = min(D_{beta-1}, X_beta ⊗ D₀),  X_beta = min_{c <= beta} D_{beta-c} ⊗ W_c,

so the table for every budget 0..B follows from D₀ (``instance.metric``) and
the non-edges alone, which are read from the instance's dense pair view
(costs clipped to B+1). Row s of D_beta depends only on row s of the smaller
budgets, so :func:`apsp_b` fills the rows of the sources asked for, and a
:class:`PathSource` is a view of one of those rows.

Each budget pays for one jump step (X_beta) and at most one walk product.
The jump step uses the complement structure of the W_c rather than a dense
product (the complement-graph search of Ito and Yokoyama). Almost every
non-edge takes the one default weight w₀ and cost c₀. Call y's exception set
y itself, its neighbours and the pairs the tables list. Then

    X_beta[s, y] = w₀ + min of D_{beta-c₀}[s, x] over x outside y's exception set,

which is w₀ off s's own exception set (x = s, as D[s, s] = 0), and inside it
lies among the (largest exception set + 1) smallest entries of row s. Where
s reaches y over edges within w₀, no walk through that jump beats the
graph's, so w₀ stands in for it and only the rest is searched. The listed
non-edges of each cost class add a sparse (x, y, w) correction. A
budget below every jump cost skips its walk product, since X_beta is then
unreachable everywhere. Past c₀, X_beta changes only on the exception sets
and the listed targets, and an unchanged entry adds no walk, so the walk
product may read only those columns. The product runs over the middle
index in blocks, so its temporaries stay small for full and few-row tables
alike. Entries are uint64 while they are summed, and every operand is at
most INF64 (2**62) before each sum, so two "unreachable" sentinels add up
without wrapping; X_beta is clipped to INF64 before its walk.

Witness paths are walked back from the table and the complement structure
it was built from (``jumps``). An entry that equals its D₀ entry is a graph
path, read from a Dijkstra predecessor tree (one per start and table,
``trees``). Otherwise its last non-edge is the smallest (c, x, y), over the
default and listed jumps of cost c, with
D_{beta-c}[s, x] + w(x, y) + D₀[y, v] = D_beta[s, v]; the walk continues
from (x, beta - c) and ends with a graph path y -> v. The budget drops on
every jump, so zero-weight ties cannot make the walk cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    INF64,
    Dist,
    Pair,
    WeightedInstance,
    _dijkstra,
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
    """``out = min(out, a ⊗ b)`` over uint64 entries no larger than INF64.

    With ``columns``, ``a`` is sparse: row i holds ``a[i, k]`` at column
    ``columns[i, k]`` and INF64 elsewhere. Rows run in blocks of at most
    ``_TILE`` entries. A block shorter than ``_SHORT_ROWS`` entries takes the
    middle index in blocks too, so a 1–3-row product is a few numpy calls;
    no temporary exceeds ``_TILE`` entries.
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
    default, and ``candidates`` is one more than the largest exception set
    of a vertex that has a default jump. ``listed[c]`` holds the listed
    non-edges x-y of cost c as entries ``(x, weight, y)`` sorted by y, then
    x: ``ends`` are the distinct y, ``starts`` where each y's entries begin.
    ``targets`` holds every y that a listed jump of cost <= B ends at.
    """

    weight: np.uint64
    cost: int
    excluded: np.ndarray
    candidates: int
    listed: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    targets: np.ndarray

    @classmethod
    def of(cls, instance: WeightedInstance) -> _ComplementJumps:
        budget, dense, n = instance.budget, instance.dense, instance.n
        listed = (dense.weight_listed | dense.cost_listed) & ~dense.edge
        excluded = listed | dense.edge
        np.fill_diagonal(excluded, True)
        sizes = excluded.sum(axis=1)
        open_sizes = sizes[sizes < n]
        if open_sizes.size:  # some pair is unlisted, so validation saw both defaults
            cost, weight = min(instance.cost.default, budget + 1), instance.weight.default
        else:
            cost, weight = budget + 1, 0
        ys, xs = np.nonzero(listed)  # row-major: grouped by y
        costs = dense.cost[ys, xs]
        groups = {}
        for c in np.unique(costs[costs <= budget]).tolist():
            y, x = ys[costs == c], xs[costs == c]
            ends, starts = np.unique(y, return_index=True)
            # a valid instance's weights lie in [0, INF64)
            groups[c] = (x, dense.weight[y, x].astype(np.uint64), y, ends, starts)
        size = int(open_sizes.max(initial=0)) + 1
        return cls(np.uint64(weight), cost, excluded, size, groups, np.unique(ys[costs <= budget]))

    @property
    def cheapest(self) -> int:
        """The smallest cost of any jump; B+1 when there is none."""
        return min([self.cost, *self.listed])

    def _min_outside(self, values: np.ndarray, owners: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """Per pair p, the smallest ``values[owners[p], x]`` over x outside ``sets[p]``'s set.

        The minimum lies among the ``candidates`` smallest entries of the
        row, since a set that leaves some x out cannot hold all of them.
        """
        n = values.shape[1]
        k = min(self.candidates, n)
        if k < n:
            nearest = np.argpartition(values, k - 1, axis=1)[:, :k].T
        else:
            nearest = np.broadcast_to(np.arange(n)[:, None], (n, len(values)))
        flat_values, flat_excluded = values.ravel(), self.excluded.ravel()
        out = np.empty(len(owners), dtype=np.uint64)
        step = max(1, _TILE // k)
        for i in range(0, len(owners), step):
            owner, vertex = owners[i : i + step], sets[i : i + step]
            near = nearest[:, owner]  # (k, pairs): flat takes beat 2-d fancy indexing
            free = np.where(
                flat_excluded.take(near * n + vertex), INF64, flat_values.take(near + owner * n)
            )
            out[i : i + step] = free.min(axis=0)
        return out

    def last_jump(
        self, table: np.ndarray, beta: int, pending: tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """X_beta = min over c <= beta of D_{beta-c} ⊗ W_c, up to dominated entries.

        ``pending`` lists the (row, y) whose default jump needs a search.
        Elsewhere X holds the default weight. Off the source's exception set
        that is the jump's exact weight: it leaves from the source itself,
        where D[s, s] = 0 is the row minimum. Inside the set it stands in for
        a jump no lighter than the source's graph distance to y, so its
        walks add nothing to D_{beta-1}. Entries are at most INF64.
        """
        if self.cost <= beta:
            out = np.full(table.shape[1:], self.weight, dtype=np.uint64)
            nearest = self._min_outside(table[beta - self.cost], *pending)
            out[pending] = np.minimum(nearest + self.weight, INF64)  # both terms <= INF64
        else:
            out = np.full(table.shape[1:], INF64, dtype=np.uint64)
        for c, (sources, weights, _, ends, starts) in self.listed.items():
            if c <= beta:
                sums = np.minimum.reduceat(table[beta - c][:, sources] + weights, starts, axis=1)
                out[:, ends] = np.minimum(out[:, ends], sums)
        return out


def _table_rows(
    graph: np.ndarray, jumps: _ComplementJumps, budget: int, rows: np.ndarray
) -> np.ndarray:
    """Rows ``rows`` of D_beta for beta = 0..budget, shape (budget+1, len(rows), n), uint64.

    Each budget takes one jump step and, when some jump costs at most beta,
    one walk product: D_beta = min(D_{beta-1}, X_beta ⊗ D₀). A default jump
    into y weighs at least w₀, so where the source reaches y within w₀ over
    edges, its walks are no shorter than the graph's, and w₀ stands in for
    it; only the rest of each exception set is searched (``pending``). An
    X_beta entry equal to its X_{beta-1} entry adds nothing, as D_{beta-1}
    holds its walks. So past c₀, when few enough columns change (the pending
    ones and the listed targets), the walk product reads only those.
    """
    n = graph.shape[0]
    table = np.empty((budget + 1, len(rows), n), dtype=np.uint64)
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
    return table


def _check_entry(instance: WeightedInstance, beta: int, v: int) -> None:
    """ValueError unless 0 <= beta <= budget and 0 <= v < n: numpy would wrap negatives."""
    if not (0 <= beta <= instance.budget and 0 <= v < instance.n):
        raise ValueError(f"entry ({beta}, {v}) out of range for B={instance.budget}, n={instance.n}")


@dataclass(frozen=True, eq=False)
class BoundedCostDistances:
    """Rows ``table[beta][i][v]`` of the bounded-cost table for ``sources[i]``.

    ``table`` is int64 with INF64 for unreachable entries; with every vertex
    a source, ``sources`` is ``range(n)`` and row i is vertex i. ``jumps`` is
    the complement structure the table was built from, and ``trees`` holds
    one Dijkstra predecessor tree per start of a graph path; the witness
    walks of every :class:`PathSource` view read both.
    """

    instance: WeightedInstance
    sources: Sequence[int]
    table: np.ndarray
    jumps: _ComplementJumps
    trees: dict[int, list[int]] = field(default_factory=dict, repr=False)

    @property
    def budget(self) -> int:
        return self.table.shape[0] - 1

    @property
    def n(self) -> int:
        return self.table.shape[2]

    def row(self, u: int) -> int:
        """Index of ``u``'s row in ``table``; ValueError when ``u`` is not a source."""
        if u not in self.sources:
            raise ValueError(f"vertex {u} is not a source of this table")
        return self.sources.index(u)

    def get(self, beta: int, u: int, v: int) -> Dist:
        _check_entry(self.instance, beta, v)
        return to_dist(int(self.table[beta, self.row(u), v]))


def apsp_b(
    instance: WeightedInstance, sources: Sequence[int] | None = None
) -> BoundedCostDistances:
    """Bounded-cost distances from ``sources`` (default: every vertex), for budgets 0..B."""
    ensure_valid(instance)
    n = instance.n
    rows = range(n) if sources is None else tuple(sources)
    if not all(0 <= s < n for s in rows):
        raise ValueError(f"sources {list(rows)} out of range for n={n}")
    jumps = _ComplementJumps.of(instance)
    table = _table_rows(instance.metric, jumps, instance.budget, np.array(rows, dtype=np.intp))
    return BoundedCostDistances(instance, rows, table.view(np.int64), jumps)


@dataclass(frozen=True)
class PathWitness:
    """A concrete path realizing a bounded-cost distance table entry.

    ``cost`` sums the insertion costs along the walk (a repeated non-edge
    is counted every time, which can only overstate the budget actually
    needed); ``used_non_edges`` is the set of distinct non-edges crossed.
    """

    vertices: tuple[int, ...]
    used_non_edges: frozenset[Pair]
    weight: int
    cost: int


class PathSource:
    """A view of ``source``'s row of ``dists``, with witness paths.

    ``table[beta][v]`` is the cheapest weight of a beta-bounded path from
    ``source`` to ``v`` (int64, INF64 for unreachable). Nothing is computed
    or cached here; ValueError when ``source`` is not a row of ``dists``.
    """

    def __init__(self, dists: BoundedCostDistances, source: int):
        self.table = dists.table[:, dists.row(source)]
        self.instance = dists.instance
        self.source = source
        self._graph, self._jumps, self._trees = dists.instance.metric, dists.jumps, dists.trees
        self._row = self.table.view(np.uint64)

    def get(self, beta: int, v: int) -> Dist:
        _check_entry(self.instance, beta, v)
        return to_dist(int(self.table[beta, v]))

    def _graph_path(self, a: int, b: int) -> list[int]:
        """Vertices of a shortest a-b path over existing edges."""
        if a not in self._trees:
            self._trees[a] = _dijkstra(self.instance, a)[1]
        pred = self._trees[a]
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
        jumps, n = self._jumps, self.instance.n
        into_v, target = self._graph[:, v], self._row[beta, v]
        for c in sorted({jumps.cost, *jumps.listed}):
            if c > beta:
                break
            before, hits = self._row[beta - c], []
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
        instance = self.instance
        _check_entry(instance, beta, v)  # a negative v would walk a wrapped row forever
        if self._row[beta, v] >= INF64:
            raise NoPathError(f"no path: source {self.source}, target {v}, budget {beta}")
        tails: list[list[int]] = []  # graph paths y -> v, each after a jump x -> y
        used: set[Pair] = set()
        cost = 0
        while self._row[beta, v] != self._graph[self.source, v]:
            c, x, y = self._last_jump(beta, v)
            tails.append(self._graph_path(y, v))
            used.add(ordered_pair(x, y))
            cost += c
            beta, v = beta - c, x
        vertices = self._graph_path(self.source, v)
        for tail in reversed(tails):
            vertices += tail
        weight = sum(instance.weight.get(a, b) for a, b in zip(vertices, vertices[1:]))
        return PathWitness(
            vertices=tuple(vertices),
            used_non_edges=frozenset(used),
            weight=weight,
            cost=cost,
        )
