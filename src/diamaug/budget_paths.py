"""Budget-bounded shortest paths by a (min,+) table recurrence.

A path in the complete graph on the instance vertices may use non-edges as
long as their insertion costs sum to at most a budget ``beta``. Write D₀ for
the graph metric (existing edges only), W_c for the matrix holding the
weight of every non-edge of cost c (unreachable elsewhere), and ⊗ for the
(min,+) matrix product. Splitting a cheapest beta-bounded path at its last
non-edge gives

    D_beta = min(D_{beta-1}, min_{c <= beta} (D_{beta-c} ⊗ W_c) ⊗ D₀),

so the table for every budget 0..B follows from D₀ (``instance.metric``) and
the W_c alone, which are cut from the instance's dense pair view (costs
clipped to B+1). Row s of D_beta depends only on row s of the smaller budgets,
so :func:`apsp_b` builds the W_c once and fills the rows of the sources asked for;
a :class:`PathSource` is a view of one of those rows. Products loop over the
middle index, which keeps temporaries at rows × n; entries are uint64 while
they are summed, so two "unreachable" sentinels (2**62 each) add up without
wrapping.

Witness paths are walked back from the table. An entry that equals its D₀
entry is a graph path, read from a Dijkstra predecessor tree. Otherwise its
last non-edge is the smallest (c, x, y) with
D_{beta-c}[s, x] + w(x, y) + D₀[y, v] = D_beta[s, v]; the walk continues
from (x, beta - c) and ends with a graph path y -> v. The budget drops on
every jump, so zero-weight ties cannot make the walk cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _min_plus(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out = min(out, a ⊗ b)`` over uint64 entries no larger than the sentinel."""
    for k in range(a.shape[1]):
        np.minimum(out, a[:, k, None] + b[None, k, :], out=out)


def _engine_inputs(instance: WeightedInstance) -> dict[int, np.ndarray]:
    """The nonempty W_c (c <= budget) as uint64 matrices, INF64 for unreachable."""
    budget, dense = instance.budget, instance.dense
    weight = dense.weight.astype(np.uint64)  # a valid instance's weights lie in [0, INF64)
    cost = np.minimum(dense.cost, budget + 1)
    cost[dense.edge] = budget + 1  # existing edges are never inserted
    np.fill_diagonal(cost, budget + 1)
    return {
        int(c): np.where(cost == c, weight, np.uint64(INF64))
        for c in np.unique(cost)
        if c <= budget
    }


def _table_rows(
    graph: np.ndarray, jumps: dict[int, np.ndarray], budget: int, rows: np.ndarray
) -> np.ndarray:
    """Rows ``rows`` of D_beta for beta = 0..budget, shape (budget+1, len(rows), n), uint64."""
    table = np.empty((budget + 1, len(rows), graph.shape[0]), dtype=np.uint64)
    table[0] = graph[rows]
    for beta in range(1, budget + 1):
        last_jump = np.full(table.shape[1:], INF64, dtype=np.uint64)
        for c, jump in jumps.items():
            if c <= beta:
                _min_plus(table[beta - c], jump, last_jump)
        table[beta] = table[beta - 1]
        _min_plus(last_jump, graph, table[beta])
    return table


def _check_entry(instance: WeightedInstance, beta: int, v: int) -> None:
    """ValueError unless 0 <= beta <= budget and 0 <= v < n: numpy would wrap negatives."""
    if not (0 <= beta <= instance.budget and 0 <= v < instance.n):
        raise ValueError(f"entry ({beta}, {v}) out of range for B={instance.budget}, n={instance.n}")


@dataclass(frozen=True, eq=False)
class BoundedCostDistances:
    """Rows ``table[beta][i][v]`` of the bounded-cost table for ``sources[i]``.

    ``table`` is int64 with INF64 for unreachable entries; with every vertex
    a source, ``sources`` is ``range(n)`` and row i is vertex i. ``jumps``
    (W_c) are kept for witness walks by :class:`PathSource`.
    """

    instance: WeightedInstance
    sources: Sequence[int]
    table: np.ndarray
    jumps: dict[int, np.ndarray]

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
    jumps = _engine_inputs(instance)
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
    here; ValueError when ``source`` is not a row of ``dists``.
    """

    def __init__(self, dists: BoundedCostDistances, source: int):
        self.table = dists.table[:, dists.row(source)]
        self.instance = dists.instance
        self.source = source
        self._graph, self._jumps = dists.instance.metric, dists.jumps
        self._row = self.table.view(np.uint64)
        self._trees: dict[int, list[int]] = {}

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
        """Smallest (c, x, y) whose jump ends a cheapest beta-bounded path to ``v``."""
        into_v = self._graph[:, v][None, :]
        for c in sorted(self._jumps):
            if c > beta:
                break
            total = self._row[beta - c][:, None] + self._jumps[c] + into_v
            hits = np.flatnonzero(total == self._row[beta, v])
            if hits.size:
                x, y = divmod(int(hits[0]), self.instance.n)
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
