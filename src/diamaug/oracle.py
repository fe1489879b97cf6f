"""The exact optimum by exhaustive enumeration, for small instances.

:func:`exact_optimum` backs ``diamaug exact`` and the quality column of
``bench --suite small``. It tries every insertion set within budget and
reads each diameter from its own int64 Floyd–Warshall (:func:`_base_matrix`),
updated one inserted edge at a time (:func:`_with_edge`), not from
``core.graph_metric``, so it stays an independent check on the solvers.
Before any matrix is built it counts the sets it will visit and refuses
with :class:`OracleLimitError` when the work exceeds :data:`MAX_WORK`,
instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import INF, INF64, Dist, Pair, WeightedInstance, ensure_valid, to_dist

# Matrix entries exact_optimum may compute: n³ for the base matrix plus n² per
# visited set. 2²⁷ admits about two million sets at n = 8 and none above n = 511.
MAX_WORK = 2**27


class OracleLimitError(RuntimeError):
    """An oracle refused an instance that exceeds its size guards."""


@dataclass(frozen=True)
class ExactResult:
    """Optimal insertion set within budget, by exhaustive enumeration."""

    best_added: tuple[Pair, ...]
    best_diameter: Dist
    explored: int


def _base_matrix(instance: WeightedInstance) -> np.ndarray:
    """All-pairs distance matrix of the bare instance graph (int64)."""
    rows, cols, _ = instance.edges.within(instance.n)
    d = np.full((instance.n, instance.n), INF64)  # a valid instance's weights lie in [0, INF64)
    d[rows, cols] = d[cols, rows] = instance.weight_at(rows, cols)
    np.fill_diagonal(d, 0)
    for k in range(instance.n):
        via = d[:, k, None] + d[None, k, :]
        bad = (d[:, k, None] >= INF64) | (d[None, k, :] >= INF64)
        via = np.where(bad, INF64, via)
        np.minimum(d, via, out=d)
    return d


def _with_edge(d: np.ndarray, u: int, v: int, w: int) -> np.ndarray:
    """Distance matrix after adding one undirected edge of weight ``w``."""
    inner = np.minimum(d[v] + w, INF64)
    via = d[:, u, None] + inner[None, :]
    bad = (d[:, u, None] >= INF64) | (inner[None, :] >= INF64)
    via = np.where(bad, INF64, via)
    out = np.minimum(d, via)
    np.minimum(out, via.T, out=out)
    return out


def exact_optimum(instance: WeightedInstance) -> ExactResult:
    """Enumerate every insertion set within budget and keep the best diameter.

    The enumeration is a depth-first walk over the lexicographically sorted
    non-edge list, branching only while budget remains. Among optimal sets
    the lexicographically smallest is returned, so results are stable across
    implementations. ``explored`` is the number of sets visited: every subset
    of non-edges whose costs sum to at most the budget, the empty set included.

    Raises OracleLimitError before any work when (sets + n)·n² exceeds
    ``MAX_WORK`` (read at call time). The sets are counted by cost sum, so a
    huge budget costs nothing, and the count stops once it passes the limit.
    Before counting, a lower bound refuses at once: when the t cheapest
    non-edges fit in the budget, so does each of their 2**t subsets. Spread
    costs under a huge budget would otherwise grow the count to millions of
    distinct sums before it passes the limit.
    """
    ensure_valid(instance)
    n = instance.n
    rows, cols = instance.non_edge_pairs()
    non_edges = list(zip(rows.tolist(), cols.tolist()))
    costs = instance.cost_at(rows, cols).tolist()
    weights = instance.weight_at(rows, cols).tolist()
    max_sets = MAX_WORK // (n * n) - n
    fitting = sum(1 for total in accumulate(sorted(costs)) if total <= instance.budget)
    explored = 1 << fitting  # at least this many sets, until counted
    if explored <= max_sets:
        sets_by_cost = {0: 1}
        explored = 1
        for c in costs:
            if explored > max_sets:
                break
            for total, count in list(sets_by_cost.items()):
                if total + c <= instance.budget:
                    sets_by_cost[total + c] = sets_by_cost.get(total + c, 0) + count
                    explored += count
    if explored > max_sets:
        raise OracleLimitError(
            f"instance too large: more than {max(max_sets, 0)} sets within budget at n={n} "
            f"(the guard admits (sets + n)·n² <= {MAX_WORK})"
        )

    best_key: tuple = (INF, ())

    def visit(d: np.ndarray, start: int, budget_left: int, chosen: list[Pair]) -> None:
        nonlocal best_key
        key = (to_dist(int(d.max()), INF64), tuple(chosen))
        if key < best_key:
            best_key = key
        for idx in range(start, len(non_edges)):
            c = costs[idx]
            if c > budget_left:
                continue
            u, v = non_edges[idx]
            chosen.append((u, v))
            visit(_with_edge(d, u, v, weights[idx]), idx + 1, budget_left - c, chosen)
            chosen.pop()

    visit(_base_matrix(instance), 0, instance.budget, [])
    best_diameter, best_added = best_key
    return ExactResult(best_added=best_added, best_diameter=best_diameter, explored=explored)
