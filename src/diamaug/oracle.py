"""The exact optimum by exhaustive enumeration, for small instances.

:func:`exact_optimum` backs ``diamaug exact`` and the quality column of
``bench --suite small``. It tries every insertion set within budget and
reads each diameter from its own int64 Floyd–Warshall (:func:`_base_matrix`),
updated one inserted edge at a time (:func:`_with_edge`), not from
``core.graph_metric``, so it stays an independent check on the solvers.
Hard size guards refuse oversized inputs with :class:`OracleLimitError`
instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    INF,
    INF64,
    Dist,
    Pair,
    WeightedInstance,
    ensure_valid,
    to_dist,
)

DEFAULT_MAX_NONEDGES = 28
DEFAULT_MAX_NODES = 2_000_000


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
    n = instance.n
    d = np.full((n, n), INF64, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for (u, v) in instance.edges:
        w = instance.weight.get(u, v)
        if w < d[u, v]:
            d[u, v] = w
            d[v, u] = w
    for k in range(n):
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


def exact_optimum(
    instance: WeightedInstance,
    *,
    max_nonedges: int = DEFAULT_MAX_NONEDGES,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> ExactResult:
    """Enumerate every insertion set within budget and keep the best diameter.

    The enumeration is a depth-first walk over the lexicographically sorted
    non-edge list, branching only while budget remains. Among optimal sets
    the lexicographically smallest is returned, so results are stable across
    implementations.

    Raises OracleLimitError when the non-edge count exceeds ``max_nonedges``
    or the enumeration would visit more than ``max_nodes`` candidate sets.
    """
    ensure_valid(instance)
    non_edges = instance.non_edges()
    if len(non_edges) > max_nonedges:
        raise OracleLimitError(
            f"instance too large: {len(non_edges)} non-edges exceed the guard ({max_nonedges})"
        )
    costs = [instance.cost.get(u, v) for (u, v) in non_edges]

    best_key: tuple = (INF, ())
    explored = 0

    def visit(d: np.ndarray, start: int, budget_left: int, chosen: list[Pair]) -> None:
        nonlocal best_key, explored
        explored += 1
        if explored > max_nodes:
            raise OracleLimitError(
                f"instance too large: enumeration exceeded {max_nodes} candidate sets"
            )
        key = (to_dist(int(d.max())), tuple(chosen))
        if key < best_key:
            best_key = key
        for idx in range(start, len(non_edges)):
            c = costs[idx]
            if c > budget_left:
                continue
            u, v = non_edges[idx]
            chosen.append((u, v))
            visit(_with_edge(d, u, v, instance.weight.get(u, v)), idx + 1, budget_left - c, chosen)
            chosen.pop()

    visit(_base_matrix(instance), 0, instance.budget, [])
    best_diameter, best_added = best_key
    return ExactResult(best_added=best_added, best_diameter=best_diameter, explored=explored)
