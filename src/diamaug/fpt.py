"""Budget-exponential solver: subset dynamic program over center sets.

The solver picks budget+1 greedy centers, then builds the cheapest-to-insert
tree that hangs every non-root center below the first center while keeping
the tree height small. Heights come from a table indexed by
(center subset, remaining budget, root vertex):

* a single center costs the bounded-path distance from the root vertex to
  that center, and
* a larger subset is split: walk from the root vertex to some via vertex
  spending part of the budget, then solve the two halves of the subset from
  the via vertex with the rest, paying the larger of their heights.

Inserting the tree's non-edges into the graph spends at most the budget and
provably brings the diameter within 4x of the best achievable value.

The table H[S, j, u] is filled in two steps per subset S, in ascending
mask order so that every proper submask comes first (the Dreyfus–Wagner
send-and-split structure of Steiner-tree dynamic programs):

* merge at v: g[S, j', v] = min over splits S = A ⊎ B and j2 + j3 = j' of
  max(H[A, j2, v], H[B, j3, v]), elementwise over v;
* move along a path: H[S, j, u] = min over j1 <= j and v of
  D_{j1}[u, v] + g[S, j - j1, v], with D the bounded-cost distance table.

This costs O(3^m·B²·n + 2^m·B²·n²) for m non-root centers instead of the
O(3^m·B³·n²) of minimizing over (split, j1, j2, v) at once, with the same
values. Splits are only enumerated with A holding the lowest-indexed
center, which halves the work without changing any value (the two halves
are interchangeable).

Only values are stored. The rule behind an entry is recomputed on demand,
and only reconstruction asks for it (fewer than 2m entries per tree). Ties
are broken by the smallest (via vertex, subset mask, first budget, second
budget) tuple that reaches the entry, with the kept subset holding the
lowest-indexed center, so reconstruction is deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .budget_paths import BoundedCostDistances, PathSource, apsp_b
from .clustering import ClusterCenters, greedy_centers
from .core import (
    INF,
    INF64,
    Augmentation,
    Dist,
    Pair,
    WeightedInstance,
    augment,
    to_dist,
)


class InfeasibleEntryError(LookupError):
    """Requested a tree for an unreachable height-table entry."""


@dataclass(frozen=True)
class BaseChoice:
    """Leaf rule: the entry is a bounded path straight to the one center."""

    center: int
    budget: int


@dataclass(frozen=True)
class SplitChoice:
    """Branch rule: path to ``via``, then the two subset halves from there.

    ``budgets`` = (path budget, kept-subset budget, complement budget).
    """

    via: int
    subset_mask: int
    budgets: tuple[int, int, int]


def _kept_halves(mask: int) -> np.ndarray:
    """Kept halves of every split of ``mask``, ascending: each holds its lowest bit."""
    low_bit = mask & -mask
    rest = mask ^ low_bit
    halves = []
    sub = rest
    while sub:  # the proper submasks of rest, descending
        sub = (sub - 1) & rest
        halves.append(low_bit | sub)
    return np.array(halves[::-1])


@dataclass(frozen=True, eq=False)
class HeightTable:
    """Minimum spanning heights for every (subset, budget, root vertex).

    ``others`` lists the non-root centers in selection order; bit i of a
    subset mask stands for ``others[i]``. ``values`` has shape
    (2**len(others), budget+1, n) with 2**62 marking unreachable entries.
    Only values are stored: :meth:`choice` recomputes the minimizing rule of
    an entry from ``values`` and the bounded-cost table in ``dists``.
    """

    others: tuple[int, ...]
    budget: int
    values: np.ndarray
    dists: BoundedCostDistances

    @property
    def full_mask(self) -> int:
        return (1 << len(self.others)) - 1

    def height(self, u: int, mask: int, j: int) -> Dist:
        return to_dist(int(self.values[mask, j, u]))

    def choice(self, u: int, mask: int, j: int) -> BaseChoice | SplitChoice | None:
        """The minimizing rule of a finite entry, else None.

        A split entry returns the smallest (via, subset mask, path budget,
        kept budget) tuple that reaches its value, the kept half holding the
        lowest-indexed center.
        """
        if mask == 0 or not 0 <= j <= self.budget:
            raise ValueError(f"bad table entry: mask={mask}, j={j}")
        target = self.values[mask, j, u]
        if target >= INF64:
            return None
        if mask.bit_count() == 1:
            return BaseChoice(center=self.others[mask.bit_length() - 1], budget=j)
        smasks = _kept_halves(mask)
        values = self.values.view(np.uint64)
        kept, comp = values[smasks], values[mask ^ smasks]  # (splits, budget+1, n)
        path = self.dists.table[:, u].view(np.uint64)  # (budget+1, n)
        candidates = []
        for j1 in range(j + 1):
            left = j - j1  # kept budget j2 = 0..left, complement budget left - j2
            total = path[j1] + np.maximum(kept[:, : left + 1], comp[:, left::-1])
            hits = np.argwhere((total == target).transpose(2, 0, 1))  # (v, split, j2)
            if hits.size:
                v, split, j2 = (int(x) for x in hits[0])
                candidates.append((v, int(smasks[split]), j1, j2))
        v, smask, j1, j2 = min(candidates)
        return SplitChoice(via=v, subset_mask=smask, budgets=(j1, j2, j - j1 - j2))


def solve_height_table(centers: ClusterCenters, dists: BoundedCostDistances) -> HeightTable:
    """Fill the height table over subsets of the non-root centers of ``dists.instance``.

    Masks run in ascending order, so every proper submask is done before
    the mask itself. Each mask takes a merge step, then a move step. Move
    sums run in uint64, so two INF64 terms cannot wrap. No entry needs a
    clamp: the term for v = u and j1 = 0 is merged[j, u] itself (the
    distance table has a zero diagonal), which is finite below 2**62 or
    INF64, so a minimum at or above 2**62 is exactly INF64. ``dists`` must
    hold every vertex's row in vertex order, as :func:`apsp_b` fills by default.
    """
    n, budget = dists.n, dists.budget
    if tuple(dists.sources) != tuple(range(n)):
        raise ValueError("distance table must hold every vertex's row in vertex order")
    others = tuple(centers.centers[1:])
    m = len(others)
    d = dists.table.view(np.uint64)  # (budget+1, n, n)

    values = np.full(((1 << m), budget + 1, n), INF64, dtype=np.uint64)
    for i, c in enumerate(others):
        values[1 << i] = d[:, :, c]

    merged = np.empty((budget + 1, n), dtype=np.uint64)
    for mask in range(1, 1 << m):
        if mask & (mask - 1) == 0:
            continue
        # merge at v: merged[j', v] = min over splits and j2 + j3 = j' of the larger half
        smasks = _kept_halves(mask)
        kept, comp = values[smasks], values[mask ^ smasks]  # (splits, budget+1, n)
        merged.fill(INF64)
        for j2 in range(budget + 1):
            larger = np.maximum(kept[:, j2, None], comp[:, : budget + 1 - j2])
            np.minimum(merged[j2:], larger.min(axis=0), out=merged[j2:])
        # move along a path: out[j, u] = min over j1 and v of d[j1, u, v] + merged[j - j1, v]
        out = values[mask]
        for j1 in range(budget + 1):
            sums = d[j1][:, None, :] + merged[None, : budget + 1 - j1, :]  # (u, j - j1, v)
            np.minimum(out[j1:], sums.min(axis=2).T, out=out[j1:])

    return HeightTable(others=others, budget=budget, values=values.view(np.int64), dists=dists)


@dataclass(frozen=True)
class TreeEdge:
    """One edge of a reconstructed tree; parent/child are tree-node ids."""

    parent: int
    child: int
    pair: Pair
    weight: int
    is_new_edge: bool


@dataclass(frozen=True)
class CenterTree:
    """A rooted tree realizing a height-table entry.

    The same graph vertex may appear as several tree nodes (the table
    composes walks), so nodes carry ids with ``node_vertices`` mapping each
    id back to its vertex. ``new_edges`` is the set of distinct non-edges
    the tree uses.
    """

    root_vertex: int
    node_vertices: tuple[int, ...]
    edges: tuple[TreeEdge, ...]
    height: Dist
    new_edges: frozenset[Pair]


def reconstruct_tree(table: HeightTable, u: int, mask: int, j: int) -> CenterTree:
    """Expand the table's choices into a concrete tree for a finite entry.

    Leaf rules expand into bounded-path witnesses, branch rules into a
    witness path grafted onto the two recursively expanded halves. Raises
    InfeasibleEntryError on unreachable entries.
    """
    if table.height(u, mask, j) == INF:
        raise InfeasibleEntryError(f"entry (vertex {u}, mask {mask:#x}, budget {j}) is unreachable")

    dists, instance = table.dists, table.dists.instance
    node_vertices: list[int] = [u]
    edges: list[TreeEdge] = []

    def graft(anchor: int, src: int, dst: int, beta: int) -> int:
        """Attach the witness path src->dst below tree node ``anchor``."""
        witness = PathSource(dists, src).path_to(dst, beta)
        current = anchor
        for a, b in zip(witness.vertices, witness.vertices[1:]):
            node_vertices.append(b)
            child = len(node_vertices) - 1
            edges.append(
                TreeEdge(
                    parent=current,
                    child=child,
                    pair=(a, b) if a < b else (b, a),
                    weight=instance.weight.get(a, b),
                    is_new_edge=not instance.is_edge(a, b),
                )
            )
            current = child
        return current

    # Entries still to expand, as (anchor node, vertex, mask, budget). A
    # recursive closure would hold itself in a reference cycle and keep the
    # table alive until the cyclic collector runs. Popping the kept half
    # before the complement expands depth-first, kept half first.
    pending = [(0, u, mask, j)]
    while pending:
        anchor, vertex, mask, j = pending.pop()
        rule = table.choice(vertex, mask, j)
        if rule is None:
            raise InfeasibleEntryError(
                f"entry (vertex {vertex}, mask {mask:#x}, budget {j}) is unreachable"
            )
        if isinstance(rule, BaseChoice):
            graft(anchor, vertex, rule.center, rule.budget)
            continue
        j1, j2, j3 = rule.budgets
        via_node = graft(anchor, vertex, rule.via, j1)
        pending.append((via_node, rule.via, mask ^ rule.subset_mask, j3))
        pending.append((via_node, rule.via, rule.subset_mask, j2))

    depth = [0] * len(node_vertices)
    for edge in edges:  # edges are appended parent-first, so one pass settles depths
        depth[edge.child] = depth[edge.parent] + edge.weight
    height = max(depth, default=0)
    new_edges = frozenset(e.pair for e in edges if e.is_new_edge)
    return CenterTree(
        root_vertex=u,
        node_vertices=tuple(node_vertices),
        edges=tuple(edges),
        height=height,
        new_edges=new_edges,
    )


@dataclass(frozen=True)
class FptOutcome:
    """Result of the end-to-end budget-exponential solver."""

    augmentation: Augmentation
    tree_height: Dist
    cluster_radius: Dist
    centers: tuple[int, ...]
    infeasible_height: bool
    timings: dict[str, float]


def fpt_solve(instance: WeightedInstance, first_center: int = 0) -> FptOutcome:
    """Insert non-edges within budget, aiming at 4x the best diameter.

    Pipeline: bounded-cost distance table, greedy centers, height table,
    tree reconstruction rooted at the first center over all other centers.
    The distinct non-edges of that tree are the answer. Runtime grows with
    3**budget, so this is practical for small budgets only.

    With a single center (budget 0 or a single vertex) the tree is empty
    and nothing is inserted. If some center is unreachable within budget
    the outcome is flagged ``infeasible_height`` and carries whatever
    diameter the bare graph has.
    """
    timings: dict[str, float] = {}
    start = time.perf_counter()
    dists = apsp_b(instance)
    timings["bounded_paths"] = time.perf_counter() - start

    start = time.perf_counter()
    centers = greedy_centers(instance, first_center)
    timings["clustering"] = time.perf_counter() - start

    start = time.perf_counter()
    table = solve_height_table(centers, dists)
    timings["table"] = time.perf_counter() - start

    root = centers.centers[0]
    full = table.full_mask
    start = time.perf_counter()
    height = table.height(root, full, instance.budget) if full else 0
    added: frozenset[Pair] = (
        reconstruct_tree(table, root, full, instance.budget).new_edges
        if full and height != INF
        else frozenset()
    )
    timings["reconstruct"] = time.perf_counter() - start

    start = time.perf_counter()
    augmentation = augment(instance, added)
    timings["diameter"] = time.perf_counter() - start
    return FptOutcome(
        augmentation=augmentation,
        tree_height=height,
        cluster_radius=centers.radius,
        centers=centers.centers,
        infeasible_height=height == INF,
        timings=timings,
    )
