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

The table H[S, j, u] is filled in two steps per subset S, one popcount
level at a time so that every proper submask comes first (the Dreyfus–Wagner
send-and-split structure of Steiner-tree dynamic programs):

* merge at v: g[S, j', v] = min over splits S = A ⊎ B and j2 + j3 = j' of
  max(H[A, j2, v], H[B, j3, v]), elementwise over v;
* move along a path: H[S, j, u] = min over j1 <= j and v of
  D_{j1}[u, v] + g[S, j - j1, v], with D the bounded-cost distance table.
  Only fresh layers are read: j1 with D_{j1} = D_{j1-1} adds dominated terms.

For m non-root centers this costs O(3^m·B²·n) to merge plus, per mask, the
sum over the fresh layers j1 of (B+1−j1)·n² to move, instead of the
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

from . import budget_paths
from .budget_paths import BoundedCostDistances, PathSource, _min_plus, apsp_b
from .clustering import ClusterCenters, greedy_centers
from .core import (
    INF,
    INF64,
    Augmentation,
    Dist,
    Pair,
    WeightedInstance,
    augment,
    ensure_valid,
    to_dist,
)


# Largest height table allocated. Filling one peaks near 2.6x its size under tracemalloc,
# as the merge step copies kept and complement halves, plus up to two 256 KiB tiles: 2.43 MiB
# for 0.94 MiB at n = 24, B = 9, and 0.95 MiB for 0.2 MiB at n = 800, B = 3. So this limit
# keeps a solve under 1 GB. Tables near it take minutes: 12 non-root centers at n = 24 (10 MB)
# took 2.2 s on a shared 2-core Xeon host, and each further center triples the merge work.
MAX_HEIGHT_TABLE_BYTES = 2**28


class InfeasibleEntryError(LookupError):
    """Requested a tree for an unreachable height-table entry."""


class HeightTableLimitError(RuntimeError):
    """A height table would exceed ``MAX_HEIGHT_TABLE_BYTES``."""


def _check_table_size(m: int, budget: int, n: int) -> None:
    """HeightTableLimitError when the table of ``m`` non-root centers exceeds the limit."""
    size = (1 << m) * (budget + 1) * n * 8
    if size > MAX_HEIGHT_TABLE_BYTES:
        raise HeightTableLimitError(
            f"height table of {m} non-root centers, budget {budget} and {n} vertices needs "
            f"{size} bytes, over the limit of {MAX_HEIGHT_TABLE_BYTES}"
        )


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


def _kept_halves(mask: int) -> list[int]:
    """Kept halves of every split of ``mask``, ascending: each holds its lowest bit."""
    low_bit = mask & -mask
    rest = mask ^ low_bit
    halves = []
    sub = rest
    while sub:  # the proper submasks of rest, descending
        sub = (sub - 1) & rest
        halves.append(low_bit | sub)
    return halves[::-1]


@dataclass(frozen=True, eq=False)
class HeightTable:
    """Minimum spanning heights for every (subset, budget, root vertex).

    ``others`` lists the non-root centers in selection order; bit i of a
    subset mask stands for ``others[i]``. ``values`` has shape
    (2**len(others), budget+1, n), uint64 with INF64 (2**62) marking
    unreachable entries.
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

    def _check_entry(self, u: int, mask: int, j: int) -> None:
        """ValueError unless (u, mask, j) is an entry: numpy would wrap negatives."""
        n = self.values.shape[2]
        if not (0 <= u < n and 1 <= mask <= self.full_mask and 0 <= j <= self.budget):
            raise ValueError(f"bad table entry: vertex={u}, mask={mask}, j={j}")

    def height(self, u: int, mask: int, j: int) -> Dist:
        self._check_entry(u, mask, j)
        return to_dist(int(self.values[mask, j, u]))

    def choice(self, u: int, mask: int, j: int) -> BaseChoice | SplitChoice | None:
        """The minimizing rule of a finite entry, else None.

        A split entry returns the smallest (via, subset mask, path budget,
        kept budget) tuple that reaches its value, the kept half holding the
        lowest-indexed center.
        """
        self._check_entry(u, mask, j)
        target = self.values[mask, j, u]
        if target >= INF64:
            return None
        if mask.bit_count() == 1:
            return BaseChoice(center=self.others[mask.bit_length() - 1], budget=j)
        smasks = np.array(_kept_halves(mask))
        kept, comp = self.values[smasks], self.values[mask ^ smasks]  # (splits, budget+1, n)
        j1s, j2s = np.nonzero(np.add.outer(np.arange(j + 1), np.arange(j + 1)) <= j)  # j1 major
        path = self.dists.table[j1s, u]  # (pairs, n)
        step, first = max(1, budget_paths._TILE // path.size), None
        for start in range(0, len(smasks), step):  # blocks of splits, first hit by (v, split)
            block = slice(start, start + step)
            total = path + np.maximum(kept[block, j2s], comp[block, j - j1s - j2s])
            hits = (total == target).transpose(2, 0, 1)  # (v, split, pair)
            hit = np.unravel_index(hits.argmax(), hits.shape)
            if hits[hit] and (first is None or hit[0] < first[0]):
                first = (hit[0], start + hit[1], hit[2])
        v, split, pair = (int(x) for x in first)
        j1, j2 = int(j1s[pair]), int(j2s[pair])
        return SplitChoice(via=v, subset_mask=int(smasks[split]), budgets=(j1, j2, j - j1 - j2))


def solve_height_table(centers: ClusterCenters, dists: BoundedCostDistances) -> HeightTable:
    """Fill the height table over subsets of the non-root centers of ``dists.instance``.

    Masks run by popcount level, so every proper submask is done before the
    mask itself and the masks of a level never read each other. A level runs
    in chunks whose gathered halves take at most ``_TILE`` entries and whose
    rows at most ``_SHORT_ROWS``: one merge, then one :func:`_min_plus` call
    per fresh layer over the whole chunk. Entries start at INF64, so its
    operands stay at most INF64, as it asks.

    Layer j1 is fresh unless D_{j1} = D_{j1-1}. H[A, j, ·] does not increase
    with j (D_β does not, so neither does the merge, by induction), so then
    D_{j1} ⊗ g[j - j1] >= D_{j1-1} ⊗ g[j - j1 + 1], a term already taken.
    ``dists`` must hold every vertex's row in vertex order, as :func:`apsp_b`
    fills by default. Raises HeightTableLimitError, before allocating, for a
    table over ``MAX_HEIGHT_TABLE_BYTES``.
    """
    n, budget = dists.n, dists.budget
    if tuple(dists.sources) != tuple(range(n)):
        raise ValueError("distance table must hold every vertex's row in vertex order")
    others = tuple(centers.centers[1:])
    m = len(others)
    _check_table_size(m, budget, n)
    d = dists.table  # (budget+1, n, n)

    values = np.full(((1 << m), budget + 1, n), INF64, dtype=np.uint64)
    for i, c in enumerate(others):
        values[1 << i] = d[:, c]  # row c: the table is symmetric

    fresh = [j1 for j1 in range(budget + 1) if j1 == 0 or not np.array_equal(d[j1], d[j1 - 1])]
    popcounts = np.array([mask.bit_count() for mask in range(1 << m)])
    width = (budget + 1) * n
    for level in range(2, m + 1):
        masks = np.flatnonzero(popcounts == level)
        halves = np.array([_kept_halves(mask) for mask in masks.tolist()])  # (masks, splits)
        chunk = max(1, min(budget_paths._TILE // (2 * halves.shape[1] * width),
                           budget_paths._SHORT_ROWS // width))
        for start in range(0, len(masks), chunk):
            group, smasks = masks[start : start + chunk], halves[start : start + chunk]
            kept, comp = values[smasks], values[group[:, None] ^ smasks]  # (masks, splits, B+1, n)
            # merge at v: merged[j', mask, v] = min over splits and j2 + j3 = j' of the larger half
            merged = np.full((budget + 1, len(group), n), INF64, dtype=np.uint64)
            for j2 in range(budget + 1):
                larger = np.maximum(kept[:, :, j2, None], comp[:, :, : budget + 1 - j2]).min(axis=1)
                np.minimum(merged[j2:], larger.transpose(1, 0, 2), out=merged[j2:])
            # move along a path: moved[j, mask, u] = min over j1 and v of
            # merged[j - j1, mask, v] + d[j1, v, u], which is d[j1, u, v] by symmetry
            moved = np.full_like(merged, INF64)
            for j1 in fresh:
                rows = merged[: budget + 1 - j1].reshape(-1, n)
                _min_plus(rows, d[j1], moved[j1:].reshape(-1, n))
            values[group] = moved.transpose(1, 0, 2)

    return HeightTable(others=others, budget=budget, values=values, dists=dists)


@dataclass(frozen=True)
class CenterTree:
    """A rooted tree realizing a height-table entry.

    The same graph vertex may appear as several tree nodes (the table
    composes walks), so ``node_vertices`` maps each node id to its vertex,
    node 0 being the root. ``height`` is the largest root-to-node weight and
    ``new_edges`` the set of distinct non-edges the tree uses.
    """

    node_vertices: tuple[int, ...]
    height: Dist
    new_edges: frozenset[Pair]


def reconstruct_tree(table: HeightTable, u: int, mask: int, j: int) -> CenterTree:
    """Expand the table's choices into a concrete tree for a finite entry.

    Leaf rules expand into bounded-path witnesses, branch rules into a
    witness path grafted onto the two recursively expanded halves. Raises
    InfeasibleEntryError on an unreachable entry; only the root can be one,
    as a finite split forces both halves and its path to be finite.
    """
    dists, weight = table.dists, table.dists.instance.weight
    node_vertices: list[int] = [u]
    depths: list[int] = [0]
    new_edges: set[Pair] = set()

    def graft(anchor: int, src: int, dst: int, beta: int) -> int:
        """Attach the witness path src->dst below tree node ``anchor``."""
        witness = PathSource(dists, src).path_to(dst, beta)
        new_edges.update(witness.used_non_edges)
        current = anchor
        for a, b in zip(witness.vertices, witness.vertices[1:]):
            node_vertices.append(b)
            depths.append(depths[current] + weight.get(a, b))
            current = len(node_vertices) - 1
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

    return CenterTree(
        node_vertices=tuple(node_vertices), height=max(depths), new_edges=frozenset(new_edges)
    )


@dataclass(frozen=True)
class FptOutcome:
    """Result of the end-to-end budget-exponential solver."""

    augmentation: Augmentation
    tree_height: Dist
    cluster_radius: Dist
    timings: dict[str, float]


def fpt_solve(instance: WeightedInstance, first_center: int = 0) -> FptOutcome:
    """Insert non-edges within budget, aiming at 4x the best diameter.

    Pipeline: bounded-cost distance table, greedy centers, height table,
    tree reconstruction rooted at the first center over all other centers.
    The distinct non-edges of that tree are the answer. Runtime grows with
    3**budget, so this is practical for small budgets only.

    With a single center (budget 0 or a single vertex) the tree is empty
    and nothing is inserted. If some center is unreachable within budget
    the outcome's ``tree_height`` is INF and it carries whatever diameter
    the bare graph has. Raises HeightTableLimitError for a height table
    over ``MAX_HEIGHT_TABLE_BYTES`` before building any stage.
    """
    ensure_valid(instance)
    _check_table_size(min(instance.budget + 1, instance.n) - 1, instance.budget, instance.n)
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
        timings=timings,
    )
