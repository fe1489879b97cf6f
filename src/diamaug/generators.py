"""Instance generators: covering-problem reductions and seeded random graphs.

The reduction turns a covering instance into a unit-weight, unit-cost
augmentation instance of diameter exactly 3 whose diameter can be brought
down to 2 within budget k if and only if the covering instance has a cover
of size at most k. Its multi-copy variant replicates the set and element
blocks to make under-budget solutions useless copy by copy. Both
constructions self-check their distance profile before returning.

Every element vertex sits at distance 3 from ``a`` and every other pair is
within 2, so diameter 2 means bringing every element vertex within 2 of
``a``. With budget B = k * copies, the construction uses
m = max(|sets| * k, 2B + 1) element blocks per copy. The covering argument
counts the element vertices each inserted edge brings within 2 of ``a``:

* an a-hub edge reaches two block indices, in every copy;
* an a-set edge reaches that set's elements in every block of its copy;
* any other edge reaches at most one element vertex.

Take a budget-feasible insertion set with h a-hub edges. If some copy's
a-set edges do not cover the universe, an uncovered element must be reached
one vertex at a time in each of the >= m - 2h blocks the hubs miss, which
needs B >= h + (m - 2h) = m - h >= m - B edges, impossible because m > 2B.
So every copy's a-set edges form a cover, and since they share the budget
B = k * copies, some copy covers with at most k sets. Conversely a cover of
at most k sets, inserted as a-set edges in every copy, spends at most B. With
m <= 2B a few a-hub edges alone reach every block and the equivalence
fails, e.g. two singleton sets with k = 1 give one hub adjacent to every
element vertex.

Random instances draw an edge set and integer weights from a seeded stream
(`random.Random`, i.e. the Mersenne Twister as shipped with CPython); the
exact draw order is fixed by the golden-file tests, so identical parameters
always reproduce identical instances byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (
    Pair,
    PairTable,
    WeightedInstance,
    ordered_pair,
    to_dist,
)


class ReductionError(ValueError):
    """Degenerate covering instance or failed construction self-check."""


@dataclass(frozen=True)
class SetCoverInstance:
    """A covering problem: pick at most k of the sets to cover the universe.

    Elements are 0..universe_size-1. Every set must be a non-empty subset of
    the universe, and together the sets must cover it (an uncoverable
    element would make the reduction's distance profile collapse).
    """

    universe_size: int
    sets: tuple[frozenset[int], ...]
    k: int

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise ReductionError(f"universe must be non-empty, got size {self.universe_size}")
        if self.k < 1:
            raise ReductionError(f"cover budget must be >= 1, got {self.k}")
        if not self.sets:
            raise ReductionError("need at least one candidate set")
        universe = frozenset(range(self.universe_size))
        for s in self.sets:
            if not s:
                raise ReductionError("candidate sets must be non-empty")
            if not s <= universe:
                raise ReductionError(f"set {sorted(s)} leaves the universe of size {self.universe_size}")
        if frozenset().union(*self.sets) != universe:
            raise ReductionError("the candidate sets do not cover the universe")


@dataclass(frozen=True)
class ReductionLayout:
    """Vertex numbering of a reduction instance, for block-wise verification.

    Vertices are laid out as: ``a``, ``b``, the set-block copies (one block
    of set-vertices per copy), the element blocks (per copy, ``m`` blocks of
    universe_size element-vertices each), and finally one hub vertex per
    unordered pair of element-block indices, in lexicographic order. The
    plain reduction is the single-copy case. ``m`` is
    max(|sets| * k, 2 * k * copies + 1): more blocks than twice the budget,
    so that hub edges alone can never reach every block.
    """

    m: int
    copies: int
    a: int
    b: int
    set_blocks: tuple[tuple[int, ...], ...]
    element_blocks: tuple[tuple[tuple[int, ...], ...], ...]
    hubs: dict[Pair, int]

    def set_vertices(self) -> tuple[int, ...]:
        return tuple(v for block in self.set_blocks for v in block)

    def element_vertices(self) -> tuple[int, ...]:
        return tuple(
            v for copy in self.element_blocks for block in copy for v in block
        )

    def hub_vertices(self) -> tuple[int, ...]:
        return tuple(self.hubs[key] for key in sorted(self.hubs))


def _build_reduction(sc: SetCoverInstance, copies: int) -> tuple[WeightedInstance, ReductionLayout]:
    budget = sc.k * copies
    m = max(len(sc.sets) * sc.k, 2 * budget + 1)

    a, b = 0, 1
    next_id = 2
    set_blocks: list[tuple[int, ...]] = []
    for _ in range(copies):
        block = tuple(range(next_id, next_id + len(sc.sets)))
        set_blocks.append(block)
        next_id += len(sc.sets)
    element_blocks: list[tuple[tuple[int, ...], ...]] = []
    for _ in range(copies):
        blocks = []
        for _ in range(m):
            blocks.append(tuple(range(next_id, next_id + sc.universe_size)))
            next_id += sc.universe_size
        element_blocks.append(tuple(blocks))
    hubs: dict[Pair, int] = {}
    for i in range(m):
        for j in range(i + 1, m):
            hubs[(i, j)] = next_id
            next_id += 1
    n = next_id

    edges: set[Pair] = set()

    def add(u: int, v: int) -> None:
        edges.add(ordered_pair(u, v))

    add(a, b)
    all_set_vertices = [v for block in set_blocks for v in block]
    for y in all_set_vertices:
        add(b, y)
    for hub in hubs.values():
        add(b, hub)
    for i, y in enumerate(all_set_vertices):
        for y2 in all_set_vertices[i + 1 :]:
            add(y, y2)
    for copy in range(copies):
        for set_idx, members in enumerate(sc.sets):
            y = set_blocks[copy][set_idx]
            for block in element_blocks[copy]:
                for element in members:
                    add(y, block[element])
    for (i, j), hub in hubs.items():
        for copy in range(copies):
            for t in element_blocks[copy][i]:
                add(t, hub)
            for t in element_blocks[copy][j]:
                add(t, hub)
    hub_list = sorted(hubs.values())
    for i, h in enumerate(hub_list):
        for h2 in hub_list[i + 1 :]:
            add(h, h2)

    instance = WeightedInstance(
        n=n,
        edges=frozenset(edges),
        weight=PairTable(default=1),
        cost=PairTable(default=1),
        budget=budget,
    )
    layout = ReductionLayout(
        m=m,
        copies=copies,
        a=a,
        b=b,
        set_blocks=tuple(set_blocks),
        element_blocks=tuple(element_blocks),
        hubs=hubs,
    )
    _check_reduction(instance, layout)
    return instance, layout


def _check_reduction(instance: WeightedInstance, layout: ReductionLayout) -> None:
    """Verify the construction's distance profile; raise on any mismatch."""
    elements = set(layout.element_vertices())
    metric = [[to_dist(d) for d in row] for row in instance.metric.tolist()]
    worst = max(map(max, metric))
    for u, dist in enumerate(metric):
        if u == layout.a:
            for v in range(instance.n):
                if v == layout.a:
                    continue
                expected = 3 if v in elements else (1 if v == layout.b else 2)
                if dist[v] != expected:
                    raise ReductionError(
                        f"self-check failed: dist(a, {v}) = {dist[v]}, expected {expected}"
                    )
        else:
            for v in range(u + 1, instance.n):
                if v != layout.a and dist[v] > 2:
                    raise ReductionError(
                        f"self-check failed: dist({u}, {v}) = {dist[v]} > 2"
                    )
    if worst != 3:
        raise ReductionError(f"self-check failed: reduction diameter is {worst}, expected 3")


def reduce_setcover(sc: SetCoverInstance) -> tuple[WeightedInstance, ReductionLayout]:
    """Covering instance -> unit augmentation instance with budget k.

    The output has diameter exactly 3, every element vertex at distance 3
    from ``a`` and everything else within 2; diameter 2 is reachable within
    the budget if and only if the covering instance is solvable. It has
    m = max(|sets| * k, 2k + 1) element blocks: with m <= 2k a few edges
    from ``a`` to hub vertices would reach every block without any cover.
    """
    return _build_reduction(sc, copies=1)


def reduce_setcover_multicopy(
    sc: SetCoverInstance, copies: int
) -> tuple[WeightedInstance, ReductionLayout]:
    """Replicated reduction with budget k * copies; needs copies >= 2.

    The set and element blocks are replicated; the hub vertices are shared
    across copies and connect to the matching element block of every copy,
    so one edge from ``a`` to a hub reaches two block indices in every copy.
    With m = max(|sets| * k, 2 * k * copies + 1) blocks per copy, budget
    k * copies brings the diameter to 2 if and only if a cover of size at
    most k exists.
    """
    if copies < 2:
        raise ReductionError(f"multi-copy reduction needs copies >= 2, got {copies}")
    return _build_reduction(sc, copies=copies)


def gen_random(
    n: int,
    edge_probability: float,
    max_weight: int,
    max_cost: int,
    budget: int,
    seed: int,
) -> WeightedInstance:
    """Seeded random instance; identical arguments give identical instances.

    Draw order, pinned by the golden-file tests: for every vertex pair in
    lexicographic order one uniform draw decides edge membership, and each
    edge immediately draws its weight from [1, max_weight]; afterwards one
    draw fixes the default non-edge weight in [1, max_weight] and one the
    default non-edge cost in [1, max_cost].
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {edge_probability}")
    if max_weight < 1 or max_cost < 1:
        raise ValueError("max_weight and max_cost must be >= 1")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    rng = random.Random(seed)
    edges: dict[Pair, int] = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_probability:
                edges[(u, v)] = rng.randint(1, max_weight)
    default_weight = rng.randint(1, max_weight)
    default_cost = rng.randint(1, max_cost)
    return WeightedInstance(
        n=n,
        edges=frozenset(edges),
        weight=PairTable(default=default_weight, overrides=edges),
        cost=PairTable(default=default_cost),
        budget=budget,
    )
