"""Layered digraph construction and budget-bounded distance tables."""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from diamaug import (
    INF,
    BoundedCostDistances,
    NoPathError,
    PathSource,
    apsp_b,
    budget_paths,
    fpt_solve,
    gen_random,
    greedy_centers,
    pairwise_centers,
    star_centers,
    validate,
)
from diamaug.core import INF64
from helpers import (
    EDGE_CASES,
    _adjacency,
    _dijkstra,
    batch_rows,
    build,
    build_layered_digraph,
    complete_graph,
    override_corpus,
    p4,
    path_graph,
    reconstruct_path,
    reference_graph_trees,
    reference_table_rows,
    reference_witnesses,
    seeded_corpus,
    sssp,
    sssp_b,
    widened,
    witness_weight_cost,
)
from oracles import path_oracle


def test_layered_p4_counts():
    layered = build_layered_digraph(p4())
    assert len(layered.nodes) == 8
    assert len(layered.arcs) == 22
    intra = [a for a in layered.arcs if a[0][1] == a[1][1]]
    advance = [a for a in layered.arcs if a[0][0] == a[1][0]]
    cross = [a for a in layered.arcs if a[0][1] != a[1][1] and a[0][0] != a[1][0]]
    assert (len(intra), len(cross), len(advance)) == (12, 6, 4)


def test_layered_budget_zero():
    instance = p4(budget=0)
    layered = build_layered_digraph(instance)
    assert len(layered.nodes) == instance.n
    assert len(layered.arcs) == 2 * len(instance.edges)


def test_layered_complete_graph_has_only_advance_jumps():
    layered = build_layered_digraph(complete_graph(3, budget=2))
    jumps = [a for a in layered.arcs if a[0][1] != a[1][1]]
    assert len(jumps) == 6
    assert all(src[0] == dst[0] and w == 0 for src, dst, w in jumps)


@pytest.mark.parametrize("instance", seeded_corpus(8, seed=31, n_range=(2, 6)))
def test_layered_structure_invariants(instance):
    layered = build_layered_digraph(instance)
    assert len(layered.nodes) == (instance.budget + 1) * instance.n
    assert list(layered.arcs) == sorted(layered.arcs, key=lambda a: (a[0], a[1]))
    for (u, i), (v, j), w in layered.arcs:
        assert w >= 0
        if u == v:
            assert j == i + 1 and w == 0
        elif j != i:
            assert not instance.is_edge(u, v)
            assert j - i == instance.cost.get(u, v)
            assert w == instance.weight.get(u, v)
        else:
            assert instance.is_edge(u, v)


def test_apsp_p4_examples():
    dists = apsp_b(p4())
    assert dists.get(0, 0, 3) == 3
    assert dists.get(1, 0, 3) == 1


def test_heavy_shortcut_loses_to_graph_path():
    instance = p4(
        default_weight=10,
        weight_overrides={(0, 1): 1, (1, 2): 1, (2, 3): 1},
    )
    dists = apsp_b(instance)
    assert dists.get(1, 0, 3) == 3


def test_sssp_b_matches_apsp_rows():
    instance = p4(budget=2)
    dists = apsp_b(instance)
    for u in range(instance.n):
        assert np.array_equal(sssp_b(instance, u).table, dists.table[:, u])


@pytest.mark.parametrize(
    "weight, dtype", [(1, np.uint16), (2**20, np.uint32), (2**40, np.uint64)]
)
def test_tables_take_the_instance_dtype(weight, dtype):
    instance = p4(budget=2, default_weight=weight)
    assert instance.dist_type.dtype is dtype
    for dists in (apsp_b(instance), BoundedCostDistances.of(instance, (2,))):
        assert dists.table.dtype == PathSource(dists, 2).table.dtype == dtype


def test_isolated_source_budget_zero():
    instance = build(3, {(1, 2)}, budget=0)
    sentinel = instance.dist_type.sentinel
    assert sssp_b(instance, 0).table[0].tolist() == [0, sentinel, sentinel]


@pytest.mark.parametrize("instance", seeded_corpus(12, seed=32, n_range=(2, 6)))
def test_budget_zero_column_equals_graph_metric(instance):
    dists = apsp_b(instance)
    for u in range(instance.n):
        dist = sssp(instance, u)
        for v in range(instance.n):
            assert dists.get(0, u, v) == dist[v]


@pytest.mark.parametrize("instance", seeded_corpus(12, seed=33, n_range=(2, 6)))
def test_table_invariants(instance):
    dists = apsp_b(instance)
    graph_metric = [sssp(instance, u) for u in range(instance.n)]
    for beta in range(instance.budget + 1):
        for u in range(instance.n):
            assert dists.get(beta, u, u) == 0
            for v in range(instance.n):
                assert dists.get(beta, u, v) == dists.get(beta, v, u)
                assert dists.get(beta, u, v) <= graph_metric[u][v]
                if beta + 1 <= instance.budget:
                    assert dists.get(beta + 1, u, v) <= dists.get(beta, u, v)
                if u != v and not instance.is_edge(u, v):
                    if instance.cost.get(u, v) <= beta:
                        assert dists.get(beta, u, v) <= instance.weight.get(u, v)


@pytest.mark.parametrize("instance", seeded_corpus(10, seed=34, n_range=(2, 5)))
def test_apsp_equals_path_oracle(instance):
    dists = apsp_b(instance)
    for beta in range(instance.budget + 1):
        for u in range(instance.n):
            for v in range(instance.n):
                assert dists.get(beta, u, v) == path_oracle(instance, u, v, beta)


def _arc_dijkstra(layered, source):
    """Test-local search over the materialized arc list."""
    out: dict = {}
    for src, dst, w in layered.arcs:
        out.setdefault(src, []).append((dst, w))
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, INF):
            continue
        for nxt, w in out.get(node, ()):
            nd = d + w
            if nd < dist.get(nxt, INF):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist


@pytest.mark.parametrize("instance", seeded_corpus(6, seed=35, n_range=(2, 5), budget_range=(2, 3)))
def test_layer_shift_invariance(instance):
    # distances between layers depend only on the layer difference
    layered = build_layered_digraph(instance)
    budget = instance.budget
    for u in range(instance.n):
        from_zero = _arc_dijkstra(layered, (u, 0))
        from_one = _arc_dijkstra(layered, (u, 1))
        for v in range(instance.n):
            for j in range(1, budget + 1):
                assert from_one.get((v, j), INF) == from_zero.get((v, j - 1), INF)


@pytest.mark.parametrize("instance", EDGE_CASES)
def test_apsp_equals_layered_reference(instance):
    # bit for bit, the sentinel standing in for unreachable; sentinel sums must not wrap
    table, sentinel = apsp_b(instance).table, instance.dist_type.sentinel
    layered = build_layered_digraph(instance)
    for u in range(instance.n):
        dist = _arc_dijkstra(layered, (u, 0))
        for beta in range(instance.budget + 1):
            for v in range(instance.n):
                expected = dist.get((v, beta), INF)
                assert table[beta, u, v] == (sentinel if expected == INF else expected)
    assert (table >= 0).all()


def _exception_set_case(*, left_out: bool):
    """Vertex 0's exception set leaves out vertex 5 alone, or no vertex; the
    other non-edges keep the default jump (weight 1, cost 1)."""
    costs = {(0, 3): 2, (0, 4): 2} | ({} if left_out else {(0, 5): 3})
    weights = {(0, 3): 9, (0, 6): 7}
    edges = {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (5, 6)}
    return build(7, edges, budget=3, edge_weight=4, weight_overrides=weights, cost_overrides=costs)


ONE_LEFT_OUT = _exception_set_case(left_out=True)
NONE_LEFT_OUT = _exception_set_case(left_out=False)

TABLE_CORPUS = (
    [ONE_LEFT_OUT, NONE_LEFT_OUT]
    + EDGE_CASES
    + override_corpus(60, seed=38)
    + seeded_corpus(20, seed=39, max_cost=1)
    + seeded_corpus(20, seed=40, max_cost=2)
    + seeded_corpus(20, seed=41, max_cost=3, n_range=(2, 10), budget_range=(0, 4))
    # larger graphs, where full tables walk only the changing columns
    + seeded_corpus(6, seed=42, max_cost=3, n_range=(16, 40), budget_range=(2, 4))
    + override_corpus(6, seed=43, n_range=(16, 30))
)


@pytest.mark.parametrize("instance", TABLE_CORPUS)
def test_table_equals_dense_reference(instance):
    # bit for bit against one dense (min,+) product per cost class and budget
    n = instance.n
    for rows in (range(n), (n - 1,), tuple(range(n - 1, -1, -2)), ()):
        table = batch_rows(instance, rows)
        assert table.tobytes() == reference_table_rows(instance, rows).tobytes()


@pytest.mark.parametrize(
    "instance",
    TABLE_CORPUS + [instance for instance in override_corpus(100, seed=9) if not validate(instance)],
)
def test_full_table_is_symmetric(instance):
    # the height table's move step and base entries read rows in place of columns
    table = apsp_b(instance).table
    assert table.tobytes() == table.transpose(0, 2, 1).tobytes()


@pytest.mark.parametrize(
    "instance, outside, distance", [(ONE_LEFT_OUT, [5], 2), (NONE_LEFT_OUT, [], 5)]
)
def test_exception_set_edge_cases(instance, outside, distance):
    jumps = budget_paths._ComplementJumps.of(instance)
    assert np.flatnonzero(~jumps.excluded[0]).tolist() == outside
    assert jumps.cost == 1
    # with budget 2, 3 reaches 0 over the default jumps 3-5 and 5-0 only when 5 is left out
    assert apsp_b(instance).get(2, 3, 0) == distance


@pytest.mark.parametrize("tile, short_rows", [(48, 24), (64, 32), (200, 100)])
def test_small_tiles_match_dense_reference(monkeypatch, tile, short_rows):
    # every tile loop of the jump step and the walk product runs more than once
    monkeypatch.setattr(budget_paths, "_TILE", tile)
    monkeypatch.setattr(budget_paths, "_SHORT_ROWS", short_rows)
    for instance in TABLE_CORPUS[:2] + TABLE_CORPUS[-12:] + TABLE_CORPUS[2:-12:9]:
        for rows in (range(instance.n), (instance.n - 1,)):
            table = batch_rows(instance, rows)
            assert table.tobytes() == reference_table_rows(instance, rows).tobytes()


def test_walk_reads_every_searched_column():
    # Vertex 1 is reached only over the heavy edge 0-2 and then 2-1: the
    # cheapest 2-bounded path jumps 0 -> x -> 2, and its jump into 2 lies in
    # 0's exception set, so the walk product must read column 2 of row 0.
    costly = {(0, 1): 5} | {(1, v): 5 for v in range(3, 8)}
    instance = build(
        8, {(0, 2), (1, 2)}, budget=2, cost_overrides=costly, weight_overrides={(0, 2): 10}
    )
    for rows in ((0,), range(8)):
        assert BoundedCostDistances.of(instance, rows).get(2, 0, 1) == 3
        assert batch_rows(instance, rows).tobytes() == reference_table_rows(instance, rows).tobytes()


@pytest.mark.parametrize("budget, cost", [(3, 1), (3, 2), (3, 3), (2, 3), (4, 5), (0, 1)])
def test_one_walk_product_per_budget_from_the_cheapest_cost(monkeypatch, budget, cost):
    products = []
    min_plus = budget_paths._min_plus

    def counted(a, b, out, columns=None):
        products.append(a.shape)
        min_plus(a, b, out, columns)

    monkeypatch.setattr(budget_paths, "_min_plus", counted)
    instance = path_graph(7, budget=budget, default_cost=cost)
    for rows in (range(7), (3,)):
        products.clear()
        BoundedCostDistances.of(instance, rows)
        assert len(products) == max(0, budget - cost + 1)


@pytest.mark.parametrize("sparse", [False, True])
def test_min_plus_blocks_match_one_broadcast(sparse):
    rng = np.random.default_rng(5)
    shapes = ((1, 300, 300), (3, 7, 120), (64, 64, 64), (200, 5, 200), (0, 4, 4), (9, 12, 30))
    # the height table's move step: at most B+1 rows and a square b
    shapes += ((6, 24, 24), (4, 64, 64), (1, 50, 50), (5, 200, 200))
    for rows, inner, n in shapes:
        a = rng.integers(0, 50, (rows, inner)).astype(np.uint64)
        b = rng.integers(0, 50, (n if sparse else inner, n)).astype(np.uint64)
        a[rng.random(a.shape) < 0.3] = INF64
        b[rng.random(b.shape) < 0.3] = INF64
        columns = rng.integers(0, n, (rows, inner)) if sparse else None
        right = b[columns] if sparse else b[None, :, :]
        # out is a row slice of a 3-D table, as the move step passes it
        table = np.full((2, rows + 1, n), INF64, dtype=np.uint64)
        budget_paths._min_plus(a, b, table[1, 1:], columns)
        assert np.array_equal(table[1, 1:], (a[:, :, None] + right).min(axis=1, initial=INF64))
        assert (table[0] == INF64).all() and (table[1, 0] == INF64).all()


def test_reconstruct_direct_jump():
    dists = apsp_b(p4())
    witness = reconstruct_path(dists, 1, 0, 3)
    assert witness.vertices == (0, 3)
    assert witness.used_non_edges == frozenset({(0, 3)})
    assert witness_weight_cost(dists.instance, witness) == (1, 1)


def test_reconstruct_pure_graph_path():
    dists = apsp_b(p4())
    witness = reconstruct_path(dists, 0, 0, 3)
    assert witness.vertices == (0, 1, 2, 3)
    assert witness.used_non_edges == frozenset()
    assert witness_weight_cost(dists.instance, witness) == (3, 0)


def test_reconstruct_trivial_and_missing():
    dists = apsp_b(p4())
    witness = reconstruct_path(dists, 1, 2, 2)
    assert witness.vertices == (2,)
    assert witness_weight_cost(dists.instance, witness) == (0, 0)
    disconnected = build(2, set(), budget=0)
    with pytest.raises(NoPathError):
        reconstruct_path(apsp_b(disconnected), 0, 0, 1)


def test_witness_reconstruction_with_zero_weight_ties():
    # zero-weight edges create equal-distance predecessor candidates in both
    # directions; reconstruction must still terminate with a valid witness
    instance = build(
        4,
        {(0, 1), (1, 2), (2, 3), (0, 3)},
        budget=2,
        weight_overrides={(0, 1): 0, (1, 2): 0, (2, 3): 0, (0, 3): 0, (0, 2): 0, (1, 3): 0},
    )
    dists = apsp_b(instance)
    for beta in range(3):
        for u in range(4):
            for v in range(4):
                weight, cost = witness_weight_cost(instance, reconstruct_path(dists, beta, u, v))
                assert weight == dists.get(beta, u, v) == 0
                assert cost <= beta


@pytest.mark.parametrize("instance", seeded_corpus(8, seed=36, n_range=(2, 6)) + EDGE_CASES)
def test_witness_roundtrip(instance):
    dists = apsp_b(instance)
    for beta in range(instance.budget + 1):
        for u in range(instance.n):
            for v in range(instance.n):
                expected = dists.get(beta, u, v)
                if expected == INF:
                    continue
                witness = reconstruct_path(dists, beta, u, v)
                weight, cost = witness_weight_cost(instance, witness)
                assert weight == expected
                assert cost <= beta
                assert witness.vertices[0] == u and witness.vertices[-1] == v
                for a, b in zip(witness.vertices, witness.vertices[1:]):
                    assert a != b
                for pair in witness.used_non_edges:
                    assert pair not in instance.edges


@pytest.mark.parametrize(
    "instance",
    EDGE_CASES
    + override_corpus(100, seed=9)
    + [
        instance
        for cmax in (1, 2, 3)
        for instance in seeded_corpus(20, seed=38 + cmax, n_range=(2, 12), max_cost=cmax)
    ],
)
def test_witnesses_follow_the_tie_break(instance):
    # the last jump of each step is the smallest (c, x, y) over the dense W_c
    dists = apsp_b(instance)
    expected = reference_witnesses(instance)
    for (beta, s, v), witness in expected.items():
        assert PathSource(dists, s).path_to(v, beta) == witness, (beta, s, v)
    finite = int((dists.table < instance.dist_type.sentinel).sum())
    assert len(expected) == finite


@pytest.mark.parametrize("instance", seeded_corpus(8, seed=37, n_range=(2, 6)) + EDGE_CASES)
def test_source_rows_match_full_table(instance):
    # a table over some sources (one row, an unsorted set with repeats, then all) holds
    # apsp_b's rows of its distinct sources, ascending, and the same witnesses
    full = apsp_b(instance)
    n = instance.n
    for batch in [(n // 2,), (n - 1, 0, n // 2, 0), range(n)]:
        part = BoundedCostDistances.of(instance, batch)
        sources = sorted(set(batch))
        assert part.sources == {s: i for i, s in enumerate(sources)}
        assert part.table.tobytes() == full.table[:, sources].tobytes()
        for s in sources:
            for beta in range(instance.budget + 1):
                for v in range(n):
                    if full.get(beta, s, v) != INF:
                        witness = reconstruct_path(full, beta, s, v)
                        assert reconstruct_path(part, beta, s, v) == witness


@pytest.mark.parametrize("source", [-1, 4])
def test_apsp_rejects_out_of_range_source(monkeypatch, source):
    # every source is checked before any row is built
    def unguarded(*args):
        raise AssertionError("rows were built before the sources were checked")

    monkeypatch.setattr(budget_paths, "_table_rows", unguarded)
    with pytest.raises(ValueError):
        BoundedCostDistances.of(p4(), (0, source))


def test_vertex_outside_the_rows_raises():
    # numpy would read row -1 as row n - 1, and row n raises IndexError; a vertex
    # that is not a source has no row, which nothing fills later
    for dists, outside in (
        (BoundedCostDistances.of(p4(), (2, 1)), (-1, 0, 3, 4)),
        (apsp_b(p4()), (-1, 4)),
    ):
        for v in outside:
            with pytest.raises(ValueError):
                dists.row(v)
            with pytest.raises(ValueError):
                dists.get(0, v, 0)
            with pytest.raises(ValueError):
                PathSource(dists, v)
            with pytest.raises(ValueError):
                reconstruct_path(dists, 0, v, 1)
        assert list(dists.sources) == sorted(set(range(4)) - set(outside))


def test_each_table_builds_its_rows_in_one_batch(monkeypatch):
    batches = []
    table_rows = budget_paths._table_rows

    def recorded(graph, jumps, rows, table):
        batches.append(rows.tolist())
        table_rows(graph, jumps, rows, table)

    monkeypatch.setattr(budget_paths, "_table_rows", recorded)
    instance = path_graph(6, budget=2)
    dists = BoundedCostDistances.of(instance, (4, 1, 4))
    assert batches == [[1, 4]]
    assert dists.table.shape == (3, 2, 6) and not dists.table.flags.writeable
    assert dists.get(2, 1, 3) == 1 and PathSource(dists, 4).path_to(0, 2).vertices == (4, 0)
    for beta in range(3):
        for u in (1, 4):
            for v in range(6):
                dists.get(beta, u, v)
                PathSource(dists, u)
    assert batches == [[1, 4]]  # reading builds nothing
    assert BoundedCostDistances.of(instance, ()).table.shape == (3, 0, 6)
    assert batches == [[1, 4], []]
    # apsp_b builds every row in one batch, fpt_solve no other, and pairs its centers' rows
    for build_table in (apsp_b, fpt_solve):
        batches.clear()
        build_table(instance)
        assert batches == [list(range(6))], build_table.__name__
    centers = greedy_centers(instance).centers
    for solve, rows in ((pairwise_centers, sorted(centers[:-1])), (star_centers, centers[:1])):
        batches.clear()
        solve(instance)
        assert batches == [list(rows)], solve.__name__


@pytest.mark.parametrize("beta, v", [(1, -1), (1, 4), (-1, 3), (2, 3)])
def test_get_rejects_out_of_range_entries(beta, v):
    # numpy would read (1, 0, -1) as column 3 and (-1, 0, 3) as row B
    with pytest.raises(ValueError):
        apsp_b(p4()).get(beta, 0, v)
    with pytest.raises(ValueError):
        sssp_b(p4(), 0).path_to(v, beta)


@pytest.mark.parametrize("target", [-1, 4])
def test_path_to_rejects_out_of_range_target(target):
    source = PathSource(apsp_b(p4()), 0)
    for beta in (0, 1):
        with pytest.raises(ValueError):
            source.path_to(target, beta)


def test_one_engine_build_per_solve(monkeypatch):
    builds, starts = [], []
    build_jumps, graph_tree = budget_paths._ComplementJumps.of, budget_paths._graph_tree

    def counted_build(instance):
        builds.append(instance)
        return build_jumps(instance)

    def counted_tree(instance, source):
        starts.append(source)
        return graph_tree(instance, source)

    monkeypatch.setattr(budget_paths._ComplementJumps, "of", staticmethod(counted_build))
    monkeypatch.setattr(budget_paths, "_graph_tree", counted_tree)
    instance = path_graph(9, budget=2)
    for solve in (fpt_solve, pairwise_centers, star_centers):
        builds.clear()
        solve(instance)
        assert len(builds) == 1, solve.__name__
    dists = apsp_b(instance)
    builds.clear()
    starts.clear()
    for beta in range(instance.budget + 1):
        for u in range(instance.n):
            for v in range(instance.n):
                reconstruct_path(dists, beta, u, v)  # a fresh view per witness
    assert builds == []
    assert len(starts) == len(set(starts))  # one graph-path tree per start and table
    assert set(starts) == set(range(instance.n))


# gen_random arguments (n, p, wmax, cmax, budget) of each benchmark workload's shape.
_WORKLOAD_SHAPES = [(64, 0.15, 5, 3, 3), (24, 0.25, 5, 3, 5), (120, 0.10, 5, 1, 3)]


def _tree_corpus(name):
    if name == "edge":
        return EDGE_CASES
    if name == "seeded":
        return seeded_corpus(300, seed=51, n_range=(2, 12))
    if name == "override":
        return override_corpus(300, seed=9, n_range=(2, 10))
    return [gen_random(*_WORKLOAD_SHAPES[i % 3], seed=1_000 + i) for i in range(25)]


def _positive_weights(instance):
    return all(instance.weight.get(*edge) > 0 for edge in instance.edges)


@pytest.mark.parametrize("corpus", ["edge", "seeded", "override", "workload"])
def test_graph_trees_equal_dijkstra_on_positive_weights(corpus):
    # every tight neighbour is then closer to the start: Dijkstra's tie-break
    compared = 0
    for instance in filter(_positive_weights, _tree_corpus(corpus)):
        adj = _adjacency(instance)
        for a in range(instance.n):
            assert budget_paths._graph_tree(instance, a) == _dijkstra(instance, a, adj)[1], a
            compared += 1
    assert compared


@pytest.mark.parametrize("corpus", ["edge", "seeded", "override", "workload"])
def test_graph_tree_walks_are_tight_simple_edge_paths(corpus):
    for instance in _tree_corpus(corpus):
        metric, weight, n = widened(instance, instance.metric).tolist(), instance.weight, instance.n
        for a, reference in enumerate(reference_graph_trees(instance)):
            pred = budget_paths._graph_tree(instance, a)
            assert pred == reference, a
            for v, u in enumerate(pred):  # every step is a tight edge
                if v == a or metric[a][v] >= INF64:
                    assert u == -1
                else:
                    assert instance.is_edge(u, v)
                    assert metric[a][u] + weight.get(u, v) == metric[a][v]
            # a walk back that visited a vertex twice would cycle and never reach a
            walk = np.where(np.array(pred) == -1, np.arange(n), pred)
            for _ in range(n.bit_length()):
                walk = walk[walk]
            assert all(walk[v] == a for v in range(n) if metric[a][v] < INF64)
