"""Layered digraph construction and budget-bounded distance tables."""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from diamaug import (
    INF,
    NoPathError,
    PathSource,
    apsp_b,
    budget_paths,
    fpt_solve,
    pairwise_centers,
    star_centers,
)
from diamaug.core import INF64
from helpers import (
    EDGE_CASES,
    build,
    build_layered_digraph,
    complete_graph,
    override_corpus,
    p4,
    path_graph,
    reconstruct_path,
    reference_table_rows,
    reference_witnesses,
    seeded_corpus,
    sssp,
    sssp_b,
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
        row = sssp_b(instance, u)
        for beta in range(instance.budget + 1):
            for v in range(instance.n):
                assert row.get(beta, v) == dists.get(beta, u, v)


def test_isolated_source_budget_zero():
    instance = build(3, {(1, 2)}, budget=0)
    row = sssp_b(instance, 0)
    assert row.get(0, 0) == 0
    assert row.get(0, 1) == INF
    assert row.get(0, 2) == INF


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
    # bit for bit, INF64 standing in for unreachable; sentinel sums must not wrap
    table = apsp_b(instance).table
    layered = build_layered_digraph(instance)
    for u in range(instance.n):
        dist = _arc_dijkstra(layered, (u, 0))
        for beta in range(instance.budget + 1):
            for v in range(instance.n):
                expected = dist.get((v, beta), INF)
                assert table[beta, u, v] == (INF64 if expected == INF else expected)
    assert (table >= 0).all()


TABLE_CORPUS = (
    EDGE_CASES
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
        table = apsp_b(instance, rows).table
        assert table.view(np.uint64).tobytes() == reference_table_rows(instance, rows).tobytes()


def test_walk_reads_every_searched_column():
    # Vertex 1 is reached only over the heavy edge 0-2 and then 2-1: the
    # cheapest 2-bounded path jumps 0 -> x -> 2, and its jump into 2 lies in
    # 0's exception set, so the walk product must read column 2 of row 0.
    costly = {(0, 1): 5} | {(1, v): 5 for v in range(3, 8)}
    instance = build(
        8, {(0, 2), (1, 2)}, budget=2, cost_overrides=costly, weight_overrides={(0, 2): 10}
    )
    for rows in ((0,), range(8)):
        dists = apsp_b(instance, rows)
        assert dists.get(2, 0, 1) == 3
        assert dists.table.view(np.uint64).tobytes() == reference_table_rows(instance, rows).tobytes()


@pytest.mark.parametrize("budget, cost", [(3, 1), (3, 2), (3, 3), (2, 3), (4, 5), (0, 1)])
def test_one_walk_product_per_budget_from_the_cheapest_cost(monkeypatch, budget, cost):
    products = []
    min_plus = budget_paths._min_plus

    def counted(a, b, out, columns=None):
        products.append(a.shape)
        min_plus(a, b, out, columns)

    monkeypatch.setattr(budget_paths, "_min_plus", counted)
    instance = path_graph(7, budget=budget, default_cost=cost)
    for rows in (None, (3,)):
        products.clear()
        apsp_b(instance, rows)
        assert len(products) == max(0, budget - cost + 1)


@pytest.mark.parametrize("sparse", [False, True])
def test_min_plus_blocks_match_one_broadcast(sparse):
    rng = np.random.default_rng(5)
    shapes = ((1, 300, 300), (3, 7, 120), (64, 64, 64), (200, 5, 200), (0, 4, 4), (9, 12, 30))
    for rows, inner, n in shapes:
        a = rng.integers(0, 50, (rows, inner)).astype(np.uint64)
        b = rng.integers(0, 50, (n if sparse else inner, n)).astype(np.uint64)
        a[rng.random(a.shape) < 0.3] = INF64
        b[rng.random(b.shape) < 0.3] = INF64
        columns = rng.integers(0, n, (rows, inner)) if sparse else None
        right = b[columns] if sparse else b[None, :, :]
        out = np.full((rows, n), INF64, dtype=np.uint64)
        budget_paths._min_plus(a, b, out, columns)
        assert np.array_equal(out, (a[:, :, None] + right).min(axis=1, initial=INF64))


def test_reconstruct_direct_jump():
    dists = apsp_b(p4())
    witness = reconstruct_path(dists, 1, 0, 3)
    assert witness.vertices == (0, 3)
    assert witness.used_non_edges == frozenset({(0, 3)})
    assert witness.weight == 1
    assert witness.cost == 1


def test_reconstruct_pure_graph_path():
    dists = apsp_b(p4())
    witness = reconstruct_path(dists, 0, 0, 3)
    assert witness.vertices == (0, 1, 2, 3)
    assert witness.used_non_edges == frozenset()
    assert witness.weight == 3
    assert witness.cost == 0


def test_reconstruct_trivial_and_missing():
    dists = apsp_b(p4())
    witness = reconstruct_path(dists, 1, 2, 2)
    assert witness.vertices == (2,)
    assert witness.weight == 0 and witness.cost == 0
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
                witness = reconstruct_path(dists, beta, u, v)
                assert witness.weight == dists.get(beta, u, v) == 0
                assert witness.cost <= beta


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
                assert witness.weight == expected
                assert witness.cost <= beta
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
    finite = int((dists.table < INF64).sum())
    assert len(expected) == finite


@pytest.mark.parametrize("instance", seeded_corpus(8, seed=37, n_range=(2, 6)) + EDGE_CASES)
def test_source_rows_match_full_table(instance):
    full = apsp_b(instance)
    n = instance.n
    for sources in [(n // 2,), tuple(dict.fromkeys((n - 1, 0, n // 2)))]:  # one, unsorted
        part = apsp_b(instance, sources)
        assert part.table.dtype == full.table.dtype
        assert part.table.shape == (instance.budget + 1, len(sources), n)
        for i, s in enumerate(sources):
            assert part.table[:, i].tobytes() == full.table[:, s].tobytes()
            for beta in range(instance.budget + 1):
                for v in range(n):
                    if full.get(beta, s, v) != INF:
                        assert reconstruct_path(part, beta, s, v) == reconstruct_path(
                            full, beta, s, v
                        )


@pytest.mark.parametrize("source", [-1, 4])
def test_apsp_rejects_out_of_range_source(source):
    with pytest.raises(ValueError):
        apsp_b(p4(), (source,))


def test_vertex_outside_the_rows_raises():
    part = apsp_b(p4(), (2, 1))
    for v in (0, 3, -1):
        with pytest.raises(ValueError):
            PathSource(part, v)
        with pytest.raises(ValueError):
            part.get(0, v, 0)
        with pytest.raises(ValueError):
            reconstruct_path(part, 0, v, 1)
    full = apsp_b(p4())
    with pytest.raises(ValueError):
        full.get(0, -1, 0)  # not numpy's last row
    with pytest.raises(ValueError):
        PathSource(full, 4)


@pytest.mark.parametrize("beta, v", [(1, -1), (1, 4), (-1, 3), (2, 3)])
def test_get_rejects_out_of_range_entries(beta, v):
    # numpy would read (1, 0, -1) as column 3 and (-1, 0, 3) as row B
    with pytest.raises(ValueError):
        apsp_b(p4()).get(beta, 0, v)
    with pytest.raises(ValueError):
        sssp_b(p4(), 0).get(beta, v)


@pytest.mark.parametrize("target", [-1, 4])
def test_path_to_rejects_out_of_range_target(target):
    source = PathSource(apsp_b(p4()), 0)
    for beta in (0, 1):
        with pytest.raises(ValueError):
            source.path_to(target, beta)


def test_one_engine_build_per_solve(monkeypatch):
    builds, starts = [], []
    build_jumps, dijkstra = budget_paths._ComplementJumps.of, budget_paths._dijkstra

    def counted_build(instance):
        builds.append(instance)
        return build_jumps(instance)

    def counted_dijkstra(instance, source):
        starts.append(source)
        return dijkstra(instance, source)

    monkeypatch.setattr(budget_paths._ComplementJumps, "of", staticmethod(counted_build))
    monkeypatch.setattr(budget_paths, "_dijkstra", counted_dijkstra)
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
