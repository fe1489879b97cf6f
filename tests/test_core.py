"""Instance model, validation, shortest paths, diameter."""

from __future__ import annotations

import numpy as np
import pytest

from diamaug import (
    INF,
    InstanceError,
    PairTable,
    WeightedInstance,
    augment,
    cluster_spanning_mst,
    core,
    diameter,
    fpt_solve,
    pairwise_centers,
    star_centers,
    validate,
)
from diamaug.core import graph_metric
from diamaug.oracle import _base_matrix
from helpers import (
    EDGE_CASES,
    build,
    complete_graph,
    dijkstra_rows,
    non_edges,
    override_corpus,
    p4,
    path_graph,
    seeded_corpus,
    sssp,
    widened,
)
from oracles import path_oracle


def test_p4_fixture_is_valid():
    assert validate(p4()) == []


def test_zero_cost_nonedge_is_flagged():
    instance = p4(cost_overrides={(0, 2): 0})
    assert any("cost" in msg and "(0, 2)" in msg for msg in validate(instance))


def test_partial_weight_table_is_flagged():
    instance = WeightedInstance(
        n=3,
        edges=frozenset({(0, 1)}),
        weight=PairTable(default=None, overrides={(0, 1): 1, (0, 2): 1}),
        cost=PairTable(default=1),
        budget=1,
    )
    assert any("weight not total" in msg for msg in validate(instance))


def test_repeated_edge_is_flagged():
    # the parser refuses a pair listed twice, so such an instance's text could not be read back
    instance = WeightedInstance(4, [(0, 1), (0, 1)], PairTable(1), PairTable(1), 2)
    assert len(instance.edges) == 2
    assert validate(instance) == ["edge (0, 1) is listed twice"]


def test_negative_weight_and_bad_budget_are_flagged():
    instance = build(3, {(0, 1)}, weight_overrides={(0, 1): -2})
    assert any("weight" in msg for msg in validate(instance))
    instance = WeightedInstance(
        n=2, edges=frozenset(), weight=PairTable(default=1), cost=PairTable(default=1), budget=-1
    )
    assert any("budget" in msg for msg in validate(instance))


def test_overflow_headroom_is_flagged():
    instance = build(4, {(0, 1)}, weight_overrides={(0, 1): 2**61})
    assert any("headroom" in msg for msg in validate(instance))


def test_sssp_on_p4():
    assert sssp(p4(), 0) == [0, 1, 2, 3]


def test_sssp_disconnected():
    two = build(2, set())
    assert sssp(two, 0) == [0, INF]


def test_sssp_with_heavy_middle_edge():
    instance = p4(weight_overrides={(1, 2): 5})
    assert sssp(instance, 0) == [0, 1, 6, 7]


def test_diameter_examples():
    assert diameter(p4()) == 3
    single = build(1, set())
    assert diameter(single) == 0
    assert diameter(p4(), [(0, 3)]) == 2


def test_augment_rejects_existing_edges():
    with pytest.raises(InstanceError):
        augment(p4(), [(0, 1)])


def test_augment_totals():
    instance = p4(cost_overrides={(0, 3): 4})
    result = augment(instance, [(0, 3), (0, 2)])
    assert result.total_cost == 5
    assert result.diameter == 2


@pytest.mark.parametrize("instance", seeded_corpus(15, seed=11, n_range=(2, 6)))
def test_metric_properties(instance):
    rows = [sssp(instance, u) for u in range(instance.n)]
    for u in range(instance.n):
        assert rows[u][u] == 0
        for v in range(instance.n):
            assert rows[u][v] == rows[v][u]
            for x in range(instance.n):
                assert rows[u][v] <= rows[u][x] + rows[x][v]


@pytest.mark.parametrize("instance", seeded_corpus(10, seed=12, n_range=(2, 6)))
def test_adding_edges_never_increases_diameter(instance):
    base = diameter(instance)
    pairs = non_edges(instance)
    assert diameter(instance, pairs[:1]) <= base
    assert diameter(instance, pairs) <= base


@pytest.mark.parametrize("instance", seeded_corpus(10, seed=13, n_range=(2, 6)))
def test_sssp_matches_path_enumeration(instance):
    # budget 0 restricts the oracle to existing edges, i.e. the graph metric
    for u in range(instance.n):
        dist = sssp(instance, u)
        for v in range(instance.n):
            assert dist[v] == path_oracle(instance, u, v, 0)


def test_complete_graph_has_no_non_edges():
    assert non_edges(complete_graph(4)) == []


METRIC_CORPUS = EDGE_CASES + seeded_corpus(40, seed=14, n_range=(1, 9))


@pytest.mark.parametrize("instance", METRIC_CORPUS)
def test_graph_metric_matches_base_matrix(instance):
    metric = graph_metric(instance)
    assert metric.dtype == instance.dist_type.dtype
    assert np.array_equal(widened(instance, metric).view(np.int64), _base_matrix(instance))
    assert np.array_equal(instance.metric, metric)


# listed non-edge weights, zeros included, are what an insertion reads
DIAMETER_CORPUS = METRIC_CORPUS + [
    instance for instance in override_corpus(40, seed=15) if not validate(instance)
]


@pytest.mark.parametrize("instance", DIAMETER_CORPUS)
def test_diameter_and_sssp_match_dijkstra_reference(instance):
    assert [sssp(instance, s) for s in range(instance.n)] == dijkstra_rows(instance)
    pairs = non_edges(instance)
    for added in ((), pairs[:1], pairs[:3], pairs[::2], pairs):
        assert diameter(instance, added) == max(map(max, dijkstra_rows(instance, added)))


@pytest.mark.parametrize("instance", EDGE_CASES + override_corpus(10, seed=16))
def test_augment_leaves_the_cached_metric_unchanged(instance):
    # EDGE_CASES' disconnected headroom instances sum INF64 + w + INF64 in uint64
    metric = instance.metric
    before = metric.copy()
    augment(instance, non_edges(instance)[:3])
    assert instance.metric is metric
    assert np.array_equal(metric, before)


def test_metric_is_cached_and_read_only():
    instance = p4()
    assert instance.metric is instance.metric
    with pytest.raises(ValueError):
        instance.metric[0, 3] = 1
    assert diameter(instance) == 3


@pytest.mark.parametrize("pair", [(-1, 0), (0, 7), (3, 4)])
def test_augment_rejects_out_of_range_pairs(pair):
    with pytest.raises(InstanceError, match="out of range"):
        augment(p4(), [pair])
    with pytest.raises(InstanceError, match="out of range"):
        diameter(p4(), [pair])


@pytest.mark.parametrize(
    "solve", [fpt_solve, pairwise_centers, star_centers, cluster_spanning_mst]
)
def test_one_metric_and_one_validation_per_solve(monkeypatch, solve):
    counts = {"graph_metric": 0, "validate": 0}

    def counted(name):
        original = getattr(core, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(core, name, counted(name))
    solve(path_graph(9, budget=2))  # fresh instance: nothing cached yet
    assert counts == {"graph_metric": 1, "validate": 1}  # D₀, which augment's check extends
