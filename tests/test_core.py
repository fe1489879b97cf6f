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
    p4,
    path_graph,
    seeded_corpus,
    sssp,
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
    non_edges = instance.non_edges()
    assert diameter(instance, non_edges[:1]) <= base
    assert diameter(instance, non_edges) <= base


@pytest.mark.parametrize("instance", seeded_corpus(10, seed=13, n_range=(2, 6)))
def test_sssp_matches_path_enumeration(instance):
    # budget 0 restricts the oracle to existing edges, i.e. the graph metric
    for u in range(instance.n):
        dist = sssp(instance, u)
        for v in range(instance.n):
            assert dist[v] == path_oracle(instance, u, v, 0)


def test_complete_graph_has_no_non_edges():
    assert complete_graph(4).non_edges() == []


METRIC_CORPUS = EDGE_CASES + seeded_corpus(40, seed=14, n_range=(1, 9))


@pytest.mark.parametrize("instance", METRIC_CORPUS)
def test_graph_metric_matches_base_matrix(instance):
    metric = graph_metric(instance)
    assert metric.dtype == np.uint64
    assert np.array_equal(metric.view(np.int64), _base_matrix(instance))
    assert np.array_equal(instance.metric, metric)


@pytest.mark.parametrize("instance", METRIC_CORPUS)
def test_diameter_and_sssp_match_dijkstra_reference(instance):
    non_edges = instance.non_edges()
    for added in ((), non_edges[:1], non_edges[:3], non_edges):
        rows = dijkstra_rows(instance, added)
        assert diameter(instance, added) == max(map(max, rows))
        for s in range(instance.n):
            assert sssp(instance, s, added) == rows[s]


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
    assert counts == {"graph_metric": 2, "validate": 1}  # D₀, then augment's check
