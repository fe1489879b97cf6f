"""Unit-cost approximation algorithms."""

from __future__ import annotations

import pytest

from diamaug import (
    INF,
    InstanceError,
    cluster_spanning_mst,
    diameter,
    ensure_unit_cost,
    exact_optimum,
    pairwise_centers,
    star_centers,
)
from helpers import build, complete_graph, cycle_graph, p4, seeded_corpus, star_graph


def unit_corpus(count, seed, **kwargs):
    return seeded_corpus(count, seed, max_cost=1, **kwargs)


def test_non_unit_costs_are_rejected():
    instance = p4(cost_overrides={(0, 3): 2})
    with pytest.raises(InstanceError):
        ensure_unit_cost(instance)
    for solver in (pairwise_centers, star_centers, cluster_spanning_mst):
        with pytest.raises(InstanceError):
            solver(instance)


def test_cost_overrides_on_edges_are_ignored():
    ensure_unit_cost(p4(cost_overrides={(0, 1): 7}))


def test_pairwise_on_p4():
    result = pairwise_centers(p4()).augmentation
    assert sorted(result.added) == [(0, 3)]
    assert result.diameter == 2


def test_star_on_p4():
    result = star_centers(p4()).augmentation
    assert sorted(result.added) == [(0, 3)]
    assert result.diameter == 2


def test_mst_on_p4_prefers_existing_connector():
    result = cluster_spanning_mst(p4()).augmentation
    assert result.added == frozenset()
    assert result.total_cost == 0
    assert result.diameter == 3


def test_complete_graph_needs_nothing():
    for solver in (pairwise_centers, star_centers, cluster_spanning_mst):
        result = solver(complete_graph(3, budget=2)).augmentation
        assert result.added == frozenset()


def test_star_graph_paths_avoid_heavy_shortcuts():
    instance = star_graph(5, budget=2, default_weight=5, edge_weight=1)
    assert star_centers(instance, 0).augmentation.added == frozenset()
    # even from a leaf the hub detour (weight 2) beats a direct jump (weight 5)
    assert star_centers(instance, 1).augmentation.added == frozenset()


def test_cycle_pairwise_uses_direct_jump():
    instance = cycle_graph(6, budget=1)
    result = pairwise_centers(instance).augmentation
    assert sorted(result.added) == [(0, 3)]
    best = exact_optimum(instance).best_diameter
    assert result.diameter <= 3 * best


def test_two_triangles_mst_bridges_once():
    instance = build(
        6, {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}, budget=1
    )
    result = cluster_spanning_mst(instance).augmentation
    assert sorted(result.added) == [(0, 3)]
    assert result.total_cost == 1
    assert result.diameter == 3


@pytest.mark.parametrize("instance", unit_corpus(20, seed=61))
def test_cardinality_and_quality_bounds(instance):
    k = instance.budget
    best = exact_optimum(instance).best_diameter
    base = diameter(instance)
    checks = [
        (pairwise_centers, k * (k + 1) ** 2, 3),
        (star_centers, k * k, 4),
        (cluster_spanning_mst, k, 3 * k + 2),
    ]
    for solver, max_added, factor in checks:
        result = solver(instance).augmentation
        assert len(result.added) <= max_added
        assert result.total_cost == len(result.added)
        bound = factor * best if best != INF else INF
        assert result.diameter <= bound
        assert result.diameter <= base


def test_disconnected_beyond_budget_contributes_nothing():
    # two far components, budget too small to matter for pair paths
    instance = build(4, {(0, 1), (2, 3)}, budget=1)
    result = pairwise_centers(instance).augmentation
    assert result.diameter <= diameter(instance)


def test_determinism():
    instance = unit_corpus(1, seed=62)[0]
    for solver in (pairwise_centers, star_centers, cluster_spanning_mst):
        assert solver(instance) == solver(instance)
