"""Greedy farthest-first center selection."""

from __future__ import annotations

import pytest

from diamaug import INF, exact_optimum, greedy_centers
from helpers import (
    EDGE_CASES,
    build,
    complete_graph,
    p4,
    path_graph,
    reference_centers,
    seeded_corpus,
    sssp,
)


def test_p4_budget_one():
    clusters = greedy_centers(p4(), 0)
    assert clusters.centers == (0, 3)
    assert clusters.assignment == (0, 0, 1, 1)
    assert clusters.radius == 1
    assert clusters.center_distances == (0, 1, 1, 0)


def test_all_vertices_become_centers_when_budget_allows():
    clusters = greedy_centers(complete_graph(3, budget=2), 0)
    assert sorted(clusters.centers) == [0, 1, 2]
    assert clusters.radius == 0
    clusters = greedy_centers(p4(budget=3), 0)
    assert sorted(clusters.centers) == [0, 1, 2, 3]
    assert clusters.radius == 0


def test_first_center_is_respected():
    clusters = greedy_centers(p4(), 2)
    assert clusters.centers[0] == 2


def test_disconnected_vertices_are_selected_first():
    instance = build(4, {(0, 1), (0, 2)}, budget=1)
    clusters = greedy_centers(instance, 0)
    assert clusters.centers == (0, 3)
    assert clusters.radius == 1


def test_fully_disconnected_radius_is_infinite():
    instance = build(4, set(), budget=1)
    clusters = greedy_centers(instance, 0)
    assert clusters.centers == (0, 1)
    assert clusters.radius == INF


def test_members_partition_vertices():
    clusters = greedy_centers(path_graph(6, budget=2), 0)
    seen = sorted(v for i in range(len(clusters.centers)) for v in clusters.members(i))
    assert seen == list(range(6))


@pytest.mark.parametrize("instance", seeded_corpus(15, seed=41))
def test_selection_invariants(instance):
    clusters = greedy_centers(instance, 0)
    assert len(clusters.centers) == min(instance.budget + 1, instance.n)
    assert len(set(clusters.centers)) == len(clusters.centers)
    # every vertex within the radius of its assigned center
    for v in range(instance.n):
        assert clusters.center_distances[v] <= clusters.radius
    # assignment really is the nearest center, earliest center on ties
    rows = {c: sssp(instance, c) for c in clusters.centers}
    for v in range(instance.n):
        best = min(rows[c][v] for c in clusters.centers)
        chosen = clusters.centers[clusters.assignment[v]]
        assert rows[chosen][v] == best == clusters.center_distances[v]
        for idx in range(clusters.assignment[v]):
            assert rows[clusters.centers[idx]][v] > best


@pytest.mark.parametrize("instance", seeded_corpus(15, seed=42))
def test_farthest_gaps_never_increase(instance):
    clusters = greedy_centers(instance, 0)
    gaps = []
    for i in range(1, len(clusters.centers)):
        prior = clusters.centers[:i]
        rows = [sssp(instance, c) for c in prior]
        gaps.append(min(row[clusters.centers[i]] for row in rows))
    for earlier, later in zip(gaps, gaps[1:]):
        assert later <= earlier


@pytest.mark.parametrize("instance", seeded_corpus(12, seed=43, n_range=(2, 6)))
def test_radius_never_exceeds_exact_optimum(instance):
    clusters = greedy_centers(instance, 0)
    best = exact_optimum(instance).best_diameter
    assert clusters.radius <= best


def test_determinism():
    instance = seeded_corpus(1, seed=44)[0]
    assert greedy_centers(instance, 0) == greedy_centers(instance, 0)


@pytest.mark.parametrize(
    "instance", EDGE_CASES + seeded_corpus(30, seed=45, n_range=(1, 9), budget_range=(0, 5))
)
def test_centers_match_farthest_first_reference(instance):
    n = instance.n
    for first in sorted({0, n - 1, n // 2}):
        assert greedy_centers(instance, first) == reference_centers(instance, first)
