"""Brute-force oracles: exact optimum, path enumeration, spanning heights."""

from __future__ import annotations

import pytest

from diamaug import (
    INF,
    InstanceError,
    OracleLimitError,
    diameter,
    exact_optimum,
)
from helpers import build, complete_graph, p4, path_graph, seeded_corpus, sssp
from oracles import (
    diameter2_feasible,
    has_cover,
    path_oracle,
    span_height_oracle,
    span_height_profile,
)


def test_exact_on_p4():
    result = exact_optimum(p4())
    assert result.best_diameter == 2
    assert result.best_added == ((0, 2),)  # lexicographically first optimum
    assert result.explored == 4  # empty set plus three single insertions


def test_exact_budget_zero_returns_bare_diameter():
    result = exact_optimum(p4(budget=0))
    assert result.best_added == ()
    assert result.best_diameter == diameter(p4())


def test_exact_on_complete_graph():
    result = exact_optimum(complete_graph(3, budget=2))
    assert result.best_added == ()
    assert result.best_diameter == 1


def test_exact_monotone_in_budget():
    values = [exact_optimum(p4(budget=b)).best_diameter for b in range(4)]
    assert values == sorted(values, reverse=True)


def test_exact_respects_costs():
    instance = p4(default_cost=2)
    assert exact_optimum(instance).best_diameter == 3  # budget 1 buys nothing
    assert exact_optimum(p4(budget=2, default_cost=2)).best_diameter == 2


def test_exact_guards():
    airy = build(12, set(), budget=1)  # 66 non-edges
    with pytest.raises(OracleLimitError):
        exact_optimum(airy)
    with pytest.raises(OracleLimitError):
        exact_optimum(p4(), max_nodes=2)


def test_path_oracle_examples():
    assert path_oracle(p4(), 0, 3, 0) == 3
    assert path_oracle(p4(), 0, 3, 1) == 1
    assert path_oracle(build(2, set(), budget=1), 0, 1, 0) == INF
    assert path_oracle(p4(), 2, 2, 0) == 0


def test_path_oracle_guard():
    with pytest.raises(OracleLimitError):
        path_oracle(build(9, set(), budget=1), 0, 1, 1)


def test_span_height_examples():
    assert span_height_oracle(p4(), [3], 0, 1) == 1
    assert span_height_oracle(p4(), [3], 0, 0) == 3
    assert span_height_oracle(p4(), [0], 0, 1) == 0
    assert span_height_profile(p4(), [3], 0, 1) == [3, 1]


def test_span_height_guard():
    with pytest.raises(OracleLimitError):
        span_height_oracle(p4(budget=3), [1, 2, 3, 0], 0, 3)


@pytest.mark.parametrize("instance", seeded_corpus(8, seed=71, n_range=(2, 6)))
def test_span_profile_is_monotone(instance):
    targets = list(range(min(3, instance.n)))
    profile = span_height_profile(instance, targets, 0, instance.budget)
    for a, b in zip(profile, profile[1:]):
        assert b <= a


def test_diameter2_feasible_cases():
    assert diameter2_feasible(p4()) is True
    assert diameter2_feasible(path_graph(5)) is True  # one chord closes the path
    assert diameter2_feasible(path_graph(6)) is False
    assert diameter2_feasible(path_graph(6, budget=2)) is True
    assert diameter2_feasible(complete_graph(3)) is True


def test_diameter2_feasible_respects_costs():
    assert diameter2_feasible(path_graph(5, default_cost=2)) is False
    assert diameter2_feasible(path_graph(5, budget=2, default_cost=2)) is True


def test_diameter2_feasible_requires_unit_weights():
    with pytest.raises(InstanceError):
        diameter2_feasible(p4(default_weight=2))


@pytest.mark.parametrize("instance", seeded_corpus(10, seed=72, n_range=(2, 6), max_weight=1))
def test_diameter2_feasible_matches_exact(instance):
    expected = exact_optimum(instance).best_diameter <= 2
    assert diameter2_feasible(instance) is expected


def test_has_cover():
    sets = (frozenset({0}), frozenset({1}), frozenset({0, 1}))
    assert has_cover(sets, 2, 1) is True
    assert has_cover(sets[:2], 2, 1) is False
    assert has_cover(sets[:2], 2, 2) is True
    assert has_cover((), 0, 1) is True


@pytest.mark.parametrize("instance", seeded_corpus(8, seed=73, n_range=(2, 7)))
def test_incremental_matrices_match_dijkstra(instance):
    # the oracle's matrix route must agree with the solver-side metric
    from itertools import combinations

    from diamaug.oracle import _base_matrix, _with_edge
    from diamaug import INF as inf

    def as_dist(x):
        return inf if x >= 2**62 else int(x)

    non_edges = instance.non_edges()
    subsets = [()] + [(p,) for p in non_edges[:4]] + list(combinations(non_edges[:4], 2))
    for added in subsets:
        matrix = _base_matrix(instance)
        for u, v in added:
            matrix = _with_edge(matrix, u, v, instance.weight.get(u, v))
        for u in range(instance.n):
            row = sssp(instance, u, added)
            for v in range(instance.n):
                assert as_dist(int(matrix[u, v])) == row[v]
