"""Brute-force oracles: exact optimum, path enumeration, spanning heights."""

from __future__ import annotations

import time
import tracemalloc

import pytest

from diamaug import (
    INF,
    InstanceError,
    OracleLimitError,
    diameter,
    exact_optimum,
)
from diamaug import oracle
from helpers import (
    EDGE_CASES,
    all_pairs,
    build,
    complete_graph,
    dijkstra_rows,
    non_edges,
    p4,
    path_graph,
    seeded_corpus,
)
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
    # every one of the 2**27 subsets of 27 unit-cost non-edges is within budget
    with pytest.raises(OracleLimitError):
        exact_optimum(build(8, {(0, 1)}, budget=27))
    # 66 non-edges but only 67 sets within budget
    assert exact_optimum(build(12, set(), budget=1)).explored == 67


def _refuse_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("the guard let the enumeration start")

    monkeypatch.setattr(oracle, "_base_matrix", refuse)
    monkeypatch.setattr(oracle, "_with_edge", refuse)


def test_exact_refuses_before_any_matrix(monkeypatch):
    _refuse_work(monkeypatch)
    with pytest.raises(OracleLimitError):
        exact_optimum(build(8, {(0, 1)}, budget=27))


def test_exact_guard_is_read_at_call_time(monkeypatch):
    # p4 visits 4 sets: (4 + 4)·4² = 128 matrix entries
    monkeypatch.setattr(oracle, "MAX_WORK", 128)
    assert exact_optimum(p4()).explored == 4
    monkeypatch.setattr(oracle, "MAX_WORK", 127)
    _refuse_work(monkeypatch)
    with pytest.raises(OracleLimitError):
        exact_optimum(p4())


def test_exact_counts_sets_by_cost_not_by_budget():
    # a budget of 10**18 is never walked value by value
    start = time.perf_counter()
    with pytest.raises(OracleLimitError):  # 2**28 unit-cost sets
        exact_optimum(build(8, set(), budget=10**18))
    priced_out = build(8, set(), budget=10**18, default_cost=2**70)
    result = exact_optimum(priced_out)  # no non-edge is affordable: the empty set alone
    assert time.perf_counter() - start < 0.5
    assert result.explored == 1 and result.best_added == ()


def test_exact_refuses_spread_costs_before_counting_them(monkeypatch):
    # costs 2**0..2**20 cycled over the 28 non-edges and B = 2**21 - 1: the 27 cheapest
    # fit, so at least 2**27 sets do; a count by cost sum would hold millions of sums
    costs = {pair: 2 ** (i % 21) for i, pair in enumerate(all_pairs(8))}
    instance = build(8, set(), budget=2**21 - 1, cost_overrides=costs)
    _refuse_work(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(OracleLimitError) as refusal:
            exact_optimum(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21
    assert str(refusal.value) == (
        "instance too large: more than 2097144 sets within budget at n=8 "
        "(the guard admits (sets + n)·n² <= 134217728)"
    )


def test_exact_refuses_a_complete_graph_above_the_cubic_bound(monkeypatch):
    # 513³ > 2**27: the base matrix alone is over the guard, with no non-edge at all
    _refuse_work(monkeypatch)
    with pytest.raises(OracleLimitError, match="more than 0 sets"):
        exact_optimum(complete_graph(513))


def test_explored_counts_every_matrix_update(monkeypatch):
    updates = 0
    with_edge = oracle._with_edge

    def counted(*args):
        nonlocal updates
        updates += 1
        return with_edge(*args)

    monkeypatch.setattr(oracle, "_with_edge", counted)
    for instance in EDGE_CASES + seeded_corpus(40, seed=51, budget_range=(0, 4)):
        updates = 0
        assert exact_optimum(instance).explored == updates + 1


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
    # the oracle's matrix route must agree with the Dijkstra reference
    from itertools import combinations

    from diamaug.oracle import _base_matrix, _with_edge
    from diamaug import INF as inf

    def as_dist(x):
        return inf if x >= 2**62 else int(x)

    pairs = non_edges(instance)
    subsets = [()] + [(p,) for p in pairs[:4]] + list(combinations(pairs[:4], 2))
    for added in subsets:
        matrix = _base_matrix(instance)
        for u, v in added:
            matrix = _with_edge(matrix, u, v, instance.weight.get(u, v))
        rows = dijkstra_rows(instance, added)
        for u in range(instance.n):
            for v in range(instance.n):
                assert as_dist(int(matrix[u, v])) == rows[u][v]
