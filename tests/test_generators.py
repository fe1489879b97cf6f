"""Reduction and random-instance generators."""

from __future__ import annotations

from itertools import combinations

import pytest

from diamaug import (
    ReductionError,
    SetCoverInstance,
    diameter,
    exact_optimum,
    gen_random,
    reduce_setcover,
    reduce_setcover_multicopy,
    serialize_instance,
    validate,
)
from helpers import sssp
from oracles import diameter2_feasible, has_cover

BASE_SC = SetCoverInstance(
    universe_size=2, sets=(frozenset({0}), frozenset({0, 1})), k=1
)

GOLDEN_RANDOM = """\
n 6
B 2
default_nonedge weight 1 cost 1
edge 0 2 2
edge 0 3 1
edge 1 3 2
edge 1 4 1
edge 1 5 3
edge 3 5 2
"""


def test_setcover_instance_validation():
    with pytest.raises(ReductionError):
        SetCoverInstance(universe_size=2, sets=(frozenset(),), k=1)
    with pytest.raises(ReductionError):
        SetCoverInstance(universe_size=2, sets=(frozenset({0, 5}),), k=1)
    with pytest.raises(ReductionError):
        SetCoverInstance(universe_size=2, sets=(frozenset({0}),), k=1)  # 1 uncovered
    with pytest.raises(ReductionError):
        SetCoverInstance(universe_size=2, sets=(frozenset({0, 1}),), k=0)


def test_base_reduction_shape():
    instance, layout = reduce_setcover(BASE_SC)
    # m = max(|S| * k, 2 * budget + 1) = max(2, 3)
    assert layout.m == 3
    assert instance.n == 2 + 2 + 2 * 3 + 3 == 13
    assert instance.budget == 1
    assert diameter(instance) == 3
    assert validate(instance) == []
    # unit weights and costs throughout
    assert instance.weight.default == 1 and not instance.weight.overrides
    assert instance.cost.default == 1 and not instance.cost.overrides


def test_vertex_count_formula():
    for sets, k in [
        ((frozenset({0}), frozenset({0, 1})), 1),
        ((frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})), 2),
    ]:
        sc = SetCoverInstance(universe_size=max(max(s) for s in sets) + 1, sets=sets, k=k)
        instance, layout = reduce_setcover(sc)
        m = max(len(sets) * k, 2 * instance.budget + 1)
        expected = 2 + len(sets) + sc.universe_size * m + m * (m - 1) // 2
        assert layout.m == m
        assert instance.n == expected


def test_distance_profile_from_a():
    instance, layout = reduce_setcover(BASE_SC)
    dist = sssp(instance, layout.a)
    elements = set(layout.element_vertices())
    assert dist[layout.b] == 1
    for v in layout.set_vertices():
        assert dist[v] == 2
    for v in layout.hub_vertices():
        assert dist[v] == 2
    for v in elements:
        assert dist[v] == 3


def test_rejects_single_block():
    # a single candidate set used to give m = |S| * k = 1 block; the block
    # count is now at least 2k + 1, so no single-block reduction can arise
    for k in (1, 2):
        sc = SetCoverInstance(universe_size=2, sets=(frozenset({0, 1}),), k=k)
        instance, layout = reduce_setcover(sc)
        assert layout.m == 2 * k + 1
        assert diameter(instance) == 3


def test_yes_instance_reaches_diameter_two():
    instance, _ = reduce_setcover(BASE_SC)
    # 47 non-edges exceed the oracle's default guard; at budget 1 the walk
    # visits only 48 sets, and max_nodes still bounds it
    best = exact_optimum(instance, max_nonedges=len(instance.non_edges()))
    assert best.best_diameter == 2
    assert diameter2_feasible(instance) is True


def test_no_instance_stays_at_three():
    sc = SetCoverInstance(
        universe_size=3,
        sets=(frozenset({0}), frozenset({1}), frozenset({2})),
        k=1,
    )
    instance, _ = reduce_setcover(sc)
    assert has_cover(sc.sets, sc.universe_size, sc.k) is False
    assert diameter2_feasible(instance) is False


def test_equivalence_breaks_when_blocks_match_double_budget():
    # With m = |S| * k = 2k the single hub pair would span every element
    # block, so one inserted edge from a to that hub reached diameter 2
    # although no cover exists. The construction now uses m > 2k blocks,
    # and that edge leaves the third block out of reach.
    sc = SetCoverInstance(universe_size=2, sets=(frozenset({0}), frozenset({1})), k=1)
    instance, layout = reduce_setcover(sc)
    assert layout.m == 3 > 2 * sc.k
    assert has_cover(sc.sets, sc.universe_size, sc.k) is False
    assert diameter2_feasible(instance) is False
    assert diameter(instance, [(layout.a, layout.hubs[(0, 1)])]) == 3


def test_multicopy_shape_and_profile():
    instance, layout = reduce_setcover_multicopy(BASE_SC, copies=2)
    assert layout.copies == 2
    # m = max(|S| * k, 2 * budget + 1) = max(2, 5)
    assert layout.m == 5
    assert len(layout.set_blocks) == 2 and all(len(b) == 2 for b in layout.set_blocks)
    assert len(layout.element_blocks) == 2
    assert all(len(blocks) == 5 for blocks in layout.element_blocks)
    assert instance.n == 2 + 4 + 2 * 5 * 2 + 10 == 36
    assert instance.budget == 2
    assert diameter(instance) == 3
    dist = sssp(instance, layout.a)
    for v in layout.element_vertices():
        assert dist[v] == 3
    for v in layout.set_vertices():
        assert dist[v] == 2


def test_multicopy_guard():
    with pytest.raises(ReductionError):
        reduce_setcover_multicopy(BASE_SC, copies=1)


def test_multicopy_yes_instance():
    instance, _ = reduce_setcover_multicopy(BASE_SC, copies=2)
    assert diameter2_feasible(instance) is True


def test_multicopy_larger_family_builds_and_self_checks():
    sc = SetCoverInstance(
        universe_size=2,
        sets=(frozenset({0}), frozenset({0, 1}), frozenset({1})),
        k=2,
    )
    instance, layout = reduce_setcover_multicopy(sc, copies=2)
    assert layout.m == 9
    assert instance.budget == 4
    assert instance.n == 2 + 2 * 3 + 2 * 9 * 2 + 36 == 80
    assert diameter(instance) == 3


def _covering_families(universe_size: int, max_sets: int):
    subsets = [
        frozenset(s)
        for r in range(1, universe_size + 1)
        for s in combinations(range(universe_size), r)
    ]
    for size in range(1, max_sets + 1):
        for family in combinations(subsets, size):
            if frozenset().union(*family) == frozenset(range(universe_size)):
                yield family


def test_multicopy_equivalence_on_small_families():
    # every covering family over at most two elements, k = 1, two copies:
    # budget k * copies reaches diameter 2 exactly when a cover of size k
    # exists, although the shared hubs serve every copy at once
    checked = 0
    for universe_size in (1, 2):
        for family in _covering_families(universe_size, 3):
            sc = SetCoverInstance(universe_size=universe_size, sets=family, k=1)
            instance, layout = reduce_setcover_multicopy(sc, copies=2)
            assert layout.m > 2 * instance.budget
            assert diameter2_feasible(instance) == has_cover(family, universe_size, 1)
            checked += 1
    assert checked == 6


def test_feasibility_equivalence_on_small_family():
    # covering families of two or three sets over a 2-element universe,
    # k = 1; the construction always has m > 2k blocks, which the
    # equivalence needs
    families = [
        family for family in _covering_families(2, 3) if len(family) >= 2
    ]
    assert families
    for family in families:
        sc = SetCoverInstance(universe_size=2, sets=family, k=1)
        instance, layout = reduce_setcover(sc)
        assert layout.m > 2 * sc.k
        assert diameter2_feasible(instance) == has_cover(family, 2, 1)


def test_gen_random_golden_snapshot():
    instance = gen_random(6, 0.5, 3, 2, 2, seed=42)
    assert serialize_instance(instance) == GOLDEN_RANDOM


def test_gen_random_determinism_and_seed_sensitivity():
    a = gen_random(7, 0.4, 3, 2, 2, seed=5)
    b = gen_random(7, 0.4, 3, 2, 2, seed=5)
    c = gen_random(7, 0.4, 3, 2, 2, seed=6)
    assert a == b
    assert serialize_instance(a) != serialize_instance(c)


def test_gen_random_extremes():
    full = gen_random(4, 1.0, 1, 1, 1, seed=1)
    assert not full.non_edges()
    empty = gen_random(5, 0.0, 1, 1, 2, seed=1)
    assert not empty.edges
    assert len(empty.non_edges()) == 10


def test_gen_random_validates_args():
    with pytest.raises(ValueError):
        gen_random(0, 0.5, 1, 1, 1, seed=1)
    with pytest.raises(ValueError):
        gen_random(3, 1.5, 1, 1, 1, seed=1)
    with pytest.raises(ValueError):
        gen_random(3, 0.5, 0, 1, 1, seed=1)
