"""Height table, tree reconstruction, and the end-to-end budget solver."""

from __future__ import annotations

import gc
import weakref

import pytest

from diamaug import (
    INF,
    InfeasibleEntryError,
    apsp_b,
    diameter,
    exact_optimum,
    fpt_solve,
    greedy_centers,
    reconstruct_tree,
    solve_height_table,
)
from diamaug.core import INF64
from diamaug import fpt
from diamaug.fpt import BaseChoice, SplitChoice
from helpers import (
    EDGE_CASES,
    build,
    complete_graph,
    cycle_graph,
    p4,
    path_graph,
    seeded_corpus,
    star_graph,
)
from oracles import span_height_profile

# The shared edge cases plus n <= B + 1, where every vertex is a center.
DP_EDGE_CASES = EDGE_CASES + [build(4, {(0, 1), (2, 3)}, budget=4, default_weight=2)]


def _table_for(instance, first=0):
    dists = apsp_b(instance)
    centers = greedy_centers(instance, first)
    return solve_height_table(centers, dists), centers, dists


def _reference_height(instance, others, dists):
    """Direct memoized transcription of the recurrence, no vectorization."""
    memo: dict = {}

    def height_of(u, mask, j):
        key = (u, mask, j)
        if key in memo:
            return memo[key]
        if mask.bit_count() == 1:
            value = dists.get(j, u, others[mask.bit_length() - 1])
        else:
            value = INF
            for v in range(instance.n):
                for smask in range(1, mask):
                    if smask & mask != smask:
                        continue
                    for j1 in range(j + 1):
                        for j2 in range(j - j1 + 1):
                            j3 = j - j1 - j2
                            candidate = dists.get(j1, u, v) + max(
                                height_of(v, smask, j2), height_of(v, mask ^ smask, j3)
                            )
                            if candidate < value:
                                value = candidate
        memo[key] = value
        return value

    return height_of


def _reference_choice(instance, table, dists, u, mask, j):
    """Smallest (v, smask, j1, j2) reaching a finite split entry, by enumeration."""
    target = table.height(u, mask, j)
    low_bit = mask & -mask
    for v in range(instance.n):
        for smask in range(low_bit, mask):
            if smask & mask != smask or not smask & low_bit:
                continue
            for j1 in range(j + 1):
                for j2 in range(j - j1 + 1):
                    j3 = j - j1 - j2
                    candidate = dists.get(j1, u, v) + max(
                        table.height(v, smask, j2), table.height(v, mask ^ smask, j3)
                    )
                    if candidate == target:
                        return SplitChoice(via=v, subset_mask=smask, budgets=(j1, j2, j3))
    raise AssertionError(f"entry ({u}, {mask:#x}, {j}) is reached by no split")


def test_base_case_is_the_bounded_distance():
    table, centers, dists = _table_for(p4())
    assert centers.centers == (0, 3)
    assert table.height(0, 0b1, 1) == dists.get(1, 0, 3) == 1


def test_center_to_itself_is_zero():
    table, centers, _ = _table_for(p4(budget=2))
    for bit, center in enumerate(table.others):
        for j in range(3):
            assert table.height(center, 1 << bit, j) == 0


def test_star_fixture_split_value():
    instance = star_graph(4, budget=2, default_weight=5, edge_weight=1)
    table, centers, _ = _table_for(instance)
    assert centers.centers[:3] == (0, 1, 2)
    assert table.height(0, 0b11, 0) == 1
    rule = table.choice(0, 0b11, 0)
    assert isinstance(rule, SplitChoice)
    assert rule.via == 0 and rule.budgets == (0, 0, 0)


@pytest.mark.parametrize("instance", seeded_corpus(12, seed=51, n_range=(2, 6)) + DP_EDGE_CASES)
def test_matches_reference_recurrence(instance):
    table, centers, dists = _table_for(instance)
    assert ((table.values >= 0) & (table.values <= INF64)).all()
    reference = _reference_height(instance, table.others, dists)
    m = len(table.others)
    for mask in range(1, 1 << m):
        for j in range(instance.budget + 1):
            for u in range(instance.n):
                assert table.height(u, mask, j) == reference(u, mask, j)


@pytest.mark.parametrize("seed,budget", [(505, 4), (501, 5)])
def test_matches_reference_at_deeper_budgets(seed, budget):
    # larger budgets exercise more split triples and bigger subset masks
    from diamaug import gen_random

    instance = gen_random(4, 0.5, 3, 2, budget, seed=seed)
    table, centers, dists = _table_for(instance)
    reference = _reference_height(instance, table.others, dists)
    for mask in range(1, 1 << len(table.others)):
        for j in range(budget + 1):
            for u in range(instance.n):
                assert table.height(u, mask, j) == reference(u, mask, j)


@pytest.mark.parametrize("instance", seeded_corpus(12, seed=52, n_range=(2, 7)))
def test_root_entries_match_enumeration_oracle(instance):
    table, centers, _ = _table_for(instance)
    others = table.others
    if not others:
        return
    profile = span_height_profile(instance, others, centers.centers[0], instance.budget)
    for j in range(instance.budget + 1):
        assert table.height(centers.centers[0], table.full_mask, j) == profile[j]


@pytest.mark.parametrize("instance", seeded_corpus(10, seed=53, n_range=(3, 6)))
def test_table_monotonicity(instance):
    table, _, _ = _table_for(instance)
    m = len(table.others)
    for mask in range(1, 1 << m):
        for u in range(instance.n):
            for j in range(instance.budget):
                assert table.height(u, mask, j + 1) <= table.height(u, mask, j)
            for sub in range(1, mask):
                if sub & mask == sub:
                    for j in range(instance.budget + 1):
                        assert table.height(u, mask, j) >= table.height(u, sub, j)


@pytest.mark.parametrize("instance", seeded_corpus(10, seed=54, n_range=(3, 6)))
def test_recorded_choices_have_valid_shape(instance):
    table, _, _ = _table_for(instance)
    m = len(table.others)
    for mask in range(1, 1 << m):
        for j in range(instance.budget + 1):
            for u in range(instance.n):
                if table.height(u, mask, j) == INF:
                    assert table.choice(u, mask, j) is None
                    continue
                rule = table.choice(u, mask, j)
                if mask.bit_count() == 1:
                    assert isinstance(rule, BaseChoice)
                    assert rule.center == table.others[mask.bit_length() - 1]
                    continue
                assert isinstance(rule, SplitChoice)
                assert 0 <= rule.via < instance.n
                smask = rule.subset_mask
                assert smask & mask == smask and smask not in (0, mask)
                assert smask & (mask & -mask)  # kept half holds the lowest center
                j1, j2, j3 = rule.budgets
                assert min(j1, j2, j3) >= 0 and j1 + j2 + j3 == j


@pytest.mark.parametrize(
    "instance", seeded_corpus(12, seed=58, n_range=(3, 7), budget_range=(2, 4)) + DP_EDGE_CASES
)
def test_choice_is_smallest_reaching_tuple(instance):
    # tie-break: smallest (via, subset mask, path budget, kept budget), kept half has the low bit
    table, _, dists = _table_for(instance)
    for mask in range(1, 1 << len(table.others)):
        for j in range(instance.budget + 1):
            for u in range(instance.n):
                if table.height(u, mask, j) == INF:
                    continue
                if mask.bit_count() == 1:
                    expected = BaseChoice(center=table.others[mask.bit_length() - 1], budget=j)
                else:
                    expected = _reference_choice(instance, table, dists, u, mask, j)
                assert table.choice(u, mask, j) == expected


def test_reconstruct_p4_branch():
    instance = p4()
    table, centers, dists = _table_for(instance)
    tree = reconstruct_tree(table, 0, 0b1, 1)
    assert tree.height == 1
    assert tree.new_edges == frozenset({(0, 3)})
    assert list(tree.node_vertices) == [0, 3]


def test_reconstruct_single_node():
    table, centers, dists = _table_for(p4(budget=2))
    center = table.others[0]
    tree = reconstruct_tree(table, center, 0b1, 2)
    assert tree.height == 0
    assert tree.node_vertices == (center,)
    assert tree.edges == ()


def test_reconstruct_star_split():
    instance = star_graph(4, budget=2, default_weight=5, edge_weight=1)
    table, centers, dists = _table_for(instance)
    tree = reconstruct_tree(table, 0, 0b11, 0)
    assert tree.height == 1
    assert tree.new_edges == frozenset()
    assert sorted(tree.node_vertices) == [0, 1, 2]


def test_reconstruct_infeasible_entry():
    instance = build(2, set(), budget=1, default_cost=3)
    table, centers, dists = _table_for(instance)
    with pytest.raises(InfeasibleEntryError):
        reconstruct_tree(table, 0, 0b1, 1)


@pytest.mark.parametrize("instance", seeded_corpus(10, seed=55, n_range=(2, 6)))
def test_tree_height_equals_table_value(instance):
    table, centers, dists = _table_for(instance)
    m = len(table.others)
    root = centers.centers[0]
    for mask in range(1, 1 << m):
        for j in range(instance.budget + 1):
            if table.height(root, mask, j) == INF:
                continue
            tree = reconstruct_tree(table, root, mask, j)
            assert tree.height == table.height(root, mask, j)
            # every requested center appears among the tree's vertices
            wanted = {table.others[i] for i in range(m) if (mask >> i) & 1}
            assert wanted <= set(tree.node_vertices)
            spent = sum(instance.cost.get(u, v) for u, v in tree.new_edges)
            assert spent <= j


def test_fpt_solve_p4():
    outcome = fpt_solve(p4())
    assert sorted(outcome.augmentation.added) == [(0, 3)]
    assert outcome.augmentation.total_cost == 1
    assert outcome.augmentation.diameter == 2
    assert outcome.tree_height == 1
    assert outcome.cluster_radius == 1


def test_fpt_solve_complete_graph():
    outcome = fpt_solve(complete_graph(3, budget=2))
    assert outcome.augmentation.added == frozenset()
    assert outcome.augmentation.diameter == 1


def test_fpt_solve_cycle_within_bound():
    instance = cycle_graph(6, budget=1)
    best = exact_optimum(instance).best_diameter
    outcome = fpt_solve(instance)
    assert outcome.augmentation.total_cost <= 1
    assert outcome.augmentation.diameter <= 4 * best


def test_fpt_budget_zero_short_circuit():
    outcome = fpt_solve(p4(budget=0))
    assert outcome.augmentation.added == frozenset()
    assert outcome.augmentation.diameter == 3
    assert outcome.tree_height == 0


@pytest.mark.parametrize("instance", EDGE_CASES[:2])  # n = 1, budget 0
def test_fpt_degenerate_inputs_insert_nothing(instance):
    outcome = fpt_solve(instance)
    clusters = greedy_centers(instance)
    assert outcome.augmentation.added == frozenset()
    assert outcome.augmentation.total_cost == 0
    assert outcome.augmentation.diameter == diameter(instance)
    assert outcome.tree_height == 0
    assert outcome.cluster_radius == clusters.radius
    assert outcome.centers == clusters.centers == (0,)
    assert not outcome.infeasible_height


def test_height_table_rejects_partial_distance_table():
    instance = p4(budget=2)
    centers = greedy_centers(instance)
    for sources in [(0, 1, 2), (0,), (3, 2, 1, 0)]:
        with pytest.raises(ValueError):
            solve_height_table(centers, apsp_b(instance, sources))


def test_fpt_infeasible_budget_is_flagged():
    instance = build(2, set(), budget=1, default_cost=3)
    outcome = fpt_solve(instance)
    assert outcome.infeasible_height
    assert outcome.augmentation.added == frozenset()
    assert outcome.augmentation.diameter == INF


def test_fpt_handles_more_centers_than_needed():
    # n <= budget + 1: every vertex is a center and the table still runs
    instance = build(3, {(0, 1), (1, 2)}, budget=2, weight_overrides={(0, 1): 9, (1, 2): 9})
    outcome = fpt_solve(instance)
    best = exact_optimum(instance).best_diameter
    assert outcome.augmentation.total_cost <= 2
    assert outcome.augmentation.diameter <= 4 * best


@pytest.mark.parametrize("instance", seeded_corpus(20, seed=56, n_range=(2, 7)))
def test_fpt_guarantees_on_corpus(instance):
    outcome = fpt_solve(instance)
    best = exact_optimum(instance).best_diameter
    assert outcome.augmentation.total_cost <= instance.budget
    bound = 4 * best if best != INF else INF
    assert outcome.augmentation.diameter <= bound
    assert outcome.tree_height <= best


def test_fpt_determinism():
    instance = seeded_corpus(1, seed=57)[0]
    first = fpt_solve(instance)
    second = fpt_solve(instance)
    assert first.augmentation == second.augmentation
    assert first.tree_height == second.tree_height


def test_fpt_solve_frees_its_table_without_the_cyclic_collector(monkeypatch):
    tables = []
    build_table = fpt.apsp_b

    def recorded(instance):
        dists = build_table(instance)
        tables.append(weakref.ref(dists))
        return dists

    monkeypatch.setattr(fpt, "apsp_b", recorded)
    instance = path_graph(9, budget=3)
    gc.collect()
    gc.disable()
    try:
        outcome = fpt_solve(instance)
        assert outcome.augmentation.added  # a tree was reconstructed
        assert len(tables) == 1 and tables[0]() is None
    finally:
        gc.enable()
