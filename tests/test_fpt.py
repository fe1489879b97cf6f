"""Height table, tree reconstruction, and the end-to-end budget solver."""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from diamaug import (
    INF,
    HeightTableLimitError,
    InfeasibleEntryError,
    InstanceError,
    apsp_b,
    budget_paths,
    diameter,
    exact_optimum,
    fpt_solve,
    gen_random,
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


@pytest.mark.parametrize(
    "instance", DP_EDGE_CASES + seeded_corpus(4, seed=59, n_range=(9, 12), budget_range=(3, 4))
)
def test_small_tiles_match_reference_recurrence(monkeypatch, instance):
    # the row and middle loops of the move step's (min,+) product each run more than once;
    # with a tile of four masks' halves and a row bound of two masks' rows, a chunk of the
    # level of pairs holds two masks, fewer than the whole level from three non-root centers
    dists, centers = apsp_b(instance), greedy_centers(instance)
    reference = _reference_height(instance, tuple(centers.centers[1:]), dists)
    width = (instance.budget + 1) * instance.n
    product_rows = []
    min_plus = fpt._min_plus

    def recorded(a, b, out, columns=None):
        product_rows.append(len(a))
        min_plus(a, b, out, columns)

    monkeypatch.setattr(fpt, "_min_plus", recorded)
    for tile, short_rows in [(48, 24), (64, 32), (200, 100), (4 * width, 2 * width)]:
        monkeypatch.setattr(budget_paths, "_TILE", tile)
        monkeypatch.setattr(budget_paths, "_SHORT_ROWS", short_rows)
        table = solve_height_table(centers, dists)
        for mask in range(1, table.full_mask + 1):
            for j in range(instance.budget + 1):
                for u in range(instance.n):
                    assert table.height(u, mask, j) == reference(u, mask, j)
    if len(table.others) >= 3:
        assert 2 * (instance.budget + 1) in product_rows


def test_move_step_skips_repeated_distance_layers(monkeypatch):
    # every insertion costs 2, so D_1 = D_0 and D_3 = D_2: only layers 0 and 2 are multiplied
    instance = path_graph(7, budget=3, default_cost=2, weight_overrides={(2, 3): 3})
    dists, centers = apsp_b(instance), greedy_centers(instance)
    d = dists.table
    assert np.array_equal(d[1], d[0]) and np.array_equal(d[3], d[2])
    assert not np.array_equal(d[2], d[1])
    layers = []
    min_plus = fpt._min_plus

    def recorded(a, b, out, columns=None):
        layers.append((b.ctypes.data - d.ctypes.data) // d[0].nbytes)
        min_plus(a, b, out, columns)

    monkeypatch.setattr(fpt, "_min_plus", recorded)
    table = solve_height_table(centers, dists)
    assert layers and set(layers) == {0, 2}
    reference = _reference_height(instance, table.others, dists)
    for mask in range(1, table.full_mask + 1):
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


@pytest.mark.parametrize(
    "instance",
    seeded_corpus(10, seed=53, n_range=(3, 6))
    + DP_EDGE_CASES
    + seeded_corpus(10, seed=60, n_range=(2, 9), budget_range=(4, 5)),
)
def test_table_monotonicity(instance):
    # skipping a repeated distance layer in the move step rests on both tables
    # not increasing with the budget
    table, _, dists = _table_for(instance)
    assert (dists.table[1:] <= dists.table[:-1]).all()
    assert (table.values[:, 1:] <= table.values[:, :-1]).all()
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


@pytest.mark.parametrize(
    "instance", seeded_corpus(6, seed=61, n_range=(5, 8), budget_range=(3, 4)) + DP_EDGE_CASES
)
def test_choice_is_the_same_when_splits_run_one_at_a_time(monkeypatch, instance):
    table, _, _ = _table_for(instance)
    entries = [
        (u, mask, j)
        for mask in range(1, table.full_mask + 1)
        for j in range(instance.budget + 1)
        for u in range(instance.n)
    ]
    whole = [table.choice(*entry) for entry in entries]
    monkeypatch.setattr(budget_paths, "_TILE", 1)
    assert [table.choice(*entry) for entry in entries] == whole


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
    assert tree.new_edges == frozenset()


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


@pytest.mark.parametrize(
    "u, mask, j", [(-1, 3, 2), (5, 3, 2), (0, -1, 2), (0, 0, 2), (0, 4, 2), (0, 3, -1), (0, 3, 3)]
)
def test_height_table_rejects_out_of_range_entries(u, mask, j):
    # numpy would read vertex -1 as vertex 4 and mask -1 as the last mask
    table, _, _ = _table_for(path_graph(5, budget=2))
    assert table.full_mask == 3
    for read in (table.height, table.choice, lambda *entry: reconstruct_tree(table, *entry)):
        with pytest.raises(ValueError):
            read(u, mask, j)


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
            assert not any(instance.is_edge(u, v) for u, v in tree.new_edges)
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
    assert clusters.centers == (0,)


def test_height_table_rejects_partial_distance_table():
    instance = p4(budget=2)
    centers = greedy_centers(instance)
    for sources in [(0, 1, 2), (0,), (3, 2, 1, 0)]:
        with pytest.raises(ValueError):
            solve_height_table(centers, apsp_b(instance, sources))


def test_fpt_infeasible_budget_is_flagged():
    instance = build(2, set(), budget=1, default_cost=3)
    outcome = fpt_solve(instance)
    assert outcome.tree_height == INF
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


def test_oversized_height_table_is_refused_before_allocating():
    # 2**20 masks x 21 budgets x 50 vertices of uint64 would take 8.8 GB
    instance = gen_random(50, 0.15, 5, 3, 20, 7)
    tracemalloc.start()
    try:
        with pytest.raises(HeightTableLimitError, match="8808038400 bytes, over the limit"):
            fpt_solve(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_oversized_height_table_is_refused_before_any_stage(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a stage ran before the size check")

    monkeypatch.setattr(fpt, "apsp_b", unreachable)
    monkeypatch.setattr(fpt, "greedy_centers", unreachable)
    with pytest.raises(HeightTableLimitError, match="8808038400 bytes, over the limit"):
        fpt_solve(gen_random(50, 0.15, 5, 3, 20, 7))


@pytest.mark.parametrize("instance", [build(3, {(0, 1)}, budget=-1), build(0, set())])
def test_fpt_validates_before_sizing_the_table(instance):
    # min(B + 1, n) - 1 is -1 here, and 1 << -1 would raise ValueError
    with pytest.raises(InstanceError):
        fpt_solve(instance)


def test_filling_a_table_keeps_temporaries_to_one_tile():
    # the move step's (min,+) temporaries stay within one budget_paths._TILE tile (256 KiB),
    # where one (n, B+1, n) broadcast alone would take 1.53 MiB here
    instance = gen_random(200, 0.15, 5, 3, 4, 7)
    dists, centers = apsp_b(instance), greedy_centers(instance)
    tracemalloc.start()
    try:
        solve_height_table(centers, dists)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_height_table_values_are_uint64():
    table, _, dists = _table_for(path_graph(6, budget=2))
    assert table.values.dtype == dists.table.dtype == np.uint64
