"""The dense pair view and its consumers, against the pair-by-pair references."""

from __future__ import annotations

import numpy as np
import pytest

from diamaug import (
    PairTable,
    cluster_spanning_mst,
    fpt_solve,
    gen_random,
    greedy_centers,
    pairwise_centers,
    parse_instance,
    serialize_instance,
    star_centers,
    validate,
)
from diamaug.core import INF64
from diamaug.unit_cost import _lightest_connectors
from helpers import (
    EDGE_CASES,
    INVALID_CASES,
    outcome,
    p4,
    reference_connectors,
    reference_serialize_instance,
    reference_unit_cost_error,
    reference_validate,
    seeded_corpus,
    unit_cost_error,
)

VALID_CORPUS = EDGE_CASES + seeded_corpus(30, seed=71, n_range=(1, 9), max_cost=3)
UNIT_CORPUS = seeded_corpus(20, seed=72, n_range=(2, 12), max_weight=2, max_cost=1)
CORPUS = VALID_CORPUS + UNIT_CORPUS + INVALID_CASES


@pytest.mark.parametrize("instance", CORPUS)
def test_pair_scans_match_references(instance):
    assert validate(instance) == reference_validate(instance)
    assert outcome(serialize_instance, instance) == outcome(reference_serialize_instance, instance)
    assert unit_cost_error(instance) == reference_unit_cost_error(instance)


def test_unit_cost_check_names_first_pair_with_exact_cost():
    instance = p4(cost_overrides={(1, 3): 2**70, (0, 2): 2})
    assert unit_cost_error(instance) == (
        "unit-cost solver requires cost 1 on non-edges, (0, 2) costs 2"
    )
    instance = p4(cost_overrides={(1, 3): 2**70})
    assert unit_cost_error(instance) == (
        f"unit-cost solver requires cost 1 on non-edges, (1, 3) costs {2**70}"
    )


@pytest.mark.parametrize("instance", VALID_CORPUS + UNIT_CORPUS)
def test_connectors_match_reference(instance):
    clusters = greedy_centers(instance)
    members = [clusters.members(i) for i in range(len(clusters.centers))]
    assert _lightest_connectors(instance, members) == reference_connectors(instance, members)
    # Interleaved clusters put many weight ties inside each block.
    split = [tuple(range(r, instance.n, 3)) for r in range(3)]
    assert _lightest_connectors(instance, split) == reference_connectors(instance, split)


def test_dense_view_is_cached_read_only_and_saturated():
    instance = parse_instance(
        "n 4\nB 2\ndefault_nonedge weight 1 cost 1\nedge 0 1 3\nedge 1 2 1\nedge 2 3 1\n"
        f"nonedge 0 3 1 {2**70}\nnonedge 0 2 2 {-(2**70)}\n"
    )
    dense = instance.dense
    assert dense is instance.dense
    for array in (dense.weight, dense.cost, dense.weight_listed, dense.cost_listed, dense.edge):
        assert array.shape == (4, 4)
        assert not array.flags.writeable
        assert np.array_equal(array, array.T)
    assert dense.weight[0, 1] == 3 and dense.weight[0, 2] == 2
    assert dense.cost[0, 3] == INF64 and dense.cost[0, 2] == -INF64
    assert dense.edge[1, 2] and not dense.edge[0, 2]
    assert dense.weight_listed[0, 1] and not dense.weight_listed[1, 3]
    assert dense.cost_listed[0, 3] and not dense.cost_listed[0, 1]
    assert instance.cost.get(0, 3) == 2**70


def test_overrides_are_read_only_copies():
    overrides = {(0, 1): 2}
    table = PairTable(default=1, overrides=overrides)
    with pytest.raises(TypeError):
        table.overrides[(0, 1)] = -5
    overrides[(0, 1)] = -5
    assert table.get(0, 1) == 2
    assert table == PairTable(default=1, overrides={(0, 1): 2})


@pytest.mark.parametrize("solve", [fpt_solve, pairwise_centers, star_centers, cluster_spanning_mst])
def test_no_per_pair_get_in_a_solve(monkeypatch, solve):
    calls = []
    get = PairTable.get

    def counted(table, u, v):
        calls.append((u, v))
        return get(table, u, v)

    monkeypatch.setattr(PairTable, "get", counted)
    instance = gen_random(40, 0.2, 5, 1, 3, seed=5)  # fresh: nothing cached
    solve(instance)
    assert len(calls) < instance.n, solve.__name__
