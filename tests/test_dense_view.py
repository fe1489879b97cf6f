"""The dense pair view and its consumers, against the pair-by-pair references."""

from __future__ import annotations

import numpy as np
import pytest

from diamaug import (
    PairSet,
    PairTable,
    WeightedInstance,
    cluster_spanning_mst,
    ensure_unit_cost,
    fpt_solve,
    gen_random,
    greedy_centers,
    pairwise_centers,
    parse_instance,
    serialize_instance,
    star_centers,
    validate,
)
from diamaug.budget_paths import _ComplementJumps
from diamaug.core import exact_array
from diamaug.unit_cost import _lightest_connectors
from helpers import (
    EDGE_CASES,
    INVALID_CASES,
    build,
    outcome,
    override_corpus,
    p4,
    reference_connectors,
    reference_listed_jumps,
    reference_serialize_instance,
    reference_unit_cost_error,
    reference_validate,
    seeded_corpus,
    unit_cost_error,
)

VALID_CORPUS = EDGE_CASES + seeded_corpus(30, seed=71, n_range=(1, 9), max_cost=3)
UNIT_CORPUS = seeded_corpus(20, seed=72, n_range=(2, 12), max_weight=2, max_cost=1)


def _listed(default, pairs, values) -> PairTable:
    """A table over ``pairs`` as given: repeated, unnormalized or out of range."""
    return PairTable.listed(default, exact_array(pairs).reshape(-1, 2), exact_array(values))


def _arrays(n, edges, weight, cost, budget=2) -> WeightedInstance:
    return WeightedInstance(n, PairSet(exact_array(edges).reshape(-1, 2)), weight, cost, budget)


_PATH = [(0, 1), (1, 2), (2, 3)]

# Instances built from arrays, as only the library can: the scans over listed
# pairs must treat each of these as the pair-by-pair references do.
LISTED_CASES = [
    # a pair listed twice: the later value holds, for weights and costs
    _arrays(4, _PATH[:2], _listed(1, [(0, 2), (0, 2), (1, 3)], [5, 7, 2]),
            _listed(1, [(0, 3), (0, 3), (1, 3)], [3, 1, 1])),
    _arrays(4, _PATH[:2], _listed(1, [], []), _listed(1, [(0, 3), (0, 3)], [1, 3])),
    _arrays(4, _PATH[:2], _listed(1, [], []), _listed(1, [(0, 3), (0, 3)], [2, 0])),
    _arrays(5, _PATH, _listed(1, [(0, 4), (0, 4)], [2**70, 3]),
            _listed(2, [(1, 4), (1, 4)], [-(2**70), 2])),
    _arrays(4, [(0, 1), (0, 1)], _listed(1, [], []), _listed(1, [], [])),  # a repeated edge
    # unnormalized or out-of-range pairs, in the edges and in both tables
    _arrays(4, [(0, 1)], _listed(1, [(2, 0), (0, 9), (-1, 2), (1, 3), (3, 3)], [1, 1, 1, 4, 1]),
            _listed(1, [(3, 1), (0, 2), (4, 5)], [2, 2, 0])),
    _arrays(4, [(1, 0), (2, 3), (0, 7)], _listed(2, [(0, 2)], [1]), _listed(1, [(0, 2)], [1])),
    # costs of 0 or below on edges: ignored
    _arrays(4, _PATH, _listed(1, [], []), _listed(1, [(0, 1), (1, 2), (0, 3)], [0, -3, 2])),
    _arrays(4, _PATH, _listed(1, [], []), _listed(1, [(0, 1), (2, 3)], [0, -(2**70)])),
    _arrays(4, _PATH, _listed(0, [(0, 2)], [3]), _listed(1, [(0, 1), (0, 2)], [-1, 1])),
    # a default cost below 1
    build(4, {(0, 1)}, default_cost=0, cost_overrides={(0, 2): 1}),
    build(4, {(0, 1), (2, 3)}, default_cost=-2, cost_overrides={(0, 2): 3, (1, 3): 0}),
    build(4, set(_PATH), default_cost=0),  # every non-edge listed below 1: none unlisted
    build(3, {(0, 1), (1, 2), (0, 2)}, default_cost=-1),  # no non-edge at all
    # costs beyond int64, listed and default
    _arrays(4, [(0, 1)], _listed(1, [(0, 2)], [2]),
            _listed(1, [(0, 2), (1, 3), (0, 3)], [2**70, -(2**70), 2**64]), budget=3),
    _arrays(4, [(0, 1)], _listed(3, [(0, 2)], [0]), _listed(2**70, [(1, 2), (0, 3)], [1, 2])),
    build(4, {(0, 1)}, default_cost=2**70, cost_overrides={(1, 2): 1}),
    # n = 1
    _arrays(1, [], _listed(1, [(0, 1)], [2]), _listed(1, [(0, 0)], [0])),
    _arrays(1, [], _listed(1, [], []), _listed(1, [], []), budget=0),
    _arrays(1, [(0, 0)], _listed(None, [], []), _listed(None, [], [])),
]

CORPUS = VALID_CORPUS + UNIT_CORPUS + INVALID_CASES + LISTED_CASES


@pytest.mark.parametrize("instance", CORPUS)
def test_pair_scans_match_references(instance):
    assert validate(instance) == reference_validate(instance)
    assert outcome(serialize_instance, instance) == outcome(reference_serialize_instance, instance)
    assert unit_cost_error(instance) == reference_unit_cost_error(instance)
    if not validate(instance):  # the bounded-cost table builds its jumps after validating
        jumps = _ComplementJumps.of(instance)
        excluded, expected = reference_listed_jumps(instance)
        assert np.array_equal(jumps.excluded, excluded)
        listed = {
            c: list(zip(ys.tolist(), xs.tolist(), weights.tolist()))
            for c, (xs, weights, ys, _, _) in jumps.listed.items()
        }
        assert listed == expected
        assert jumps.targets.tolist() == sorted({y for c in expected for y, _, _ in expected[c]})


def test_valid_instances_round_trip_through_text():
    # one default missing: no default line, every non-edge listed; a repeated edge is invalid
    corpus = CORPUS + seeded_corpus(300, seed=51) + override_corpus(300, seed=9)
    for instance in (x for x in corpus if not validate(x)):
        text = serialize_instance(instance)
        assert serialize_instance(parse_instance(text)) == text


def test_listed_pair_scans_read_no_triangle(monkeypatch):
    # with both defaults set, only the listed pairs are looked at: no n×n upper triangle
    instance = build(
        30,
        {(i, i + 1) for i in range(29)},
        budget=3,
        weight_overrides={(0, 5): 2, (3, 9): 0, (4, 5): 7},
        cost_overrides={(0, 5): 1, (2, 8): 1, (4, 5): 0},
    )

    def triangle(*args, **kwargs):
        raise AssertionError("np.triu scanned every pair")

    monkeypatch.setattr(np, "triu", triangle)
    assert validate(instance) == []
    assert serialize_instance(instance).count("\nnonedge ") == 2  # (2, 8) takes the defaults
    ensure_unit_cost(instance)
    assert set(_ComplementJumps.of(instance).listed) == {1}


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


@pytest.mark.parametrize("instance", CORPUS)
def test_lookup_matches_get(instance):
    # at every pair u < v: the same value, or the same KeyError at the same first pair
    n, dense = max(instance.n, 0), instance.dense
    rows, cols = np.triu_indices(n, 1)
    for table, index in ((instance.weight, dense.weight_index), (instance.cost, dense.cost_index)):
        expected = outcome(lambda: [table.get(u, v) for u, v in zip(rows.tolist(), cols.tolist())])
        assert outcome(lambda: table.at(index, rows, cols).tolist()) == expected


def test_dense_view_is_cached_read_only_and_exact():
    text = (
        "n 4\nB 2\ndefault_nonedge weight 1 cost 1\nedge 0 1 3\nedge 1 2 1\nedge 2 3 1\n"
        f"nonedge 0 3 1 {2**70}\n"
    )
    valid, instance = parse_instance(text), parse_instance(f"{text}nonedge 0 2 2 {-(2**70)}\n")
    dense = instance.dense
    assert dense is instance.dense and valid.edge_weights is valid.edge_weights
    for array in (dense.weight_index, dense.cost_index, dense.edge, valid.edge_weights):
        assert array.shape == (4, 4)
        assert not array.flags.writeable
        assert np.array_equal(array, array.T)
    assert dense.weight_index.dtype == dense.cost_index.dtype == np.int32
    weight, cost = instance.weight.at, instance.cost.at
    assert weight(dense.weight_index, [0, 0, 1], [1, 2, 3]).tolist() == [3, 2, 1]
    assert cost(dense.cost_index, [0, 2, 3], [3, 0, 1]).tolist() == [2**70, -(2**70), 1]
    s = 2**14  # the uint16 sentinel, off the edges and on the diagonal
    assert valid.edge_weights.tolist() == [[s, 3, s, s], [3, s, 1, s], [s, 1, s, 1], [s, s, 1, s]]
    assert dense.edge[1, 2] and not dense.edge[0, 2]
    assert dense.weight_index[0, 1] > 0 and dense.weight_index[1, 3] == 0
    assert dense.cost_index[0, 3] > 0 and dense.cost_index[0, 1] == 0
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
