"""Property tests for the graph metric, the pair view, the bounded-cost table and their users.

Instances have n from 1 to 8, zero weights, disconnected graphs, costs above
the budget and weights at the headroom bound ⌊(2⁶²−1)/n⌋. Raw instances
add what validation rejects: negative values, costs below 1, values beyond
int64, keys out of range or not normalized, and partial tables; partial
valid instances list every pair of a table that has no default.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from diamaug import (
    PairTable,
    WeightedInstance,
    apsp_b,
    diameter,
    greedy_centers,
    serialize_instance,
    validate,
)
from diamaug.core import graph_metric
from diamaug.oracle import _base_matrix
from diamaug.unit_cost import _lightest_connectors
from helpers import (
    build,
    dijkstra_rows,
    outcome,
    reference_centers,
    reference_connectors,
    reference_serialize_instance,
    reference_table_rows,
    reference_unit_cost_error,
    reference_validate,
    unit_cost_error,
)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 8))
    budget = draw(st.integers(0, 3))
    pairs = list(combinations(range(n), 2))
    weights = st.sampled_from((0, 1, 2, 5, (2**62 - 1) // n))
    costs = st.integers(1, budget + 2)
    subsets = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
    edges = draw(subsets)
    return build(
        n,
        edges,
        budget=budget,
        default_weight=draw(weights),
        default_cost=draw(costs),
        weight_overrides={pair: draw(weights) for pair in draw(subsets)},
        cost_overrides={pair: draw(costs) for pair in draw(subsets)},
    )


@st.composite
def partial_instances(draw):
    """``instances()``, each table possibly made partial: every pair listed, no default."""
    instance = draw(instances())
    pairs = list(combinations(range(instance.n), 2))
    if draw(st.booleans()):
        weights = {pair: instance.weight.get(*pair) for pair in pairs}
        instance = replace(instance, weight=PairTable(None, weights))
    if draw(st.booleans()):
        costs = {pair: instance.cost.get(*pair) for pair in pairs if pair not in instance.edges}
        instance = replace(instance, cost=PairTable(None, costs))
    return instance


@st.composite
def raw_instances(draw):
    n = draw(st.integers(-1, 6))
    vertices = st.integers(-1, max(n, 0))
    pairs = st.tuples(vertices, vertices)
    values = st.sampled_from((-(2**70), -1, 0, 1, 2, 2**62, 2**63, 2**70))

    def table():
        return PairTable(
            draw(st.none() | values), draw(st.dictionaries(pairs, values, max_size=8))
        )

    edges = draw(st.frozensets(pairs, max_size=6))
    return WeightedInstance(n, edges, table(), table(), draw(st.integers(-1, 3)))


@given(instances() | raw_instances())
def test_pair_scans_equal_references(instance):
    assert validate(instance) == reference_validate(instance)
    assert outcome(serialize_instance, instance) == outcome(reference_serialize_instance, instance)
    assert unit_cost_error(instance) == reference_unit_cost_error(instance)


@given(instances())
def test_connectors_equal_reference(instance):
    clusters = greedy_centers(instance)
    members = [clusters.members(i) for i in range(len(clusters.centers))]
    assert _lightest_connectors(instance, members) == reference_connectors(instance, members)


@given(instances())
def test_graph_metric_equals_base_matrix(instance):
    assert np.array_equal(graph_metric(instance).view(np.int64), _base_matrix(instance))


@given(instances(), st.data())
def test_diameter_equals_dijkstra_reference(instance, data):
    non_edges = instance.non_edges()
    added = data.draw(st.sets(st.sampled_from(non_edges)) if non_edges else st.just(set()))
    assert diameter(instance, added) == max(map(max, dijkstra_rows(instance, added)))


@given(instances(), st.data())
def test_greedy_centers_equal_reference(instance, data):
    first = data.draw(st.integers(0, instance.n - 1))
    assert greedy_centers(instance, first) == reference_centers(instance, first)


@given(partial_instances(), st.data())
def test_bounded_cost_table_equals_dense_reference(instance, data):
    rows = data.draw(st.lists(st.integers(0, instance.n - 1), unique=True))
    for sources in (range(instance.n), rows):
        table = apsp_b(instance, sources).table.view(np.uint64)
        assert table.tobytes() == reference_table_rows(instance, sources).tobytes()
