"""Property tests for the one graph metric and its consumers.

Instances have n from 1 to 8, zero weights, disconnected graphs, costs above
the budget and weights at the headroom bound ⌊(2⁶²−1)/n⌋.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from diamaug import diameter, greedy_centers
from diamaug.core import graph_metric
from diamaug.oracle import _base_matrix
from helpers import build, dijkstra_rows, reference_centers


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
