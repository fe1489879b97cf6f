"""Property tests for the graph metric, the pair view, the bounded-cost table and the solvers.

Instances have n from 1 to 8, zero weights, disconnected graphs, costs above
the budget and weights at the headroom bound ⌊(2⁶²−1)/n⌋. Raw instances
add what validation rejects: negative values, costs below 1, values beyond
int64, keys out of range or not normalized, and partial tables; partial
valid instances list every pair of a table that has no default. The solvers
are held to README's cost and ratio bounds against ``exact_optimum``.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diamaug import (
    INF,
    PairTable,
    WeightedInstance,
    diameter,
    exact_optimum,
    fpt_solve,
    greedy_centers,
    serialize_instance,
    validate,
)
from diamaug.cli import GUARANTEES, run
from diamaug.core import graph_metric
from diamaug.oracle import _base_matrix
from diamaug.unit_cost import (
    _lightest_connectors,
    cluster_spanning_mst,
    pairwise_centers,
    star_centers,
)
from helpers import (
    SENTINELS,
    batch_rows,
    build,
    dijkstra_rows,
    force_dist_type,
    non_edges,
    outcome,
    reference_centers,
    reference_connectors,
    reference_serialize_instance,
    reference_table_rows,
    reference_unit_cost_error,
    reference_validate,
    unit_cost_error,
    widened,
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


def with_unit_costs(instance: WeightedInstance) -> WeightedInstance:
    return replace(instance, cost=PairTable(1, {}))


def within(value, factor, best) -> bool:
    """value <= factor·best, with an unreachable optimum bounding nothing."""
    return best == INF or value <= factor * best


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


def check_graph_metric(instance):
    metric = widened(instance, graph_metric(instance))
    assert np.array_equal(metric.view(np.int64), _base_matrix(instance))


def check_diameter(instance, data):
    pairs = non_edges(instance)
    added = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    assert diameter(instance, added) == max(map(max, dijkstra_rows(instance, added)))


def check_bounded_cost_table(instance, data):
    rows = data.draw(st.lists(st.integers(0, instance.n - 1), unique=True))
    for sources in (range(instance.n), rows):
        table = batch_rows(instance, sources)
        assert table.tobytes() == reference_table_rows(instance, sources).tobytes()


@given(instances())
def test_graph_metric_equals_base_matrix(instance):
    check_graph_metric(instance)


@given(instances(), st.data())
def test_diameter_equals_dijkstra_reference(instance, data):
    check_diameter(instance, data)


@given(instances(), st.data())
def test_greedy_centers_equal_reference(instance, data):
    first = data.draw(st.integers(0, instance.n - 1))
    assert greedy_centers(instance, first) == reference_centers(instance, first)


@given(partial_instances(), st.data())
def test_bounded_cost_table_equals_dense_reference(instance, data):
    check_bounded_cost_table(instance, data)


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64], ids=["uint32", "uint64"])
@given(partial_instances(), st.data())
def test_metric_diameter_and_table_in_a_forced_dtype(dtype, instance, data):
    # each dtype wherever it is exact, so drawn zero weights reach it too
    with pytest.MonkeyPatch.context() as patch:
        force_dist_type(patch, dtype)
        instance = replace(instance)  # nothing cached: the dtype is chosen afresh
        span = instance.n * instance.weight.max_value()
        assert instance.dist_type.dtype is (dtype if span < SENTINELS[dtype] else np.uint64)
        check_graph_metric(instance)
        check_diameter(instance, data)
        check_bounded_cost_table(instance, data)


@given(instances())
def test_fpt_spends_within_budget_and_stays_within_four_times_optimum(instance):
    augmentation = fpt_solve(instance).augmentation
    assert augmentation.total_cost <= instance.budget
    assert within(augmentation.diameter, 4, exact_optimum(instance).best_diameter)


@given(instances().map(with_unit_costs))
def test_unit_cost_solvers_keep_their_cost_and_ratio_bounds(instance):
    best = exact_optimum(instance).best_diameter
    solvers = {"pairs": pairwise_centers, "star": star_centers, "mst": cluster_spanning_mst}
    for algo, solver in solvers.items():
        max_cost, factor = (bound(instance.budget) for bound in GUARANTEES[algo])
        augmentation = solver(instance).augmentation
        assert augmentation.total_cost <= max_cost, algo
        assert within(augmentation.diameter, factor, best), algo


@given(instances(), st.sampled_from(("fpt", "mst")))
def test_solve_then_check_round_trip(instance, algo):
    if algo == "mst":
        instance = with_unit_costs(instance)
    with tempfile.TemporaryDirectory() as workdir:
        path, solution = Path(workdir, "g.txt"), Path(workdir, "g.sol")
        path.write_text(serialize_instance(instance), encoding="utf-8")
        assert run(["solve", "--input", str(path), "--algo", algo,
                    "--solution", str(solution)]) == 0
        assert run(["check", "--input", str(path), "--solution", str(solution)]) == 0
