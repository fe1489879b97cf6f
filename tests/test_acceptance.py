"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them). Oracle results are
computed once per corpus and shared across criteria.

Criterion 6 checks the reduction's feasibility equivalence over every
covering family with up to 3 sets, 3 elements and budget <= 2. It holds
because the construction uses m = max(|sets| * k, 2k + 1) element blocks:
with m = 2k (two candidate sets, budget 1) a single inserted edge from
``a`` to the lone hub vertex would reach diameter 2 without any cover
existing. That former counterexample is pinned as a regression check in
test_generators.py.
"""

from __future__ import annotations

import time
from itertools import combinations

import pytest

from diamaug import (
    INF,
    apsp_b,
    diameter,
    exact_optimum,
    fpt_solve,
    gen_random,
    greedy_centers,
    reduce_setcover,
    serialize_instance,
    solve_height_table,
)
from diamaug.cli import run
from diamaug.generators import ReductionError, SetCoverInstance
from diamaug.unit_cost import cluster_spanning_mst, pairwise_centers, star_centers
from helpers import connected_unit_instances, seeded_corpus, sssp
from oracles import diameter2_feasible, has_cover, pair_steps, path_oracle, span_height_profile


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")


def _bounded(value, factor):
    """factor * value with infinity absorbing."""
    return INF if value == INF else factor * value


@pytest.fixture(scope="module")
def weighted_corpus():
    return seeded_corpus(
        200, seed=101, n_range=(2, 7), budget_range=(1, 3), max_weight=3, max_cost=2
    )


@pytest.fixture(scope="module")
def weighted_best(weighted_corpus):
    return [exact_optimum(inst).best_diameter for inst in weighted_corpus]


@pytest.fixture(scope="module")
def unit_corpus():
    return seeded_corpus(
        200, seed=102, n_range=(2, 7), budget_range=(1, 3), max_weight=3, max_cost=1
    )


@pytest.fixture(scope="module")
def unit_best(unit_corpus):
    return [exact_optimum(inst).best_diameter for inst in unit_corpus]


def test_criterion_1_bounded_paths_match_oracle():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    corpora = connected_unit_instances(5, budget=2)
    corpora += seeded_corpus(
        200, seed=103, n_range=(2, 6), budget_range=(0, 3), max_weight=3, max_cost=2
    )
    for instance in corpora:
        dists, steps = apsp_b(instance), pair_steps(instance)
        for beta in range(instance.budget + 1):
            for u in range(instance.n):
                for v in range(instance.n):
                    checked += 1
                    if dists.get(beta, u, v) != path_oracle(instance, u, v, beta, steps):
                        mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        1,
        "bounded-path table equals path enumeration",
        ok,
        f"{len(corpora)} instances, {checked} entries, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_2_cluster_radius_bound(weighted_corpus, weighted_best):
    violations = 0
    for instance, best in zip(weighted_corpus, weighted_best):
        radius = greedy_centers(instance, 0).radius
        if not radius <= best:
            violations += 1
    _report(
        2,
        "greedy cluster radius within exact optimum",
        violations == 0,
        f"{len(weighted_corpus)} instances",
    )
    assert violations == 0


def test_criterion_3_height_table_equals_enumeration():
    corpus = seeded_corpus(
        100, seed=104, n_range=(2, 7), budget_range=(1, 3), max_weight=3, max_cost=2
    )
    violations = 0
    entries = 0
    for instance in corpus:
        dists = apsp_b(instance)
        centers = greedy_centers(instance, 0)
        others = centers.centers[1:]
        if not others:
            continue
        assert len(others) <= 3
        table = solve_height_table(centers, dists)
        profile = span_height_profile(instance, others, centers.centers[0], instance.budget)
        for j in range(instance.budget + 1):
            entries += 1
            if table.height(centers.centers[0], table.full_mask, j) != profile[j]:
                violations += 1
    _report(
        3,
        "height table equals insertion-set enumeration",
        violations == 0,
        f"{len(corpus)} instances, {entries} root entries",
    )
    assert violations == 0


def test_criterion_4_budget_and_quality_guarantee(weighted_corpus, weighted_best):
    cost_violations = 0
    quality_violations = 0
    ratios = []
    for instance, best in zip(weighted_corpus, weighted_best):
        outcome = fpt_solve(instance)
        if outcome.augmentation.total_cost > instance.budget:
            cost_violations += 1
        if not outcome.augmentation.diameter <= _bounded(best, 4):
            quality_violations += 1
        if best not in (0, INF) and outcome.augmentation.diameter != INF:
            ratios.append(outcome.augmentation.diameter / best)
    ok = cost_violations == 0 and quality_violations == 0
    buckets = {
        "=1": sum(1 for r in ratios if r == 1.0),
        "<=1.5": sum(1 for r in ratios if 1.0 < r <= 1.5),
        "<=2": sum(1 for r in ratios if 1.5 < r <= 2.0),
        ">2": sum(1 for r in ratios if r > 2.0),
    }
    detail = (
        f"{len(weighted_corpus)} instances, max ratio "
        f"{max(ratios):.3f}, distribution {buckets}"
    )
    _report(4, "solver spends within budget at <= 4x optimum", ok, detail)
    assert cost_violations == 0
    assert quality_violations == 0


def test_criterion_5_unit_cost_guarantees(unit_corpus, unit_best):
    violations = 0
    for instance, best in zip(unit_corpus, unit_best):
        k = instance.budget
        for solver, max_added, factor in (
            (pairwise_centers, k * (k + 1) ** 2, 3),
            (star_centers, k * k, 4),
            (cluster_spanning_mst, k, 3 * k + 2),
        ):
            result = solver(instance).augmentation
            if len(result.added) > max_added:
                violations += 1
            if not result.diameter <= _bounded(best, factor):
                violations += 1
    _report(
        5,
        "unit-cost algorithms hit size and quality bounds",
        violations == 0,
        f"{len(unit_corpus)} instances x 3 algorithms",
    )
    assert violations == 0


def _covering_families(universe_size: int):
    subsets = [
        frozenset(s)
        for r in range(1, universe_size + 1)
        for s in combinations(range(universe_size), r)
    ]
    for size in (1, 2, 3):
        for family in combinations(subsets, size):
            if frozenset().union(*family) == frozenset(range(universe_size)):
                yield family


def test_criterion_6_reduction_fidelity():
    structure_failures = []
    mismatches = []
    total = 0
    for universe_size in (1, 2, 3):
        for family in _covering_families(universe_size):
            for k in (1, 2):
                total += 1
                sc = SetCoverInstance(universe_size=universe_size, sets=family, k=k)
                try:
                    instance, layout = reduce_setcover(sc)  # self-checks the profile
                except ReductionError as exc:
                    structure_failures.append(f"{family} k={k}: {exc}")
                    continue
                if diameter(instance) != 3:
                    structure_failures.append(f"{family} k={k}: diameter != 3")
                dist = sssp(instance, layout.a)
                elements = set(layout.element_vertices())
                for v in range(1, instance.n):
                    expected = 3 if v in elements else (1 if v == layout.b else 2)
                    if dist[v] != expected:
                        structure_failures.append(f"{family} k={k}: profile at {v}")
                feasible = diameter2_feasible(instance)
                covered = has_cover(family, universe_size, k)
                if feasible != covered:
                    mismatches.append(
                        f"sets={sorted(sorted(s) for s in family)} k={k} m={layout.m}: "
                        f"feasible={feasible}, cover={covered}"
                    )
    ok = not structure_failures and not mismatches
    _report(
        6,
        "reduction diameter/profile and feasibility equivalence",
        ok,
        f"{total} covering instances, {len(mismatches)} equivalence mismatches",
    )
    assert not structure_failures, structure_failures
    # With m = 2k blocks (two sets, budget 1) one edge to the lone hub vertex
    # would span every element block; the construction keeps m > 2k, see the
    # regression check in test_generators.py.
    assert not mismatches, mismatches


def test_criterion_6_exact_optimum_decides_covers_at_budget_one():
    # the same families through the exact oracle instead of the diameter-2 search
    mismatches = []
    families = visited = 0
    for universe_size in (1, 2, 3):
        for family in _covering_families(universe_size):
            families += 1
            instance, _ = reduce_setcover(
                SetCoverInstance(universe_size=universe_size, sets=family, k=1)
            )
            result = exact_optimum(instance)
            visited += result.explored
            if (result.best_diameter <= 2) != has_cover(family, universe_size, 1):
                mismatches.append(sorted(sorted(s) for s in family))
    _report(
        6,
        "exact optimum <= 2 exactly when a cover exists (k = 1)",
        not mismatches,
        f"{families} families, {visited} sets visited, {len(mismatches)} mismatches",
    )
    assert families == 51
    assert not mismatches, mismatches


def test_criterion_7_scale_smoke():
    timings = {}
    for budget, limit in ((4, 10.0), (5, None), (6, 120.0)):
        instance = gen_random(50, 0.15, 5, 3, budget, seed=7)
        start = time.perf_counter()
        outcome = fpt_solve(instance)
        elapsed = time.perf_counter() - start
        timings[budget] = elapsed
        assert outcome.augmentation.total_cost <= budget
        if limit is not None:
            assert elapsed < limit, f"budget {budget} took {elapsed:.1f}s (limit {limit}s)"
    growth_45 = timings[5] / timings[4] if timings[4] > 0 else float("inf")
    growth_56 = timings[6] / timings[5] if timings[5] > 0 else float("inf")
    _report(
        7,
        "n=50 runs finish in time",
        True,
        f"b4={timings[4]:.2f}s b5={timings[5]:.2f}s b6={timings[6]:.2f}s, "
        f"growth x{growth_45:.2f}, x{growth_56:.2f}",
    )


def test_criterion_8_determinism(tmp_path, capsys):
    instance_path = tmp_path / "instance.txt"
    instance_path.write_text(
        serialize_instance(gen_random(7, 0.5, 3, 1, 2, seed=11)), encoding="utf-8"
    )
    identical = True
    for algo in ("fpt", "pairs", "star", "mst", "exact"):
        outputs = []
        solutions = []
        for attempt in range(2):
            solution_path = tmp_path / f"{algo}-{attempt}.sol"
            code = run(
                ["solve", "--input", str(instance_path), "--algo", algo,
                 "--solution", str(solution_path)]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out.encode())
            solutions.append(solution_path.read_bytes())
        identical &= outputs[0] == outputs[1] and solutions[0] == solutions[1]
    gen_args = ["gen", "random", "--n", "9", "--p", "0.4", "--wmax", "4", "--cmax", "2",
                "--budget", "3", "--seed", "21"]
    assert run(gen_args) == 0
    first = capsys.readouterr().out.encode()
    assert run(gen_args) == 0
    identical &= capsys.readouterr().out.encode() == first
    _report(8, "byte-identical reports, solutions, and instances", identical)
    assert identical
