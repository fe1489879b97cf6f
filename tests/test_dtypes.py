"""Every distance table in uint16, uint32 and uint64: the same values everywhere.

``core.dist_type_for`` is the one place that picks an instance's table
dtype. Replacing it forces each dtype wherever that dtype is exact
(n·W below its sentinel), and every stage must then give the same widened
tables and the same choices, trees, centers, witnesses and diameters as in
uint64. A recorder on ``np.minimum`` and ``np.maximum`` in the table
modules checks that no stage silently widens a narrow table.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from diamaug import (
    PathSource,
    apsp_b,
    cluster_spanning_mst,
    diameter,
    fpt_solve,
    greedy_centers,
    pairwise_centers,
    reconstruct_tree,
    solve_height_table,
    star_centers,
    validate,
)
from diamaug import budget_paths, core, fpt
from diamaug.core import INF64
from helpers import (
    DP_EDGE_CASES,
    EDGE_CASES,
    SENTINELS,
    build,
    force_dist_type,
    non_edges,
    override_corpus,
    path_graph,
    seeded_corpus,
    unit_cost_error,
    widened,
)


def _boundary(n: int, weight: int) -> list:
    """A weighted path and a disconnected instance with n·W = n·``weight``."""
    return [
        path_graph(n, budget=2, default_weight=weight, edge_weight=weight),
        build(n, {(0, 1)}, budget=1, default_weight=weight, default_cost=2),
    ]


# (n, W) with n·W just below and at each dtype's sentinel, and the dtype it takes.
BOUNDARIES = [
    (3, (2**14 - 1) // 3, np.uint16),
    (43, (2**14 - 1) // 43, np.uint16),
    (4, 2**14 // 4, np.uint32),
    (8, 2**14 // 8, np.uint32),
    (3, (2**30 - 1) // 3, np.uint32),
    (7, (2**30 - 1) // 7, np.uint32),
    (4, 2**30 // 4, np.uint64),
    (8, 2**30 // 8, np.uint64),
]

CORPUS = (
    DP_EDGE_CASES
    + [instance for n, weight, _ in BOUNDARIES for instance in _boundary(n, weight)]
    + seeded_corpus(16, seed=71, n_range=(2, 8), budget_range=(0, 3))
    + seeded_corpus(8, seed=72, n_range=(3, 9), max_cost=1)
    + [instance for instance in override_corpus(12, seed=73) if not validate(instance)]
)


def _span(instance) -> int:
    return instance.n * instance.weight.max_value()


@pytest.mark.parametrize("n, weight, dtype", BOUNDARIES)
def test_boundary_spans_take_their_dtype(n, weight, dtype):
    for instance in _boundary(n, weight):
        assert _span(instance) in (2**14 - 1, 2**14, 2**30 - 1, 2**30)
        assert instance.dist_type.dtype is dtype
        assert instance.dist_type.sentinel == dtype(SENTINELS[dtype])
        assert instance.metric.dtype == dtype


def test_headroom_edge_cases_take_uint64():
    wide = [instance for instance in EDGE_CASES if _span(instance) >= 2**30]
    assert len(wide) == 3
    for instance in wide:
        assert instance.dist_type == (np.uint64, INF64)
        assert apsp_b(instance).table.dtype == np.uint64


class _Recorded:
    """A numpy ufunc that records the dtype of every array it is called on."""

    def __init__(self, ufunc, seen: set):
        self._ufunc, self._seen = ufunc, seen

    def __call__(self, *args, **kwargs):
        self._seen.update(a.dtype for a in args if isinstance(a, np.ndarray))
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


class _RecordingNumpy:
    """numpy, with the operands of ``minimum`` and ``maximum`` recorded in ``seen``."""

    def __init__(self, seen: set):
        self.minimum = _Recorded(np.minimum, seen)
        self.maximum = _Recorded(np.maximum, seen)

    def __getattr__(self, name):
        return getattr(np, name)


def _stages(instance) -> dict:
    """Every stage's output on a fresh copy of ``instance``, tables widened."""
    instance = replace(instance)  # nothing cached: D₀ and the dtype are chosen afresh
    n, budget = instance.n, instance.budget
    dists = apsp_b(instance)
    centers = greedy_centers(instance)
    table = solve_height_table(centers, dists)
    masks = range(1, table.full_mask + 1)
    entries = [(u, mask, j) for u in range(n) for mask in masks for j in range(budget + 1)]
    root, full = centers.centers[0], table.full_mask
    finite = full and table.choice(root, full, budget) is not None
    witnesses = {}
    for s in {0, n - 1}:
        source = PathSource(dists, s)
        for beta in range(budget + 1):
            for v in range(n):
                if source.table[beta, v] < instance.dist_type.sentinel:
                    witnesses[s, beta, v] = source.path_to(v, beta)
    pairs = non_edges(instance)
    out = {
        "dtype": instance.dist_type.dtype,
        "metric": widened(instance, instance.metric),
        "table": widened(instance, dists.table),
        "heights": widened(instance, table.values),
        "choices": [table.choice(*entry) for entry in entries],
        "tree": reconstruct_tree(table, root, full, budget) if finite else None,
        "graph trees": [budget_paths._graph_tree(instance, a) for a in range(n)],
        "witnesses": witnesses,
        "centers": centers,
        "diameters": [
            diameter(instance, added)
            for added in ((), pairs[:1], pairs[::2], pairs)
        ],
    }
    outcome = fpt_solve(instance)
    out["fpt"] = (outcome.augmentation, outcome.tree_height, outcome.cluster_radius)
    if unit_cost_error(instance) is None:
        out["unit cost"] = [
            solver(instance) for solver in (pairwise_centers, star_centers, cluster_spanning_mst)
        ]
    return out


@pytest.mark.parametrize("instance", CORPUS)
def test_stages_agree_in_every_dtype(monkeypatch, instance):
    results, forced = {}, 0
    for dtype, sentinel in SENTINELS.items():
        if _span(instance) >= sentinel:
            continue  # not exact in this dtype, so never chosen for it
        forced += 1
        seen: dict[str, set] = {name: set() for name in ("core", "budget_paths", "fpt")}
        with monkeypatch.context() as patch:
            force_dist_type(patch, dtype)
            for module in (core, budget_paths, fpt):
                patch.setattr(module, "np", _RecordingNumpy(seen[module.__name__.split(".")[-1]]))
            results[dtype] = _stages(instance)
        assert results[dtype].pop("dtype") is dtype
        for stage, dtypes in seen.items():  # D₀ and the diameter, the table, the DP
            assert dtypes <= {np.dtype(dtype)}, (stage, dtypes)
        assert seen["core"]  # Floyd–Warshall ran under the recorder
    assert forced >= 1
    for dtype, result in results.items():
        for stage, value in result.items():
            expected = results[np.uint64][stage]
            if isinstance(value, np.ndarray):
                assert value.dtype == np.uint64 and np.array_equal(value, expected), (dtype, stage)
            else:
                assert value == expected, (dtype, stage)
