"""The perfbench tracer still finds every entry point it wraps in the package."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from diamaug import serialize_instance
from diamaug.cli import run
from helpers import p4

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solves_count_trees_and_witness_walks(tmp_path, capsys):
    # --trace 1 wraps fpt.PathSource, unit_cost.PathSource,
    # budget_paths.PathSource.path_to, fpt.apsp_b, fpt.reconstruct_tree and
    # the rest of _patch_list; a renamed one fails when the tracer is built
    path = tmp_path / "p4.txt"
    path.write_text(serialize_instance(p4()), encoding="utf-8")
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        for solve, algo in enumerate(["fpt", "pairs", "star", "mst"]):
            tracer.solve = solve
            assert run(["solve", "--input", str(path), "--algo", algo]) == 0, algo
    capsys.readouterr()
    spans = {name for name, *_ in tracer.spans}
    assert {
        "budget_paths.apsp_b",
        "budget_paths.PathSource",
        "fpt.reconstruct_tree",
        "unit_cost.pairwise_centers",
        "unit_cost.star_centers",
        "unit_cost.cluster_spanning_mst",
    } <= spans
    metrics = tracer.per_solve_metrics(4)
    assert metrics["fpt.tree_nodes"] > 0
    assert metrics["budget_paths.path_to_calls"] > 0
