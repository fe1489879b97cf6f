"""The perfbench tracer still finds every entry point it wraps in the package."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from diamaug import budget_paths, gen_random, serialize_instance
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


def test_fpt_fills_its_table_inside_the_apsp_b_span(tmp_path, monkeypatch, capsys):
    # budget_paths.apsp_b_s and fpt.height_table_s keep their meaning only
    # while every batch of table rows is filled inside the apsp_b span
    path = tmp_path / "deep.txt"
    path.write_text(serialize_instance(gen_random(24, 0.25, 5, 3, 5, seed=1)), encoding="utf-8")
    tracer = _load_tracer().Tracer()
    enclosing = []
    table_rows = budget_paths._table_rows

    def recorded(*args):
        enclosing.append({tracer.spans[i][0] for i in tracer._stack})
        return table_rows(*args)

    monkeypatch.setattr(budget_paths, "_table_rows", recorded)
    with tracer.installed():
        tracer.solve = 0
        assert run(["solve", "--input", str(path), "--algo", "fpt"]) == 0
    capsys.readouterr()
    assert {"fpt.solve_height_table", "fpt.reconstruct_tree"} <= {n for n, *_ in tracer.spans}
    assert enclosing and all("budget_paths.apsp_b" in names for names in enclosing)
