"""Command-line front end: flows, exit codes, determinism."""

from __future__ import annotations

import json
import shlex
import time
import tracemalloc
from pathlib import Path

import pytest

from diamaug import (
    PairTable,
    WeightedInstance,
    cli,
    core,
    fpt_solve,
    gen_random,
    parse_instance,
    serialize_instance,
    validate,
)
from diamaug.cli import SCALE_REPEATS, build_parser, run
from diamaug.core import graph_metric
from diamaug.report import render_dist
from helpers import build, p4, sssp

P4_TEXT = serialize_instance(p4())


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4_TEXT, encoding="utf-8")
    return str(path)


def test_solve_fpt_report(p4_file, capsys):
    assert run(["solve", "--input", p4_file, "--algo", "fpt"]) == 0
    out = capsys.readouterr().out
    assert "algorithm fpt" in out
    assert "add 0 3" in out
    assert "cost 1" in out
    assert "diameter 2" in out
    assert "tree_height 1" in out
    assert "cluster_radius 1" in out
    assert "time " not in out


def test_solve_json_report(p4_file, capsys):
    assert run(["solve", "--input", p4_file, "--algo", "fpt", "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "fpt"
    assert payload["added"] == [[0, 3]]
    assert payload["cost"] == 1
    assert payload["diameter"] == "2"
    assert "timings" not in payload


def test_solve_with_timings_flag(p4_file, capsys):
    # fpt times each stage, every other algorithm the whole solve; the values are wall clock
    stages = {"fpt": ["bounded_paths", "clustering", "table", "reconstruct", "diameter"]}
    for algo in ("fpt", "pairs", "star", "mst", "exact"):
        argv = ["solve", "--input", p4_file, "--algo", algo, "--timings"]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        keys = [line.split()[1] for line in lines if line.startswith("time ")]
        assert keys == stages.get(algo, ["solve"]), algo
        assert run([*argv, "--report", "json"]) == 0
        assert list(json.loads(capsys.readouterr().out)["timings"]) == keys, algo


def test_solutions_from_solve_pass_check(p4_file, tmp_path, capsys):
    solution = tmp_path / "sol.txt"
    for algo in ("fpt", "pairs", "star", "mst", "exact"):
        assert run(
            ["solve", "--input", p4_file, "--algo", algo, "--solution", str(solution)]
        ) == 0
        capsys.readouterr()
        assert run(["check", "--input", p4_file, "--solution", str(solution)]) == 0
        assert "check ok" in capsys.readouterr().out


def test_check_rejects_wrong_diameter(p4_file, tmp_path, capsys):
    solution = tmp_path / "sol.txt"
    solution.write_text("add 0 3\ncost 1\ndiameter 1\n", encoding="utf-8")
    assert run(["check", "--input", p4_file, "--solution", str(solution)]) == 1
    assert "diameter mismatch" in capsys.readouterr().out


def test_check_rejects_budget_violation(p4_file, tmp_path, capsys):
    solution = tmp_path / "sol.txt"
    solution.write_text("add 0 2\nadd 1 3\ncost 2\ndiameter 2\n", encoding="utf-8")
    assert run(["check", "--input", p4_file, "--solution", str(solution)]) == 1
    assert "budget exceeded" in capsys.readouterr().out


def test_check_fails_pairs_solution_over_budget(tmp_path, capsys):
    # pairs may spend up to k(k+1)^2, but check holds every solution to B
    path, solution = tmp_path / "g.txt", tmp_path / "g.sol"
    path.write_text(serialize_instance(gen_random(5, 0.2, 3, 1, 2, 0)), encoding="utf-8")
    args = ["--input", str(path)]
    assert run(["solve", *args, "--algo", "pairs", "--solution", str(solution)]) == 0
    assert "cost 3" in capsys.readouterr().out
    assert "cost 3\n" in solution.read_text(encoding="utf-8")
    assert run(["check", *args, "--solution", str(solution)]) == 1
    assert "check failed: budget exceeded: cost 3 > budget 2" in capsys.readouterr().out


@pytest.mark.parametrize("algo", ["pairs", "star"])
def test_pairs_and_star_solutions_round_trip_through_check(algo, tmp_path, capsys):
    # within B, check accepts; above B, budget is its only complaint, never cost or diameter
    path, solution = tmp_path / "g.txt", tmp_path / "g.sol"
    verdicts = set()
    for seed, budget in enumerate((1, 2, 3, 3)):
        instance = gen_random(9 + seed, 0.2, 3, 1, budget, seed)
        path.write_text(serialize_instance(instance), encoding="utf-8")
        assert run(["solve", "--input", str(path), "--algo", algo,
                    "--solution", str(solution)]) == 0
        capsys.readouterr()
        cost = int(solution.read_text(encoding="utf-8").split("cost ")[1].split()[0])
        code = run(["check", "--input", str(path), "--solution", str(solution)])
        out = capsys.readouterr().out
        if cost <= budget:
            assert code == 0 and out.startswith(f"check ok: cost {cost}, diameter ")
        else:
            assert code == 1
            assert out == f"check failed: budget exceeded: cost {cost} > budget {budget}\n"
        verdicts.add(code)
    assert verdicts == ({0, 1} if algo == "pairs" else {0})


def test_check_rejects_existing_edge(p4_file, tmp_path, capsys):
    solution = tmp_path / "sol.txt"
    solution.write_text("add 0 1\ncost 1\ndiameter 3\n", encoding="utf-8")
    assert run(["check", "--input", p4_file, "--solution", str(solution)]) == 1
    assert "already an edge" in capsys.readouterr().out


def test_check_rejects_a_repeated_cost_line(p4_file, tmp_path, capsys):
    solution = tmp_path / "sol.txt"
    solution.write_text("add 0 3\ncost 1\ndiameter 2\ncost 5\n", encoding="utf-8")
    assert run(["check", "--input", p4_file, "--solution", str(solution)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 4: duplicate 'cost' line\n"


def test_malformed_instance_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 4\nB 1\nedge 0 9 1\n", encoding="utf-8")
    assert run(["solve", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err


def test_exact_guard_exits_two(tmp_path, capsys):
    sparse = tmp_path / "sparse.txt"
    sparse.write_text(serialize_instance(build(8, {(0, 1)}, budget=27)), encoding="utf-8")
    assert run(["exact", "--input", str(sparse)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: instance too large: more than 2097144 sets")


def test_apsp_rows(p4_file, capsys):
    assert run(["apsp", "--input", p4_file, "--beta", "1", "--source", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["1 0 0 0", "1 0 1 1", "1 0 2 1", "1 0 3 1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--first", "9"],
        ["cluster", "--first", "-1"],
        ["apsp", "--source", "9"],
        ["apsp", "--beta", "2"],
        ["apsp", "--beta", "-1"],
    ],
    ids=["solve-first", "cluster-first", "apsp-source", "apsp-beta-high", "apsp-beta-low"],
)
def test_out_of_range_flag_is_an_input_error(p4_file, capsys, argv):
    assert run([argv[0], "--input", p4_file, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[1]} {argv[2]} ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--algo", "bogus"], "argument --algo: invalid choice: 'bogus'"),
        (["--first", "x"], "argument --first: invalid int value: 'x'"),
        ([], "the following arguments are required: --input"),
    ],
    ids=["unknown-algo", "non-integer-first", "missing-input"],
)
def test_usage_error_exits_one(p4_file, capsys, argv, message):
    # exit 2 is kept for guard refusals, so argparse's own exit 2 becomes 1
    inputs = ["--input", p4_file] if argv else []
    assert run(["solve", *inputs, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: diamaug solve ")
    assert f"diamaug solve: error: {message}" in captured.err


def test_help_exits_zero(capsys):
    assert run(["solve", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: diamaug solve ")


_GEN = ["gen", "random", "--wmax", "3", "--cmax", "2", "--budget", "1", "--seed", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_GEN, "--n", "0", "--p", "0.5"],
        [*_GEN, "--n", "4", "--p", "1.5"],
        ["bench", "--suite", "scale", "--n", "0", "--budgets", "1"],
        ["bench", "--suite", "scale", "--n", "6", "--budgets", "4,x"],
        ["bench", "--suite", "scale", "--n", "6", "--budgets", ""],
        ["bench", "--suite", "scale", "--n", "6", "--budgets", ","],
        ["bench", "--suite", "scale", "--n", "6", "--budgets", "1,,2"],
    ],
    ids=["gen-n", "gen-p", "scale-n", "scale-budgets", "scale-no-budgets", "scale-comma-budgets",
         "scale-empty-budget"],
)
def test_bad_generator_flag_is_an_input_error(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_cluster_output(p4_file, capsys):
    assert run(["cluster", "--input", p4_file]) == 0
    out = capsys.readouterr().out
    assert "centers 0 3" in out
    assert "radius 1" in out


def test_gen_random_roundtrip(tmp_path, capsys):
    args = ["gen", "random", "--n", "6", "--p", "0.5", "--wmax", "3", "--cmax", "2",
            "--budget", "2", "--seed", "42"]
    assert run(args) == 0
    text = capsys.readouterr().out
    target = tmp_path / "inst.txt"
    assert run(args + ["--output", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == text
    assert run(["solve", "--input", str(target), "--algo", "fpt"]) == 0


def test_gen_setcover_flow(tmp_path, capsys):
    # a single set builds m = 3 element blocks and 19 non-edges: 20 sets at budget 1
    sets = tmp_path / "sets.txt"
    sets.write_text("0\n", encoding="utf-8")
    out = tmp_path / "red.txt"
    assert run(["gen", "setcover", "--sets", str(sets), "--k", "1", "--output", str(out)]) == 0
    capsys.readouterr()
    assert run(["exact", "--input", str(out)]) == 0
    report = capsys.readouterr().out
    assert "d_opt 2" in report


def test_gen_setcover_refuses_an_oversized_reduction(tmp_path, capsys):
    sets = tmp_path / "sets.txt"
    sets.write_text("0 1\n1 2\n", encoding="utf-8")
    tracemalloc.start()
    try:  # about 20,300 vertices: refused before any is laid out
        code = run(["gen", "setcover", "--sets", str(sets), "--k", "99"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: reduction would have 20302 vertices")
    assert peak < 4 * 2**20


def test_solve_refuses_an_oversized_height_table(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(serialize_instance(gen_random(50, 0.15, 5, 3, 20, 7)), encoding="utf-8")
    tracemalloc.start()
    try:  # an 8.8 GB table: refused before it is allocated
        code = run(["solve", "--input", str(path), "--algo", "fpt"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: height table of 20 non-root centers")
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "command",
    [["solve"], ["solve", "--algo", "pairs"], ["exact"], ["apsp"], ["cluster"], ["check"]],
)
def test_commands_refuse_an_oversized_instance_on_load(tmp_path, capsys, monkeypatch, command):
    path, solution = tmp_path / "huge.txt", tmp_path / "huge.sol"
    path.write_text("n 100000\nB 0\n", encoding="utf-8")  # a 90 GB pair view
    solution.write_text("cost 0\ndiameter 0\n", encoding="utf-8")

    def unguarded(n, pairs):
        raise AssertionError("the pair view's first n×n array was built before the size check")

    monkeypatch.setattr(core, "_index", unguarded)
    argv = [command[0], "--input", str(path), *command[1:]]
    if command[0] == "check":
        argv += ["--solution", str(solution)]
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "refused: instance too large: n=100000 needs 130000000000 bytes for its pair view "
        f"and D₀, above {core.MAX_INSTANCE_BYTES}\n"
    )
    assert peak < 4 * 2**20


def test_solve_refuses_a_vertex_count_beyond_int64(tmp_path, capsys):
    # the size check runs before any pair key u·n + v, which int64 cannot hold here
    path = tmp_path / "huge.txt"
    path.write_text(f"n {2**70}\nB 0\nedge 0 1 1\n", encoding="utf-8")
    assert run(["solve", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"refused: instance too large: n={2**70} needs ")


@pytest.mark.parametrize("call", [validate, serialize_instance])
def test_library_calls_refuse_a_vertex_count_beyond_int64(call):
    instance = WeightedInstance(2**70, [(0, 1)], PairTable(1, {(0, 2): 3}), PairTable(1), 0)
    with pytest.raises(core.InstanceLimitError, match=f"n={2**70} needs "):
        call(instance)


@pytest.mark.parametrize("call", [validate, fpt_solve])
def test_library_calls_refuse_an_oversized_instance(call):
    instance = WeightedInstance(100_000, [], PairTable(1), PairTable(1), 0)  # n·W takes uint32
    tracemalloc.start()
    try:
        with pytest.raises(core.InstanceLimitError, match="n=100000 needs 170000000000 bytes"):
            call(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_instance_size_limit_sits_at_n_4544():
    core.check_instance_size(4544, 1)  # 4544² · 13 bytes (uint16 weights and D₀) is below 2**28
    with pytest.raises(core.InstanceLimitError):
        core.check_instance_size(4545, 1)


@pytest.mark.parametrize(
    "command",
    [
        ["gen", "random", "--p", "0.5", "--wmax", "5", "--cmax", "1", "--budget", "1",
         "--seed", "1"],
        ["bench", "--suite", "scale", "--budgets", "1"],  # the suite draws weights up to 5
    ],
    ids=["gen", "scale"],
)
def test_generators_refuse_an_oversized_n_before_drawing(capsys, monkeypatch, command):
    def unguarded(*args):
        raise AssertionError("gen_random ran before the size check")

    monkeypatch.setattr(cli, "gen_random", unguarded)  # about 5·10⁹ draws at n = 100,000
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = run([*command, "--n", "100000"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (  # n·W = 500,000 takes uint32 edge weights and D₀: 17 bytes per pair
        "refused: instance too large: n=100000 needs 170000000000 bytes for its pair view "
        f"and D₀, above {core.MAX_INSTANCE_BYTES}\n"
    )
    assert peak < 4 * 2**20
    assert elapsed < 1.0


def _unguarded_draw(*args):
    raise AssertionError("gen_random ran before the checks")


@pytest.mark.parametrize(
    "budgets, code, err",
    [
        ("3,30", 2, "refused: height table of 30 non-root centers, budget 30 and 2000 vertices "
         "needs 532575944704000 bytes, over the limit of 268435456\n"),
        ("3,-1", 1, "error: budget must be >= 0, got -1\n"),
    ],
    ids=["table", "budget"],
)
def test_bench_scale_checks_every_budget_before_drawing(capsys, monkeypatch, budgets, code, err):
    monkeypatch.setattr(cli, "gen_random", _unguarded_draw)  # a 2000-vertex draw per budget
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert run(["bench", "--suite", "scale", "--n", "2000", "--budgets", budgets]) == code
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("", err)
    assert peak < 4 * 2**20
    assert elapsed < 1.0


def test_bounded_cost_table_limit_counts_its_entries():
    # (B+1)·rows·n·itemsize against 2**28: every row of n = 3,000 in uint16 fits B = 13, not 14
    core.check_bounded_table_size(13, 3000, 3000, 2)
    with pytest.raises(core.InstanceLimitError):
        core.check_bounded_table_size(14, 3000, 3000, 2)
    core.check_bounded_table_size(3, 2**12, 2**12, 4)  # 4·2**24·4: exactly 2**28 bytes
    for budget, rows, n in ((3, 2**12 + 1, 2**12 + 1), (4, 2**12, 2**12), (3, 2**12 + 1, 2**12)):
        with pytest.raises(core.InstanceLimitError):
            core.check_bounded_table_size(budget, rows, n, 4)
    with pytest.raises(core.InstanceLimitError):
        core.check_bounded_table_size(40, 3000, 3000, 2)  # 738 MB
    # only the rows built count: one row at n = 1,000, B = 134 is 270 KB, all of them 270 MB
    core.check_bounded_table_size(134, 1, 1000, 2)
    with pytest.raises(core.InstanceLimitError, match="need 270000000 bytes"):
        core.check_bounded_table_size(134, 1000, 1000, 2)


def _run_budget_300(tmp_path, monkeypatch, command: list[str]) -> tuple[int, str]:
    """Run ``command`` on n = 200 at B = 300 under a 1 MiB limit; return its code and
    ``--input``. The pair view, edge weights and D₀ take 200²·13 = 520,000 bytes, one
    row of the uint16 bounded-cost table 301·200·2 = 120,400 bytes, and the run peaks
    below 4 MiB under tracemalloc."""
    path = tmp_path / "g.txt"
    path.write_text(serialize_instance(gen_random(200, 0.1, 5, 1, 300, 3)), encoding="utf-8")
    monkeypatch.setattr(core, "MAX_INSTANCE_BYTES", 2**20)
    tracemalloc.start()
    try:
        code = run([*command, "--input", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    return code, str(path)


def test_apsp_refuses_an_oversized_table_before_allocating_it(tmp_path, capsys, monkeypatch):
    assert _run_budget_300(tmp_path, monkeypatch, ["apsp"])[0] == 2  # every source's row
    assert capsys.readouterr() == (
        "",
        "refused: bounded-cost table too large: budget 300 and n=200 need 24080000 bytes, "
        "above 1048576\n",
    )


def test_pairs_refuses_an_oversized_table_before_allocating_it(tmp_path, capsys, monkeypatch):
    # all 200 vertices are centers, and pairs builds the rows of the first 199
    assert _run_budget_300(tmp_path, monkeypatch, ["solve", "--algo", "pairs"])[0] == 2
    assert capsys.readouterr() == (
        "",
        "refused: bounded-cost table too large: budget 300 and n=200 need 23959600 bytes, "
        "above 1048576\n",
    )


@pytest.mark.parametrize(
    "command", [["solve", "--algo", "star"], ["apsp", "--source", "0", "--beta", "0"]],
    ids=["star", "apsp"],
)
def test_one_row_tables_fit_where_a_full_table_is_refused(tmp_path, capsys, monkeypatch, command):
    # star and a one-source apsp build one row, which the limit admits
    code, path = _run_budget_300(tmp_path, monkeypatch, command)
    assert code == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command[0] == "apsp":  # budget 0 is the graph metric
        row = sssp(parse_instance(Path(path).read_text(encoding="utf-8")), 0)
        assert out.splitlines() == [f"0 0 {v} {render_dist(d)}" for v, d in enumerate(row)]
    else:
        assert "algorithm star" in out


def test_gen_setcover_copies_guard(tmp_path, capsys):
    sets = tmp_path / "sets.txt"
    sets.write_text("0\n0 1\n", encoding="utf-8")
    assert run(["gen", "setcover", "--sets", str(sets), "--k", "1", "--copies", "1"]) == 2


def test_reports_are_byte_identical_across_runs(p4_file, tmp_path, capsys):
    outputs = []
    solutions = []
    for i in range(2):
        solution = tmp_path / f"sol{i}.txt"
        assert run(
            ["solve", "--input", p4_file, "--algo", "fpt", "--report", "json",
             "--solution", str(solution)]
        ) == 0
        outputs.append(capsys.readouterr().out)
        solutions.append(solution.read_bytes())
    assert outputs[0] == outputs[1]
    assert solutions[0] == solutions[1]


def test_generator_is_byte_identical_across_runs(capsys):
    args = ["gen", "random", "--n", "7", "--p", "0.4", "--wmax", "3", "--cmax", "2",
            "--budget", "2", "--seed", "9"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_reports_stable_across_hash_seeds(p4_file, tmp_path):
    # set/dict iteration must never leak into outputs; vary the interpreter
    # hash seed and demand identical bytes
    import os
    import subprocess
    import sys
    from pathlib import Path

    import diamaug

    # the subprocesses import the package under test, installed or not
    package_root = str(Path(diamaug.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("1", "27", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        result = subprocess.run(
            [sys.executable, "-m", "diamaug.cli", "solve", "--input", p4_file,
             "--algo", "fpt", "--report", "json"],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_bench_small_suite(capsys):
    assert run(["bench", "--suite", "small", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "violations" in out
    assert "VIOLATION" not in out


def test_bench_scale_tiny(capsys):
    assert run(["bench", "--suite", "scale", "--n", "12", "--budgets", "1,2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "budget=1" in out and "budget=2" in out
    assert "bounded_paths=" in out and "table=" in out and "reconstruct=" in out
    assert "growth" in out
    rows = [dict(field.split("=") for field in line.split()) for line in out.splitlines()[:2]]
    for row in rows:  # D₀ is its own column, and each cold run's total includes it
        assert list(row) == ["n", "budget", "seconds", "metric", "bounded_paths", "table",
                             "reconstruct"]
        assert float(row["seconds"]) >= float(row["metric"])


def test_bench_scale_computes_the_metric_once_per_repeat(monkeypatch, capsys):
    calls = []

    def counted(instance):
        calls.append(instance)
        return graph_metric(instance)

    monkeypatch.setattr(core, "graph_metric", counted)
    assert run(["bench", "--suite", "scale", "--n", "8", "--budgets", "1,2"]) == 0
    assert len(calls) == 2 * SCALE_REPEATS


def test_bench_scale_checks_every_budget_before_the_first_row(capsys):
    assert run(["bench", "--suite", "scale", "--n", "5", "--budgets", "1,-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget must be >= 0, got -1\n"


def test_bench_scale_sizes_every_table_before_the_first_row(capsys):
    assert run(["bench", "--suite", "scale", "--n", "20", "--budgets", "2,30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "refused: height table of 19 non-root centers, budget 30 and 20 vertices needs "
        "2600468480 bytes, over the limit of 268435456\n"
    )


def test_bench_scale_sizes_every_bounded_cost_table_before_drawing(monkeypatch, capsys):
    # n = 250 fits the instance (250²·13 = 812,500 bytes) and budget 3's table (500,000),
    # but not budget 8's: 9·250²·2 bytes, over a 1 MiB limit
    calls = []
    monkeypatch.setattr(core, "graph_metric", calls.append)
    monkeypatch.setattr(cli, "gen_random", _unguarded_draw)
    monkeypatch.setattr(core, "MAX_INSTANCE_BYTES", 2**20)
    assert run(["bench", "--suite", "scale", "--n", "250", "--budgets", "3,8"]) == 2
    assert calls == []
    assert capsys.readouterr() == (
        "",
        "refused: bounded-cost table too large: budget 8 and n=250 need 1125000 bytes, "
        "above 1048576\n",
    )


def test_parser_is_built_once_per_process(p4_file, capsys):
    parser = build_parser()
    assert run(["solve", "--input", p4_file, "--algo", "nope"]) == 1
    assert run(["solve", "--input", p4_file]) == 0
    assert "algorithm fpt" in capsys.readouterr().out
    assert build_parser() is parser


def _readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under README's ``## heading``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def test_readme_cli_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = (line.split("#", 1)[0].strip() for line in _readme_block("CLI", "sh").splitlines())
    commands = [line for line in lines if line]
    assert commands
    for line in commands:
        argv = shlex.split(line)
        if argv[0] == "printf":  # printf '<text>' > <file>
            assert argv[2] == ">" and len(argv) == 4, line
            Path(argv[3]).write_text(argv[1].replace("\\n", "\n"), encoding="utf-8")
            continue
        assert argv[0] == "diamaug", line
        assert run(argv[1:]) == 0, f"{line}\n{capsys.readouterr().err}"
    capsys.readouterr()
    # the Library snippet reads the files the CLI block wrote
    exec(compile(_readme_block("Library", "python"), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
