"""Command-line front end: flows, exit codes, determinism."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from diamaug import serialize_instance
from diamaug.cli import build_parser, run
from helpers import build, p4

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
    assert run(["solve", "--input", p4_file, "--timings"]) == 0
    assert "time " in capsys.readouterr().out


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


def test_check_rejects_existing_edge(p4_file, tmp_path, capsys):
    solution = tmp_path / "sol.txt"
    solution.write_text("add 0 1\ncost 1\ndiameter 3\n", encoding="utf-8")
    assert run(["check", "--input", p4_file, "--solution", str(solution)]) == 1
    assert "already an edge" in capsys.readouterr().out


def test_malformed_instance_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 4\nB 1\nedge 0 9 1\n", encoding="utf-8")
    assert run(["solve", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err


def test_exact_guard_exits_two(tmp_path, capsys):
    sparse = tmp_path / "sparse.txt"
    sparse.write_text(serialize_instance(build(12, set(), budget=1)), encoding="utf-8")
    assert run(["exact", "--input", str(sparse)]) == 2
    assert "refused" in capsys.readouterr().err


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


_GEN = ["gen", "random", "--wmax", "3", "--cmax", "2", "--budget", "1", "--seed", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_GEN, "--n", "0", "--p", "0.5"],
        [*_GEN, "--n", "4", "--p", "1.5"],
        ["bench", "--suite", "scale", "--n", "0", "--budgets", "1"],
        ["bench", "--suite", "scale", "--n", "6", "--budgets", "4,x"],
    ],
    ids=["gen-n", "gen-p", "scale-n", "scale-budgets"],
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
    # a single set builds m = 3 element blocks and 19 non-edges, within the
    # exact oracle's default guard
    sets = tmp_path / "sets.txt"
    sets.write_text("0\n", encoding="utf-8")
    out = tmp_path / "red.txt"
    assert run(["gen", "setcover", "--sets", str(sets), "--k", "1", "--output", str(out)]) == 0
    capsys.readouterr()
    assert run(["exact", "--input", str(out)]) == 0
    report = capsys.readouterr().out
    assert "d_opt 2" in report


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

    outputs = []
    for hash_seed in ("1", "27", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
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


def test_parser_is_built_once_per_process(p4_file, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        run(["solve", "--input", p4_file, "--algo", "nope"])
    assert run(["solve", "--input", p4_file]) == 0
    assert "algorithm fpt" in capsys.readouterr().out
    assert build_parser() is parser


def _readme_cli_block() -> list[str]:
    """Command lines of the sh block under README's "## CLI" heading, comments dropped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = (line.split("#", 1)[0].strip() for line in block.splitlines())
    return [line for line in lines if line]


def test_readme_cli_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_block()
    assert commands
    for line in commands:
        argv = shlex.split(line)
        if argv[0] == "printf":  # printf '<text>' > <file>
            assert argv[2] == ">" and len(argv) == 4, line
            Path(argv[3]).write_text(argv[1].replace("\\n", "\n"), encoding="utf-8")
            continue
        assert argv[0] == "diamaug", line
        assert run(argv[1:]) == 0, f"{line}\n{capsys.readouterr().err}"
