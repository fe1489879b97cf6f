"""Self-test of the benchmark's output checker: corrupted solutions are flagged.

Every benchmark run calls ``run_all``; a checker that stops flagging a
corruption makes the run report ``correct: false``. Run it alone with::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402

# A path 0-1-2-3 with unit weights; every missing pair has weight 1, cost 1.
INSTANCE = """n 4
B 1
default_nonedge weight 1 cost 1
edge 0 1 1
edge 1 2 1
edge 2 3 1
"""
BARE_DIAMETER = 3.0


def _outputs(added, cost, diameter) -> tuple[str, str]:
    lines = [f"add {u} {v}" for u, v in added] + [f"cost {cost}", f"diameter {diameter}"]
    report = {"algorithm": "fpt", "instance": "0" * 16, "parameters": {"first_center": 0},
              "added": [list(p) for p in added], "cost": cost, "diameter": str(diameter)}
    return "\n".join(lines) + "\n", json.dumps(report)


def _problems(added, cost, diameter) -> list[str]:
    solution, report = _outputs(added, cost, diameter)
    return checker.check_output(checker.parse_instance_text(INSTANCE), "fpt", solution, report,
                                BARE_DIAMETER)


def test_correct_solution_passes():
    assert _problems([(0, 3)], 1, 2) == []


def test_diameter_off_by_one_is_flagged():
    assert any("diameter mismatch" in p for p in _problems([(0, 3)], 1, 3))


def test_pair_that_is_already_an_edge_is_flagged():
    assert any("already an edge" in p for p in _problems([(1, 2)], 1, 3))


def test_cost_over_budget_is_flagged():
    assert any("exceeds the fpt bound" in p for p in _problems([(0, 2), (0, 3)], 2, 2))


def test_unparsable_solution_is_flagged():
    found = checker.check_output(checker.parse_instance_text(INSTANCE), "fpt", "cost x\n", "{}",
                                 BARE_DIAMETER)
    assert found and "does not parse" in found[0]


def test_floyd_warshall_diameter_of_disconnected_graph_is_inf():
    graph = checker.parse_instance_text("n 3\nB 0\ndefault_nonedge weight 1 cost 1\nedge 0 1 2\n")
    assert checker.floyd_warshall_diameter(graph) == float("inf")
    assert checker.floyd_warshall_diameter(graph, [(1, 2)]) == 3


TESTS = [value for name, value in sorted(globals().items()) if name.startswith("test_")]


def run_all() -> list[str]:
    """Names of the self-tests that fail; empty when the checker is sound."""
    failures = []
    for test in TESTS:
        try:
            test()
        except AssertionError:
            failures.append(f"checker self-test {test.__name__} failed")
    return failures


if __name__ == "__main__":
    failures = run_all()
    for failure in failures:
        print(failure)
    print(f"{len(TESTS) - len(failures)} of {len(TESTS)} checker self-tests pass")
    sys.exit(1 if failures else 0)
