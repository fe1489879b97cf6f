"""Instance and solution text formats."""

from __future__ import annotations

import pytest

from diamaug import (
    INF,
    Augmentation,
    FormatError,
    augment,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    fpt_solve,
    gen_random,
    validate,
)
from diamaug.report import instance_digest
from helpers import all_pairs, p4, path_graph, seeded_corpus

P4_TEXT = """\
# tiny path fixture
n 4
B 1
default_nonedge weight 1 cost 1
edge 0 1 1
edge 1 2 1
edge 2 3 1
"""


def test_parse_p4():
    instance = parse_instance(P4_TEXT)
    assert instance.n == 4
    assert instance.budget == 1
    assert instance.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert instance.weight.get(0, 3) == 1
    assert instance.cost.get(0, 2) == 1
    assert validate(instance) == []


def test_serialize_is_canonical_fixed_point():
    text = serialize_instance(p4())
    assert serialize_instance(parse_instance(text)) == text


@pytest.mark.parametrize("instance", seeded_corpus(8, seed=21))
def test_roundtrip_on_generated_instances(instance):
    assert parse_instance(serialize_instance(instance)) == instance


def test_nonedge_override_roundtrip():
    instance = p4(weight_overrides={(0, 3): 10}, cost_overrides={(0, 3): 2})
    text = serialize_instance(instance)
    assert "nonedge 0 3 10 2" in text
    back = parse_instance(text)
    assert back.weight.get(0, 3) == 10
    assert back.cost.get(0, 3) == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n 4\nB 1\nedge 0 0 1\n", "self-loop"),
        ("n 4\nB 1\nedge 0 9 1\n", "out of range"),
        ("n 4\nB 1\nedge 0 1 1\nedge 1 0 2\n", "already listed"),
        ("n 4\nB 1\nedge 0 1 1\nnonedge 0 1 1 1\n", "already listed"),
        ("n 4\nB 1\nfrob 1\n", "unknown directive"),
        ("n 4\nB 1\nedge 0 x 1\n", "decimal integer"),
        ("B 1\nedge 0 1 1\n", "before the 'n' line"),
        ("n 4\nn 4\nB 1\n", "duplicate"),
        ("n 4\n", "missing 'B' line"),
        ("B 1\n", "missing 'n' line"),
        ("n 4\nB 1\ndefault_nonedge weight 1\n", "expected: default_nonedge"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_missing_default_with_incomplete_coverage_is_invalid():
    text = "n 3\nB 1\nedge 0 1 1\n"
    instance = parse_instance(text)
    problems = validate(instance)
    assert any("not total" in msg for msg in problems)


def test_missing_default_with_full_coverage_is_valid():
    text = "n 3\nB 1\nedge 0 1 1\nnonedge 0 2 1 1\nnonedge 1 2 1 1\n"
    assert validate(parse_instance(text)) == []


def test_solution_roundtrip():
    solution = augment(p4(), [(0, 3)])
    text = serialize_solution(solution)
    assert text == "add 0 3\ncost 1\ndiameter 2\n"
    added, cost, diam = parse_solution(text)
    assert added == [(0, 3)]
    assert cost == 1
    assert diam == 2


def test_solution_infinite_diameter():
    solution = Augmentation(added=frozenset(), total_cost=0, diameter=INF)
    text = serialize_solution(solution)
    assert "diameter inf" in text
    _, _, diam = parse_solution(text)
    assert diam == INF


def test_solution_parse_errors():
    with pytest.raises(FormatError):
        parse_solution("add 0\ncost 0\ndiameter 1\n")
    with pytest.raises(FormatError):
        parse_solution("add 0 1\ndiameter 1\n")


PARTIAL_TEXT = """\
n 4
B 2
edge 0 1 2
edge 2 3 1
nonedge 0 2 3 1
nonedge 0 3 1 2
nonedge 1 2 4 1
nonedge 1 3 2 3
"""

BEYOND_INT64_TEXT = """\
n 4
B 2
default_nonedge weight 1 cost 1
edge 0 1 1
edge 1 2 1
edge 2 3 1
nonedge 0 3 1 1180591620717411303424
"""

_HEADROOM_5 = (2**62 - 1) // 5

GOLDEN = {
    "p4": (p4(), "c2942670640f8a37"),
    "random": (gen_random(40, 0.2, 5, 3, 3, seed=5), "afcacb85d2250f06"),
    "partial": (parse_instance(PARTIAL_TEXT), "eddf26ea1ce4939d"),
    "headroom": (
        path_graph(5, budget=2, default_weight=_HEADROOM_5, edge_weight=_HEADROOM_5),
        "e0e4e7e4ace87519",
    ),
    "beyond-int64": (parse_instance(BEYOND_INT64_TEXT), "750460b3cac45751"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_digest_and_roundtrip(name):
    instance, digest = GOLDEN[name]
    assert instance_digest(instance) == digest
    text = serialize_instance(instance)
    back = parse_instance(text)
    assert serialize_instance(back) == text
    assert (back.n, back.budget, back.edges) == (instance.n, instance.budget, instance.edges)
    for u, v in all_pairs(instance.n):
        assert back.weight.get(u, v) == instance.weight.get(u, v)
        if (u, v) not in instance.edges:
            assert back.cost.get(u, v) == instance.cost.get(u, v)


def test_golden_canonical_texts():
    assert serialize_instance(GOLDEN["partial"][0]) == PARTIAL_TEXT
    assert serialize_instance(GOLDEN["beyond-int64"][0]) == BEYOND_INT64_TEXT


def test_cost_beyond_int64_is_valid_and_solvable():
    instance = GOLDEN["beyond-int64"][0]
    assert instance.cost.get(0, 3) == 2**70
    assert validate(instance) == []
    outcome = fpt_solve(instance)
    assert (0, 3) not in outcome.augmentation.added
    assert outcome.augmentation.total_cost <= instance.budget
