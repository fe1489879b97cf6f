"""Pinned parse outcomes: each instance text with its exact result.

An accepted text pins its canonical ``serialize_instance`` text, a rejected
one the full ``FormatError`` text with its line number. The rejected cases
fix which error wins when a file has several: the first line in the file
that has one, and within a line the order vertex tokens, position before
the ``n`` line, self-loop, range, repeated pair, weight token, cost token.
Accepted tokens are whatever Python's ``int`` accepts, ``1_0`` and ``+3``
included.
"""

from __future__ import annotations

import hashlib

import pytest

from diamaug import FormatError, gen_random, parse_instance, serialize_instance
from test_golden_outputs import SEED, _load_workloads

H = "n 4\nB 1\n"
D = "default_nonedge weight 1 cost 1\n"
BIG = 2**70

REJECTED = {
    # the cases of test_formats.py's test_parse_errors_carry_line_numbers
    "self-loop": (H + "edge 0 0 1\n", "line 3: self-loop (0, 0) is not allowed"),
    "out of range": (H + "edge 0 9 1\n", "line 3: vertex pair (0, 9) out of range for n=4"),
    "edge repeated reversed": (
        H + "edge 0 1 1\nedge 1 0 2\n",
        "line 4: pair (0, 1) already listed on line 3",
    ),
    "edge then nonedge": (
        H + "edge 0 1 1\nnonedge 0 1 1 1\n",
        "line 4: pair (0, 1) already listed on line 3",
    ),
    "unknown directive": (H + "frob 1\n", "line 3: unknown directive 'frob'"),
    "bad vertex": (H + "edge 0 x 1\n", "line 3: vertex must be a decimal integer, got 'x'"),
    "pair before n": ("B 1\nedge 0 1 1\n", "line 2: vertex pair listed before the 'n' line"),
    "duplicate n": ("n 4\nn 4\nB 1\n", "line 2: duplicate 'n' line"),
    "missing B": ("n 4\n", "line 1: missing 'B' line"),
    "missing n": ("B 1\n", "line 1: missing 'n' line"),
    "short default": (
        H + "default_nonedge weight 1\n",
        "line 3: expected: default_nonedge weight <w> cost <c>",
    ),
    # a non-integer token at each position
    "edge u token": (H + "edge a 1 1\n", "line 3: vertex must be a decimal integer, got 'a'"),
    "edge v token": (H + "edge 0 b 1\n", "line 3: vertex must be a decimal integer, got 'b'"),
    "edge weight token": (
        H + "edge 0 1 c\n",
        "line 3: weight must be a decimal integer, got 'c'",
    ),
    "nonedge u token": (
        H + "nonedge a 1 1 1\n",
        "line 3: vertex must be a decimal integer, got 'a'",
    ),
    "nonedge v token": (
        H + "nonedge 0 b 1 1\n",
        "line 3: vertex must be a decimal integer, got 'b'",
    ),
    "nonedge weight token": (
        H + "nonedge 0 1 c 1\n",
        "line 3: weight must be a decimal integer, got 'c'",
    ),
    "nonedge cost token": (
        H + "nonedge 0 1 1 d\n",
        "line 3: cost must be a decimal integer, got 'd'",
    ),
    "default cost token": (
        H + "default_nonedge weight 1 cost x\n",
        "line 3: default cost must be a decimal integer, got 'x'",
    ),
    # a malformed pair before the n line
    "bad v before n": (
        "B 1\nedge 0 x 1\nn 4\n",
        "line 2: vertex must be a decimal integer, got 'x'",
    ),
    "bad u before n": (
        "B 1\nnonedge y 1 1 1\nn 4\n",
        "line 2: vertex must be a decimal integer, got 'y'",
    ),
    # several errors: the first line wins, and within a line the check order
    "range then duplicate": (
        H + "edge 0 1 1\nedge 2 7 1\nedge 1 0 1\n",
        "line 4: vertex pair (2, 7) out of range for n=4",
    ),
    "duplicate then range": (
        H + "edge 0 1 1\nedge 1 0 1\nedge 2 7 1\n",
        "line 4: pair (0, 1) already listed on line 3",
    ),
    "duplicate with bad weight": (
        H + "edge 0 1 1\nnonedge 1 0 x 1\n",
        "line 4: pair (0, 1) already listed on line 3",
    ),
    "range with bad weight": (
        H + "edge 0 4 x\n",
        "line 3: vertex pair (0, 4) out of range for n=4",
    ),
    "self-loop with bad weight": (H + "edge 2 2 x\n", "line 3: self-loop (2, 2) is not allowed"),
    "bad weight then bad vertex": (
        H + "edge 0 1 x\nedge y 2 1\n",
        "line 3: weight must be a decimal integer, got 'x'",
    ),
    "bad vertex then range": (
        H + "edge 0 z 1\nedge 0 9 1\n",
        "line 3: vertex must be a decimal integer, got 'z'",
    ),
    "bad cost then duplicate B": (
        H + "nonedge 0 2 1 q\nB 2\n",
        "line 3: cost must be a decimal integer, got 'q'",
    ),
    "duplicate B then bad cost": (H + "B 2\nnonedge 0 2 1 q\n", "line 3: duplicate 'B' line"),
    "bad weight then unknown": (
        H + "edge 0 1 w\nfrob\n",
        "line 3: weight must be a decimal integer, got 'w'",
    ),
    "wrong arity then bad vertex": (
        H + "edge 0 1\nedge x 1 1\n",
        "line 3: expected: edge <u> <v> <weight>",
    ),
    "bad vertex then wrong arity": (
        H + "edge x 1 1\nedge 0 1\n",
        "line 3: vertex must be a decimal integer, got 'x'",
    ),
    "nonedge arity": (H + "nonedge 0 1 1\n", "line 3: expected: nonedge <u> <v> <weight> <cost>"),
    "duplicate default": (H + D + D, "line 4: duplicate 'default_nonedge' line"),
    "second repeat names the first line": (
        H + "edge 0 1 1\nedge 2 3 1\nnonedge 1 2 1 1\nedge 3 2 5\n",
        "line 6: pair (2, 3) already listed on line 4",
    ),
    # vertices outside [0, n), beyond int64 too
    "negative vertex": (H + "edge -1 2 1\n", "line 3: vertex pair (-1, 2) out of range for n=4"),
    "huge vertex": (
        H + f"edge 0 {BIG} 1\n",
        f"line 3: vertex pair (0, {BIG}) out of range for n=4",
    ),
    "huge vertex after a valid line": (
        H + f"edge 2 3 1\nnonedge {-BIG} 1 1 1\n",
        f"line 4: vertex pair ({-BIG}, 1) out of range for n=4",
    ),
    "negative n then a pair": (
        "n -3\nB 1\nedge 0 1 1\n",
        "line 3: vertex pair (0, 1) out of range for n=-3",
    ),
}

ACCEPTED = {
    "int's own spellings": (
        H + D + "edge 0 1 1_000\nedge +1 2 3\nedge -0 3 1\nnonedge ٢ 3 ٣ 1\n",
        H + D + "edge 0 1 1000\nedge 0 3 1\nedge 1 2 3\nnonedge 2 3 3 1\n",
    ),
    "underscore weight": (H + D + "edge 0 1 1_0\n", H + D + "edge 0 1 10\n"),
    "values beyond int64": (
        H + D + f"edge 0 1 {BIG}\nedge 1 2 {-BIG}\n"
        f"nonedge 0 2 {BIG} {-BIG}\nnonedge 1 3 {-BIG} {BIG}\n",
        H + D + f"edge 0 1 {BIG}\nedge 1 2 {-BIG}\n"
        f"nonedge 0 2 {BIG} {-BIG}\nnonedge 1 3 {-BIG} {BIG}\n",
    ),
    "defaults beyond int64": (
        H + f"default_nonedge weight {BIG} cost {-BIG}\nedge 0 1 1\n",
        H + f"default_nonedge weight {BIG} cost {-BIG}\nedge 0 1 1\n",
    ),
    "n 0": ("n 0\nB 1\n", "n 0\nB 1\n"),
    "comments, blanks and a reversed pair": (
        "# head\n\nn 3 # count\n\tB 0\n\nedge 2 0 4 # reversed\nnonedge 1 2 0 2\nnonedge 0 1 1 1\n",
        "n 3\nB 0\nedge 0 2 4\nnonedge 0 1 1 1\nnonedge 1 2 0 2\n",
    ),
    "a listed non-edge equal to the defaults": (
        H + D + "nonedge 0 2 1 1\nnonedge 1 3 2 1\n",
        H + D + "nonedge 1 3 2 1\n",
    ),
}

# One line of instance 0 of each perfbench workload at seed 1, replaced:
# (workload, line, replacement) -> the FormatError text, or the first 16 hex
# digits of the canonical text's sha256.
MUTATED = {
    ("fpt-wide", "edge 18 51 2", "edge 18 51 7"): "765731d0687f054d",
    ("fpt-wide", "edge 18 51 2", "edge 51 18 x"): (
        "line 151: weight must be a decimal integer, got 'x'"
    ),
    ("fpt-deep", "edge 7 9 4", "nonedge 9 7 4 2"): "d3f8af67ed848471",
    ("fpt-deep", "edge 7 9 4", "edge 1 0 5"): "line 40: pair (0, 1) already listed on line 4",
    ("unit-mix", "edge 35 63 4", "edge 35 63 +4"): "1f5350c3e070a14b",
    ("unit-mix", "edge 35 63 4", "edge 35 120 4"): (
        "line 380: vertex pair (35, 120) out of range for n=120"
    ),
}


def outcome(text: str) -> str:
    """The canonical text of the parsed instance, or the FormatError text."""
    try:
        instance = parse_instance(text)
    except FormatError as exc:
        return str(exc)
    return serialize_instance(instance)


@pytest.mark.parametrize("name", REJECTED)
def test_rejected_texts(name):
    text, message = REJECTED[name]
    assert outcome(text) == message


@pytest.mark.parametrize("name", ACCEPTED)
def test_accepted_texts(name):
    text, canonical = ACCEPTED[name]
    assert outcome(text) == canonical


def test_partial_instance_parses_but_cannot_serialize():
    instance = parse_instance("n 3\nB 1\nedge 0 1 1\nnonedge 0 2 5 2\n")
    with pytest.raises(KeyError, match=r"pair \(1, 2\) has no value and no default"):
        serialize_instance(instance)


@pytest.mark.parametrize("workload", ["fpt-wide", "fpt-deep", "unit-mix"])
def test_mutated_workload_files(workload):
    text = serialize_instance(_load_workloads()[workload].instance(SEED, 0, gen_random))
    for (name, line, replacement), expected in MUTATED.items():
        if name != workload:
            continue
        assert text.count(line + "\n") == 1
        result = outcome(text.replace(line + "\n", replacement + "\n"))
        if not result.startswith("line "):
            result = hashlib.sha256(result.encode("utf-8")).hexdigest()[:16]
        assert result == expected, (line, replacement)
