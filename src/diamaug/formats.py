"""Line-oriented text formats for instances and solution files.

Instance format (UTF-8, '#' starts a comment, tokens whitespace-separated,
vertices 0-indexed decimal)::

    n <count>
    B <budget>
    default_nonedge weight <w> cost <c>
    edge <u> <v> <weight>
    nonedge <u> <v> <weight> <cost>

Every pair not named by an ``edge`` or ``nonedge`` line is a non-edge with
the default weight and cost. A file with no ``default_nonedge`` line and
incomplete pair coverage is invalid.

Solution format: one ``add <u> <v>`` line per inserted pair (sorted), then
``cost <total>``, then ``diameter <value|inf>``.
"""

from __future__ import annotations

import numpy as np

from .core import (
    INF,
    INF64,
    Augmentation,
    Dist,
    Pair,
    PairTable,
    WeightedInstance,
    ordered_pair,
)


class FormatError(ValueError):
    """Malformed instance or solution text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _tokenized_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            out.append((line_no, tokens))
    return out


def _parse_int(line_no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(line_no, f"{what} must be a decimal integer, got {token!r}") from None


def _parse_pair(line_no: int, n: int | None, tu: str, tv: str) -> Pair:
    u = _parse_int(line_no, tu, "vertex")
    v = _parse_int(line_no, tv, "vertex")
    if n is None:
        raise FormatError(line_no, "vertex pair listed before the 'n' line")
    if u == v:
        raise FormatError(line_no, f"self-loop ({u}, {v}) is not allowed")
    if not (0 <= u < n and 0 <= v < n):
        raise FormatError(line_no, f"vertex pair ({u}, {v}) out of range for n={n}")
    return ordered_pair(u, v)


def parse_instance(text: str) -> WeightedInstance:
    """Parse the instance format; raises FormatError with a line number."""
    n: int | None = None
    budget: int | None = None
    default_weight: int | None = None
    default_cost: int | None = None
    edge_weights: dict[Pair, int] = {}
    nonedge_values: dict[Pair, tuple[int, int]] = {}
    seen: dict[Pair, int] = {}

    for line_no, tokens in _tokenized_lines(text):
        kind, args = tokens[0], tokens[1:]
        if kind == "n":
            if n is not None:
                raise FormatError(line_no, "duplicate 'n' line")
            if len(args) != 1:
                raise FormatError(line_no, "expected: n <count>")
            n = _parse_int(line_no, args[0], "vertex count")
        elif kind == "B":
            if budget is not None:
                raise FormatError(line_no, "duplicate 'B' line")
            if len(args) != 1:
                raise FormatError(line_no, "expected: B <budget>")
            budget = _parse_int(line_no, args[0], "budget")
        elif kind == "default_nonedge":
            if default_weight is not None:
                raise FormatError(line_no, "duplicate 'default_nonedge' line")
            if len(args) != 4 or args[0] != "weight" or args[2] != "cost":
                raise FormatError(line_no, "expected: default_nonedge weight <w> cost <c>")
            default_weight = _parse_int(line_no, args[1], "default weight")
            default_cost = _parse_int(line_no, args[3], "default cost")
        elif kind == "edge":
            if len(args) != 3:
                raise FormatError(line_no, "expected: edge <u> <v> <weight>")
            pair = _parse_pair(line_no, n, args[0], args[1])
            if pair in seen:
                raise FormatError(line_no, f"pair {pair} already listed on line {seen[pair]}")
            seen[pair] = line_no
            edge_weights[pair] = _parse_int(line_no, args[2], "weight")
        elif kind == "nonedge":
            if len(args) != 4:
                raise FormatError(line_no, "expected: nonedge <u> <v> <weight> <cost>")
            pair = _parse_pair(line_no, n, args[0], args[1])
            if pair in seen:
                raise FormatError(line_no, f"pair {pair} already listed on line {seen[pair]}")
            seen[pair] = line_no
            w = _parse_int(line_no, args[2], "weight")
            c = _parse_int(line_no, args[3], "cost")
            nonedge_values[pair] = (w, c)
        else:
            raise FormatError(line_no, f"unknown directive {kind!r}")

    if n is None:
        raise FormatError(1, "missing 'n' line")
    if budget is None:
        raise FormatError(1, "missing 'B' line")

    weight_overrides: dict[Pair, int] = dict(edge_weights)
    cost_overrides: dict[Pair, int] = {}
    for pair, (w, c) in nonedge_values.items():
        weight_overrides[pair] = w
        cost_overrides[pair] = c

    return WeightedInstance(
        n=n,
        edges=frozenset(edge_weights),
        weight=PairTable(default=default_weight, overrides=weight_overrides),
        cost=PairTable(default=default_cost, overrides=cost_overrides),
        budget=budget,
    )


def _edge_lines(instance: WeightedInstance) -> list[str]:
    """One ``edge`` line per edge, sorted, with the exact weight from the table.

    The edges come from the dense view's mask, which holds them in sorted
    order when every edge is a normalized pair in range; otherwise they are
    sorted as given. A weight is read from the table where the view's entry
    may not be exact: saturated at ±INF64, or a pair a partial table misses.
    """
    dense, table = instance.dense, instance.weight
    rows, cols = np.nonzero(np.triu(dense.edge, 1))
    if len(rows) != len(instance.edges):
        return [f"edge {u} {v} {table.get(u, v)}" for u, v in sorted(instance.edges)]
    weights = dense.weight[rows, cols]
    exact = np.abs(weights) < INF64
    if table.default is None:
        exact &= dense.weight_listed[rows, cols]
    return [
        f"edge {u} {v} {w if ok else table.get(u, v)}"
        for u, v, w, ok in zip(rows.tolist(), cols.tolist(), weights.tolist(), exact.tolist())
    ]


def serialize_instance(instance: WeightedInstance) -> str:
    """Canonical instance text: sorted lines, minimal non-edge overrides.

    Parsing the result reproduces the instance, and equal instances
    serialize to identical bytes, so the output doubles as a digest input
    and as golden-file material. Only a non-edge that one of the tables
    lists can differ from the defaults, so only those are compared (every
    non-edge when there are no defaults); printed values come from the
    tables, exact at any size.
    """
    lines = [f"n {instance.n}", f"B {instance.budget}"]
    dw, dc = instance.weight.default, instance.cost.default
    if dw is not None or dc is not None:
        if dw is None or dc is None:
            raise ValueError("cannot serialize: only one of the default weight/cost is set")
        lines.append(f"default_nonedge weight {dw} cost {dc}")
    lines += _edge_lines(instance)
    dense = instance.dense
    listed = ~dense.edge if dw is None else (dense.weight_listed | dense.cost_listed) & ~dense.edge
    for u, v in zip(*(index.tolist() for index in np.nonzero(np.triu(listed, 1)))):
        w = instance.weight.get(u, v)
        c = instance.cost.get(u, v)
        if w != dw or c != dc:
            lines.append(f"nonedge {u} {v} {w} {c}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> tuple[list[Pair], int, Dist]:
    """Parse a solution file into (added pairs, claimed cost, claimed diameter)."""
    added: list[Pair] = []
    cost: int | None = None
    diam: Dist | None = None
    for line_no, tokens in _tokenized_lines(text):
        kind, args = tokens[0], tokens[1:]
        if kind == "add":
            if len(args) != 2:
                raise FormatError(line_no, "expected: add <u> <v>")
            u = _parse_int(line_no, args[0], "vertex")
            v = _parse_int(line_no, args[1], "vertex")
            if u == v:
                raise FormatError(line_no, f"self-loop ({u}, {v}) is not allowed")
            added.append(ordered_pair(u, v))
        elif kind == "cost":
            if len(args) != 1:
                raise FormatError(line_no, "expected: cost <total>")
            cost = _parse_int(line_no, args[0], "cost")
        elif kind == "diameter":
            if len(args) != 1:
                raise FormatError(line_no, "expected: diameter <value|inf>")
            diam = INF if args[0] == "inf" else _parse_int(line_no, args[0], "diameter")
        else:
            raise FormatError(line_no, f"unknown directive {kind!r}")
    if cost is None:
        raise FormatError(1, "missing 'cost' line")
    if diam is None:
        raise FormatError(1, "missing 'diameter' line")
    return added, cost, diam


def serialize_solution(augmentation: Augmentation) -> str:
    lines = [f"add {u} {v}" for u, v in sorted(augmentation.added)]
    lines.append(f"cost {augmentation.total_cost}")
    d = augmentation.diameter
    lines.append(f"diameter {'inf' if d == INF else d}")
    return "\n".join(lines) + "\n"
