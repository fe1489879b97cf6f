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
incomplete pair coverage is invalid. Numbers are read by Python's ``int``,
so ``+3`` and ``1_000`` are accepted. The pair lines are read into the
instance's arrays (see :mod:`diamaug.core`) with one conversion and checked
together; FormatError names the first line that fails.

Solution format: one ``add <u> <v>`` line per inserted pair (sorted), then
``cost <total>``, then ``diameter <value|inf>``.
"""

from __future__ import annotations

from itertools import chain, compress

import numpy as np

from .core import (
    INF,
    Augmentation,
    Dist,
    Pair,
    PairSet,
    PairTable,
    WeightedInstance,
    exact_array,
    ordered_pair,
    sorted_pairs,
)


class FormatError(ValueError):
    """Malformed instance or solution text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _tokenized_lines(text: str) -> list[list[str]]:
    """The tokens of every line, comments dropped; line ``i + 1`` is entry ``i``."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return [line.split() for line in lines]


def _parse_int(line_no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(line_no, f"{what} must be a decimal integer, got {token!r}") from None


def _check_pair_line(
    tokens: list[str], line_no: int, n: int, before_n: bool, seen: dict[Pair, int]
) -> None:
    """Raise FormatError at the first check a pair line fails; ``seen`` maps pairs to lines."""
    kind, *args = tokens
    if len(args) != (3 if kind == "edge" else 4):
        form = "edge <u> <v> <weight>" if kind == "edge" else "nonedge <u> <v> <weight> <cost>"
        raise FormatError(line_no, f"expected: {form}")
    u, v = (_parse_int(line_no, token, "vertex") for token in args[:2])
    if before_n:
        raise FormatError(line_no, "vertex pair listed before the 'n' line")
    if u == v:
        raise FormatError(line_no, f"self-loop ({u}, {v}) is not allowed")
    if not (0 <= u < n and 0 <= v < n):
        raise FormatError(line_no, f"vertex pair ({u}, {v}) out of range for n={n}")
    pair = ordered_pair(u, v)
    if pair in seen:
        raise FormatError(line_no, f"pair {pair} already listed on line {seen[pair]}")
    seen[pair] = line_no
    for token, what in zip(args[2:], ("weight", "cost")):
        _parse_int(line_no, token, what)


def _pair_arrays(
    lines: list[list[str]], edge_nos: list[int], nonedge_nos: list[int], n: int, n_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The pair lines' pairs (u < v, edges first), their weights and the non-edges' costs.

    ``edge_nos`` and ``nonedge_nos`` index ``lines``, and ``n_index`` is the
    ``n`` line's. One conversion reads the flattened tokens of each line
    kind, and the checks of :func:`_check_pair_line` run over all lines at
    once: None when one fails.
    """
    grids = []
    for indices, width in ((edge_nos, 4), (nonedge_nos, 5)):  # kind, u, v, weight[, cost]
        rows = list(map(lines.__getitem__, indices))
        if set(map(len, rows)) - {width}:  # a line with too few or too many tokens
            return None
        tokens = list(chain.from_iterable(rows))
        del tokens[::width]  # the kind tokens
        try:
            grids.append(exact_array(tokens).reshape(-1, width - 1))
        except ValueError:  # a token that is not an integer
            return None
    if min(edge_nos + nonedge_nos, default=n_index) < n_index:
        return None
    edge_grid, nonedge_grid = grids
    pairs = np.sort(np.concatenate([edge_grid[:, :2], nonedge_grid[:, :2]]), axis=1)
    lo, hi = pairs.T
    # keys of pairs in [0, n) are equal exactly for equal pairs; past n² ≥ 2**63, int64 would wrap
    keys = np.sort((lo.astype(object) if n * n >= 2**63 else lo) * n + hi)
    outside = len(lo) and (lo.min() < 0 or hi.max() >= n)
    if outside or (lo == hi).any() or (keys[1:] == keys[:-1]).any():
        return None
    return pairs, np.concatenate([edge_grid[:, 2], nonedge_grid[:, 2]]), nonedge_grid[:, 3]


def parse_instance(text: str) -> WeightedInstance:
    """Parse the instance format; raises FormatError with a line number.

    Directive lines are read up to the first that fails. When a pair line
    before it fails, the first is reported. The weight table lists every
    pair, edges first; the edges and the cost table are slices of it.
    """
    lines = _tokenized_lines(text)
    n: int | None = None
    n_index = len(lines)  # the 'n' line's index, past the end until one is read
    budget: int | None = None
    default_weight: int | None = None
    default_cost: int | None = None
    pairs: dict[str, list[int]] = {"edge": [], "nonedge": []}  # line indices
    failure: FormatError | None = None
    try:
        for i, tokens in enumerate(lines):
            if tokens and tokens[0] in pairs:
                pairs[tokens[0]].append(i)
                continue
            if not tokens:
                continue
            (kind, *args), line_no = tokens, i + 1
            if kind == "n":
                if n is not None:
                    raise FormatError(line_no, "duplicate 'n' line")
                if len(args) != 1:
                    raise FormatError(line_no, "expected: n <count>")
                n, n_index = _parse_int(line_no, args[0], "vertex count"), i
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
            else:
                raise FormatError(line_no, f"unknown directive {kind!r}")
    except FormatError as exc:  # a pair line before it may hold an earlier error
        failure = exc
    edges = pairs["edge"]
    listed = _pair_arrays(lines, edges, pairs["nonedge"], n or 0, n_index)
    if listed is None:
        seen: dict[Pair, int] = {}
        for i in sorted(edges + pairs["nonedge"]):
            _check_pair_line(lines[i], i + 1, n or 0, i < n_index, seen)
    if failure is not None:
        raise failure
    if n is None:
        raise FormatError(1, "missing 'n' line")
    if budget is None:
        raise FormatError(1, "missing 'B' line")

    pair_array, weights, costs = listed
    return WeightedInstance(
        n=n,
        edges=PairSet(pair_array[: len(edges)]),
        weight=PairTable.listed(default_weight, pair_array, weights),
        cost=PairTable.listed(default_cost, pair_array[len(edges) :], costs),
        budget=budget,
    )


def _lines(form: str, *columns: list) -> str:
    """``form`` once per row of ``columns`` (equal-length lists), by one ``%``."""
    flat: list = [None] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        flat[i :: len(columns)] = column
    return (form * len(columns[0])) % tuple(flat)


def serialize_instance(instance: WeightedInstance) -> str:
    """Canonical instance text: sorted lines, minimal non-edge overrides.

    Parsing the result reproduces every pair's weight and cost, and equal
    instances serialize to identical bytes, so the output doubles as a digest
    input and as golden-file material. With both defaults set, a
    ``default_nonedge`` line names them and only the non-edges the tables
    list are compared with them. When either default is missing that line is
    omitted and every non-edge is listed (the one scan over all pairs). Pairs
    come sorted by (u, v), values exact at any size. Edges outside [0, n) or
    not normalized, or listed twice, are printed as given, sorted.
    """
    n, weight, cost = instance.n, instance.weight, instance.cost
    text = f"n {n}\nB {instance.budget}\n"
    dw, dc = weight.default, cost.default
    defaults = dw is not None and dc is not None
    rows, cols = instance.non_edge_pairs(weight, cost) if defaults else instance.non_edge_pairs()
    if defaults:
        text += f"default_nonedge weight {dw} cost {dc}\n"
    edge_rows, edge_cols = sorted_pairs(n, instance.edges)
    if len(edge_rows) == len(instance.edges):
        weights = instance.weight_at(edge_rows, edge_cols).tolist()
        text += _lines("edge %d %d %d\n", edge_rows.tolist(), edge_cols.tolist(), weights)
    else:
        text += "".join(f"edge {u} {v} {weight.get(u, v)}\n" for u, v in sorted(instance.edges))
    try:
        weights = instance.weight_at(rows, cols).tolist()
        costs = instance.cost_at(rows, cols).tolist()
    except KeyError:  # name the first pair either table lacks, as a pair-by-pair read does
        for u, v in zip(rows.tolist(), cols.tolist()):
            weight.get(u, v), cost.get(u, v)
        raise
    kept = np.array([w != dw or c != dc for w, c in zip(weights, costs)], dtype=bool)
    values = (list(compress(weights, kept)), list(compress(costs, kept)))
    return text + _lines("nonedge %d %d %d %d\n", rows[kept].tolist(), cols[kept].tolist(), *values)


def parse_solution(text: str) -> tuple[list[Pair], int, Dist]:
    """Parse a solution file into (added pairs, claimed cost, claimed diameter)."""
    added: list[Pair] = []
    cost: int | None = None
    diam: Dist | None = None
    for line_no, tokens in enumerate(_tokenized_lines(text), start=1):
        if not tokens:
            continue
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
            if cost is not None:
                raise FormatError(line_no, "duplicate 'cost' line")
            if len(args) != 1:
                raise FormatError(line_no, "expected: cost <total>")
            cost = _parse_int(line_no, args[0], "cost")
        elif kind == "diameter":
            if diam is not None:
                raise FormatError(line_no, "duplicate 'diameter' line")
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
