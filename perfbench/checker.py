"""Output checks for ``diamaug solve``, independent of the package's own code.

The instance and solution files are parsed here from their text, and
diameters are recomputed with a numpy Floyd–Warshall, so a defect in
``diamaug.core`` or ``diamaug.formats`` cannot hide itself from the check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from workloads import COST_BOUND

Pair = tuple[int, int]


@dataclass
class Graph:
    """An instance file as the checker reads it."""

    n: int
    budget: int
    edges: dict[Pair, int] = field(default_factory=dict)
    nonedges: dict[Pair, tuple[int, int]] = field(default_factory=dict)
    default_weight: int | None = None
    default_cost: int | None = None

    def nonedge_weight_cost(self, pair: Pair) -> tuple[int, int]:
        if pair in self.nonedges:
            return self.nonedges[pair]
        if self.default_weight is None or self.default_cost is None:
            raise ValueError(f"pair {pair} has no weight and cost")
        return self.default_weight, self.default_cost

    def layered_arcs(self) -> int:
        """Arcs one single-source layered search scans on this instance.

        (B+1)·2|E| in-layer arcs, 2·(B−c+1) jump arcs per non-edge of cost
        c ≤ B, and n·B zero-weight layer advances.
        """
        b = self.budget
        arcs = (b + 1) * 2 * len(self.edges) + self.n * b
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (u, v) not in self.edges:
                    c = self.nonedge_weight_cost((u, v))[1]
                    if c <= b:
                        arcs += 2 * (b - c + 1)
        return arcs


def parse_instance_text(text: str) -> Graph:
    graph: Graph | None = None
    header: dict[str, int] = {}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        if kind in ("n", "B"):
            header[kind] = int(args[0])
            if len(header) == 2:
                graph = Graph(n=header["n"], budget=header["B"])
            continue
        if graph is None:
            raise ValueError("instance lists pairs before its 'n' and 'B' lines")
        if kind == "default_nonedge":
            graph.default_weight, graph.default_cost = int(args[1]), int(args[3])
        elif kind == "edge":
            u, v, w = map(int, args)
            graph.edges[(min(u, v), max(u, v))] = w
        elif kind == "nonedge":
            u, v, w, c = map(int, args)
            graph.nonedges[(min(u, v), max(u, v))] = (w, c)
        else:
            raise ValueError(f"unknown instance line {raw!r}")
    if graph is None:
        raise ValueError("instance has no 'n' or 'B' line")
    return graph


def parse_solution_text(text: str) -> tuple[list[Pair], int, float]:
    """(added pairs as listed, claimed cost, claimed diameter with inf)."""
    added: list[Pair] = []
    cost: int | None = None
    diameter: float | None = None
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] == "add" and len(tokens) == 3:
            added.append((int(tokens[1]), int(tokens[2])))
        elif tokens[0] == "cost" and len(tokens) == 2:
            cost = int(tokens[1])
        elif tokens[0] == "diameter" and len(tokens) == 2:
            diameter = math.inf if tokens[1] == "inf" else int(tokens[1])
        else:
            raise ValueError(f"unknown solution line {raw!r}")
    if cost is None or diameter is None:
        raise ValueError("solution lacks a 'cost' or 'diameter' line")
    return added, cost, diameter


def floyd_warshall_diameter(graph: Graph, added: Iterable[Pair] = ()) -> float:
    """Diameter of the instance graph plus ``added``; inf when disconnected."""
    n = graph.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in graph.edges.items():
        d[u, v] = d[v, u] = min(d[u, v], w)
    for pair in added:
        w = graph.nonedge_weight_cost(pair)[0]
        u, v = pair
        d[u, v] = d[v, u] = min(d[u, v], w)
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return float(d.max()) if n else 0.0


def _render(value: float) -> str:
    return "inf" if value == math.inf else str(int(value))


def check_output(
    graph: Graph,
    algo: str,
    solution_text: str,
    report_text: str,
    bare_diameter: float,
) -> list[str]:
    """Problems with one solve's solution file and JSON report; [] when correct."""
    try:
        listed, claimed_cost, claimed_diameter = parse_solution_text(solution_text)
    except ValueError as exc:
        return [f"solution file does not parse: {exc}"]
    problems: list[str] = []
    pairs: set[Pair] = set()
    for u, v in listed:
        pair = (min(u, v), max(u, v))
        if u == v or not (0 <= u < graph.n and 0 <= v < graph.n):
            problems.append(f"pair ({u}, {v}) is not a pair of distinct vertices")
        elif pair in graph.edges:
            problems.append(f"pair {pair} is already an edge")
        elif pair in pairs:
            problems.append(f"pair {pair} is listed twice")
        pairs.add(pair)
    if problems:
        return problems

    added = sorted(pairs)
    cost = sum(graph.nonedge_weight_cost(p)[1] for p in added)
    if cost != claimed_cost:
        problems.append(f"cost mismatch: claimed {claimed_cost}, recomputed {cost}")
    bound = COST_BOUND[algo](graph.budget)
    if cost > bound:
        problems.append(f"cost {cost} exceeds the {algo} bound {bound}")
    diameter = floyd_warshall_diameter(graph, added)
    if diameter != claimed_diameter:
        problems.append(
            f"diameter mismatch: claimed {_render(claimed_diameter)}, "
            f"recomputed {_render(diameter)}"
        )
    if diameter > bare_diameter:
        problems.append(f"diameter {_render(diameter)} exceeds the bare {_render(bare_diameter)}")

    try:
        report = json.loads(report_text)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if report.get("algorithm") != algo:
        problems.append(f"report names algorithm {report.get('algorithm')!r}, not {algo!r}")
    if [tuple(p) for p in report.get("added", ())] != added:
        problems.append("report and solution file list different pairs")
    if report.get("cost") != claimed_cost:
        problems.append("report and solution file state different costs")
    if report.get("diameter") != _render(claimed_diameter):
        problems.append("report and solution file state different diameters")
    return problems
