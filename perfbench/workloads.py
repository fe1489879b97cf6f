"""Benchmark workloads: the instance shapes each workload solves, and why.

Every instance comes from ``gen_random(n, p, wmax=5, cmax, B, seed)`` with a
seed derived from the workload name, the benchmark ``--seed`` and the
instance index, so the same seed always gives the same instance files. The
covering-reduction generator is deliberately absent: its construction is
due to change, and inputs built on it would shift under later changes.

``gen_random`` draws one default insertion cost per instance. On
``fpt-wide`` that draw alone moves a solve's time by about 1.4x between
cost 1 and cost 3, since a cheaper default puts more jump arcs in every
layered search. Instances are therefore stratified: instance ``i`` is the
first seeded draw whose default cost is ``1 + i % cmax``, so each cost
keeps its expected share of 1/cmax and the seed moves only the graphs.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass

MAX_WEIGHT = 5

# Cost bound of each algorithm's answer, as a function of the budget B (= k).
COST_BOUND = {
    "fpt": lambda b: b,
    "mst": lambda b: b,
    "star": lambda b: b * b,
    "pairs": lambda b: b * (b + 1) ** 2,
}

# Diameter guarantee relative to the optimum (README's table).
RATIO_BOUND = {
    "fpt": lambda b: 4,
    "pairs": lambda b: 3,
    "star": lambda b: 4,
    "mst": lambda b: 3 * b + 2,
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: float
    cmax: int
    budget: int
    algos: tuple[str, ...]
    instances: int
    why: str

    def instance(self, seed: int, i: int, gen_random):
        """Instance ``i`` of this workload for ``seed`` (see the module docstring)."""
        cost = 1 + i % self.cmax
        for attempt in itertools.count():
            instance = gen_random(self.n, self.p, MAX_WEIGHT, self.cmax, self.budget,
                                  derived_seed(self.name, seed, i, attempt))
            if instance.cost.default == cost:
                return instance


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fpt-wide",
            n=64,
            p=0.15,
            cmax=3,
            budget=3,
            algos=("fpt",),
            instances=48,
            why="fpt, n=64 p=0.15 cmax=3 B=3: most solve time is the all-sources "
            "bounded-cost table apsp_b, so a faster table shows here; the DP is idle",
        ),
        Workload(
            name="fpt-deep",
            n=24,
            p=0.25,
            cmax=3,
            budget=5,
            algos=("fpt",),
            instances=72,
            why="fpt, n=24 p=0.25 cmax=3 B=5: the 3^B subset DP dominates, so a DP "
            "change shows here, and a table that wins on wide graphs must not lose",
        ),
        Workload(
            name="unit-mix",
            n=120,
            p=0.10,
            cmax=1,
            budget=3,
            algos=("pairs", "star", "mst"),
            instances=24,
            why="pairs/star/mst in turn, n=120 p=0.10 unit costs B=3: single-source "
            "witness searches, centers, diameter and parse at large n; no table or DP",
        ),
    )
}


def derived_seed(*parts: object) -> int:
    """A stable 32-bit seed from its parts (``hash`` is salted per process)."""
    return zlib.crc32("/".join(str(p) for p in parts).encode("utf-8"))
