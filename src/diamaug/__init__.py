"""Budgeted graph diameter reduction by edge insertion.

Solvers insert non-edges of bounded total cost into a weighted graph to
shrink its diameter, with proven cost/quality guarantees; an exhaustive
exact optimum, instance generators, and a CLI round out the toolkit.
"""

from .budget_paths import (
    BoundedCostDistances,
    NoPathError,
    PathSource,
    PathWitness,
    apsp_b,
)
from .clustering import ClusterCenters, greedy_centers
from .core import (
    INF,
    Augmentation,
    Dist,
    InstanceError,
    Pair,
    PairTable,
    WeightedInstance,
    augment,
    diameter,
    ensure_valid,
    validate,
)
from .formats import (
    FormatError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .fpt import (
    CenterTree,
    FptOutcome,
    HeightTable,
    InfeasibleEntryError,
    fpt_solve,
    reconstruct_tree,
    solve_height_table,
)
from .generators import (
    ReductionError,
    ReductionLayout,
    SetCoverInstance,
    gen_random,
    reduce_setcover,
    reduce_setcover_multicopy,
)
from .oracle import ExactResult, OracleLimitError, exact_optimum
from .report import RunReport, instance_digest
from .unit_cost import (
    cluster_spanning_mst,
    ensure_unit_cost,
    pairwise_centers,
    star_centers,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "Augmentation",
    "BoundedCostDistances",
    "CenterTree",
    "ClusterCenters",
    "Dist",
    "ExactResult",
    "FormatError",
    "FptOutcome",
    "HeightTable",
    "InfeasibleEntryError",
    "InstanceError",
    "NoPathError",
    "OracleLimitError",
    "Pair",
    "PairTable",
    "PathSource",
    "PathWitness",
    "ReductionError",
    "ReductionLayout",
    "RunReport",
    "SetCoverInstance",
    "WeightedInstance",
    "apsp_b",
    "augment",
    "cluster_spanning_mst",
    "diameter",
    "ensure_unit_cost",
    "ensure_valid",
    "exact_optimum",
    "fpt_solve",
    "gen_random",
    "greedy_centers",
    "instance_digest",
    "parse_instance",
    "parse_solution",
    "pairwise_centers",
    "reconstruct_tree",
    "reduce_setcover",
    "reduce_setcover_multicopy",
    "serialize_instance",
    "serialize_solution",
    "solve_height_table",
    "star_centers",
    "validate",
]
