"""Command-line front end.

Subcommands: solve, exact, check, apsp, cluster, gen, bench. Exit codes:
0 success, 1 invalid input (malformed file, vertex or budget flag outside
the instance, generator flag out of range, failed check, bound violation),
2 guard refusal (oracle too large, degenerate reduction).

All randomness enters through explicit ``--seed`` flags; repeated runs with
identical inputs produce byte-identical output. Wall-clock numbers never
appear in reports unless ``--timings`` is given.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from pathlib import Path
from typing import Sequence

from . import oracle, unit_cost
from .core import (
    INF,
    Augmentation,
    InstanceError,
    PairTable,
    WeightedInstance,
    augment,
    ensure_valid,
)
from .formats import (
    FormatError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .fpt import fpt_solve
from .budget_paths import apsp_b
from .clustering import greedy_centers
from .generators import (
    ReductionError,
    SetCoverInstance,
    gen_random,
    reduce_setcover,
    reduce_setcover_multicopy,
)
from .oracle import OracleLimitError
from .report import RunReport, instance_digest, render_dist

# README's Guarantees table: per algorithm, the cost spent and the diameter
# ratio to the optimum that it guarantees, as functions of the budget k.
GUARANTEES = {
    "fpt": (lambda k: k, lambda k: 4),
    "pairs": (lambda k: k * (k + 1) ** 2, lambda k: 3),
    "star": (lambda k: k * k, lambda k: 4),
    "mst": (lambda k: k, lambda k: 3 * k + 2),
}
# Scale-suite runs per budget; the median drops a first run's one-off costs.
SCALE_REPEATS = 3
# fpt_solve stages the scale suite prints, each the median over the repeats.
SCALE_STAGES = ("bounded_paths", "table", "reconstruct")


def _load_instance(path: str) -> WeightedInstance:
    text = Path(path).read_text(encoding="utf-8")
    instance = parse_instance(text)
    ensure_valid(instance)
    return instance


class FlagError(Exception):
    """A flag value the command cannot use: outside the instance, or rejected by gen_random."""


def _check_flag(flag: str, value: int | None, limit: int) -> None:
    if value is not None and not 0 <= value < limit:
        raise FlagError(f"{flag} {value} is outside 0..{limit - 1}")


def _gen_random(*args: float) -> WeightedInstance:
    """``gen_random(*args)`` on flag values, its argument checks raised as FlagError."""
    try:
        return gen_random(*args)
    except ValueError as exc:
        raise FlagError(str(exc)) from None


def _solve_one(
    instance: WeightedInstance, algo: str, first_center: int
) -> tuple[Augmentation, RunReport]:
    parameters: dict[str, int | str] = {"first_center": first_center}
    extras: dict[str, object] = {}
    timings = None
    start = time.perf_counter()
    if algo == "fpt":
        outcome = fpt_solve(instance, first_center)
        augmentation, timings = outcome.augmentation, outcome.timings
        extras = {"tree_height": outcome.tree_height, "cluster_radius": outcome.cluster_radius}
    elif algo == "exact":
        result = oracle.exact_optimum(instance)
        augmentation = augment(instance, result.best_added)
        parameters = {"explored": result.explored}
        extras = {"d_opt": result.best_diameter}
    elif algo in ("pairs", "star", "mst"):
        solver = {  # looked up per call, so a replaced unit_cost attribute is honoured
            "pairs": unit_cost.pairwise_centers,
            "star": unit_cost.star_centers,
            "mst": unit_cost.cluster_spanning_mst,
        }[algo]
        augmentation = solver(instance, first_center)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    timings = timings or {"solve": time.perf_counter() - start}
    report = RunReport(
        algorithm=algo,
        digest=instance_digest(instance),
        parameters=parameters,
        added=tuple(sorted(augmentation.added)),
        total_cost=augmentation.total_cost,
        diameter=augmentation.diameter,
        timings=timings,
        **extras,
    )
    return augmentation, report


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    _check_flag("--first", args.first, instance.n)
    augmentation, report = _solve_one(instance, args.algo, args.first)
    if args.report == "json":
        sys.stdout.write(report.to_json(include_timings=args.timings))
    else:
        sys.stdout.write(report.to_text(include_timings=args.timings))
    if args.solution:
        Path(args.solution).write_text(serialize_solution(augmentation), encoding="utf-8")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    added, claimed_cost, claimed_diameter = parse_solution(
        Path(args.solution).read_text(encoding="utf-8")
    )
    problems: list[str] = []
    seen = set()
    for u, v in added:
        if not (0 <= u < instance.n and 0 <= v < instance.n):
            problems.append(f"pair ({u}, {v}) is out of range")
        elif instance.is_edge(u, v):
            problems.append(f"pair ({u}, {v}) is already an edge")
        if (u, v) in seen:
            problems.append(f"pair ({u}, {v}) is listed twice")
        seen.add((u, v))
    if not problems:
        recomputed = augment(instance, added)
        if recomputed.total_cost != claimed_cost:
            problems.append(
                f"cost mismatch: claimed {claimed_cost}, recomputed {recomputed.total_cost}"
            )
        if recomputed.diameter != claimed_diameter:
            problems.append(
                f"diameter mismatch: claimed {render_dist(claimed_diameter)}, "
                f"recomputed {render_dist(recomputed.diameter)}"
            )
        if recomputed.total_cost > instance.budget:
            problems.append(
                f"budget exceeded: cost {recomputed.total_cost} > budget {instance.budget}"
            )
    if problems:
        for p in problems:
            print(f"check failed: {p}")
        return 1
    print(f"check ok: cost {claimed_cost}, diameter {render_dist(claimed_diameter)}")
    return 0


def _cmd_apsp(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    _check_flag("--source", args.source, instance.n)
    _check_flag("--beta", args.beta, instance.budget + 1)
    sources = range(instance.n) if args.source is None else (args.source,)
    betas = range(instance.budget + 1) if args.beta is None else (args.beta,)
    dists = apsp_b(instance, sources)
    for beta in betas:
        for u in sources:
            for v in range(instance.n):
                print(f"{beta} {u} {v} {render_dist(dists.get(beta, u, v))}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    _check_flag("--first", args.first, instance.n)
    clusters = greedy_centers(instance, args.first)
    print("centers " + " ".join(str(c) for c in clusters.centers))
    for v in range(instance.n):
        center = clusters.centers[clusters.assignment[v]]
        print(f"assign {v} {center} {render_dist(clusters.center_distances[v])}")
    print(f"radius {render_dist(clusters.radius)}")
    return 0


def _read_set_family(path: str) -> tuple[int, tuple[frozenset[int], ...]]:
    """Read one subset per line; the universe is 0..max element id."""
    sets: list[frozenset[int]] = []
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        body = raw.split("#", 1)[0].split()
        if not body:
            continue
        try:
            sets.append(frozenset(int(token) for token in body))
        except ValueError:
            raise FormatError(line_no, f"set elements must be integers: {raw!r}") from None
    if not sets:
        raise FormatError(1, "set family file lists no sets")
    universe_size = max(max(s) for s in sets) + 1
    return universe_size, tuple(sets)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "setcover":
        universe_size, sets = _read_set_family(args.sets)
        sc = SetCoverInstance(universe_size=universe_size, sets=sets, k=args.k)
        if args.copies is None:
            instance, _ = reduce_setcover(sc)
        else:
            instance, _ = reduce_setcover_multicopy(sc, args.copies)
    else:
        instance = _gen_random(args.n, args.p, args.wmax, args.cmax, args.budget, args.seed)
    text = serialize_instance(instance)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _bench_instances(seed: int) -> list[tuple[str, WeightedInstance]]:
    """Deterministic small suite: named fixtures plus seeded random instances."""
    named: list[tuple[str, WeightedInstance]] = []
    p4 = WeightedInstance(
        n=4,
        edges=frozenset({(0, 1), (1, 2), (2, 3)}),
        weight=PairTable(default=1),
        cost=PairTable(default=1),
        budget=1,
    )
    named.append(("path4", p4))
    cycle6 = WeightedInstance(
        n=6,
        edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}),
        weight=PairTable(default=1),
        cost=PairTable(default=1),
        budget=1,
    )
    named.append(("cycle6", cycle6))
    specs = [
        ("rand-w1", 5, 0.4, 3, 2, 2),
        ("rand-w2", 6, 0.5, 3, 2, 2),
        ("rand-w3", 7, 0.5, 2, 2, 3),
        ("rand-u1", 5, 0.4, 3, 1, 1),
        ("rand-u2", 6, 0.5, 3, 1, 2),
        ("rand-u3", 7, 0.6, 2, 1, 3),
    ]
    for offset, (name, n, p, wmax, cmax, budget) in enumerate(specs):
        named.append((name, gen_random(n, p, wmax, cmax, budget, seed + offset)))
    return named


def _is_unit_cost(instance: WeightedInstance) -> bool:
    try:
        unit_cost.ensure_unit_cost(instance)
    except InstanceError:
        return False
    return True


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.suite == "scale":
        return _bench_scale(args)
    violations = 0
    rows: list[str] = []
    for name, instance in _bench_instances(args.seed):
        d_opt = oracle.exact_optimum(instance).best_diameter
        algos = ["fpt"]
        if _is_unit_cost(instance):
            algos += ["pairs", "star", "mst"]
        for algo in algos:
            augmentation, _ = _solve_one(instance, algo, first_center=0)
            cost_bound, ratio_bound = GUARANTEES[algo]
            bound = ratio_bound(instance.budget)
            ok = (
                augmentation.diameter <= bound * d_opt
                and augmentation.total_cost <= cost_bound(instance.budget)
            )
            if not ok:
                violations += 1
            ratio = (
                f"{augmentation.diameter / d_opt:.4f}"
                if d_opt not in (0, INF) and augmentation.diameter != INF
                else "-"
            )
            rows.append(
                f"{name} {algo} cost={augmentation.total_cost} "
                f"diameter={render_dist(augmentation.diameter)} "
                f"d_opt={render_dist(d_opt)} ratio={ratio} bound={bound} "
                f"{'ok' if ok else 'VIOLATION'}"
            )
    for row in sorted(rows):
        print(row)
    print(f"bench: {len(rows)} rows, {violations} violations")
    return 1 if violations else 0


def _parse_budgets(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise FlagError(f"--budgets {raw} is not a comma-separated list of integers") from None


def _bench_scale(args: argparse.Namespace) -> int:
    budgets = _parse_budgets(args.budgets)
    timings: list[tuple[int, float]] = []
    for budget in budgets:
        instance = _gen_random(args.n, 0.15, 5, 3, budget, args.seed)
        runs = []
        for _ in range(SCALE_REPEATS):
            start = time.perf_counter()
            stages = fpt_solve(instance).timings
            runs.append((time.perf_counter() - start, *(stages[name] for name in SCALE_STAGES)))
        elapsed, *medians = (statistics.median(column) for column in zip(*runs))
        timings.append((budget, elapsed))
        stage_text = " ".join(f"{name}={value:.3f}" for name, value in zip(SCALE_STAGES, medians))
        print(f"n={args.n} budget={budget} seconds={elapsed:.3f} {stage_text}")
    for (b1, t1), (b2, t2) in zip(timings, timings[1:]):
        growth = t2 / t1 if t1 > 0 else float("inf")
        print(f"growth budget {b1} -> {b2}: x{growth:.2f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="diamaug",
        description="Budgeted diameter reduction by edge insertion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--input", required=True)
    solve.add_argument("--algo", default="fpt", choices=["fpt", "pairs", "star", "mst", "exact"])
    solve.add_argument("--first", type=int, default=0, help="first cluster center")
    solve.add_argument("--report", default="text", choices=["text", "json"])
    solve.add_argument("--timings", action="store_true", help="include wall-clock lines")
    solve.add_argument("--solution", help="also write a solution file here")
    solve.set_defaults(func=_cmd_solve)

    exact = sub.add_parser("exact", help="exhaustive optimum (size guards apply)")
    exact.add_argument("--input", required=True)
    exact.add_argument("--report", default="text", choices=["text", "json"])
    exact.add_argument("--timings", action="store_true")
    exact.add_argument("--solution", help="also write a solution file here")
    exact.set_defaults(func=_cmd_solve, algo="exact", first=0)

    check = sub.add_parser("check", help="verify a solution file against its instance")
    check.add_argument("--input", required=True)
    check.add_argument("--solution", required=True)
    check.set_defaults(func=_cmd_check)

    apsp = sub.add_parser("apsp", help="print the budget-bounded distance table")
    apsp.add_argument("--input", required=True)
    apsp.add_argument("--source", type=int, default=None)
    apsp.add_argument("--beta", type=int, default=None)
    apsp.set_defaults(func=_cmd_apsp)

    cluster = sub.add_parser("cluster", help="print greedy centers and assignment")
    cluster.add_argument("--input", required=True)
    cluster.add_argument("--first", type=int, default=0)
    cluster.set_defaults(func=_cmd_cluster)

    gen = sub.add_parser("gen", help="generate instance files")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_sc = gen_sub.add_parser("setcover", help="covering-problem reduction instance")
    gen_sc.add_argument("--sets", required=True, help="file with one subset per line")
    gen_sc.add_argument("--k", type=int, required=True)
    gen_sc.add_argument("--copies", type=int, default=None)
    gen_sc.add_argument("--output")
    gen_sc.set_defaults(func=_cmd_gen)
    gen_rand = gen_sub.add_parser("random", help="seeded random instance")
    gen_rand.add_argument("--n", type=int, required=True)
    gen_rand.add_argument("--p", type=float, required=True)
    gen_rand.add_argument("--wmax", type=int, required=True)
    gen_rand.add_argument("--cmax", type=int, required=True)
    gen_rand.add_argument("--budget", type=int, required=True)
    gen_rand.add_argument("--seed", type=int, required=True)
    gen_rand.add_argument("--output")
    gen_rand.set_defaults(func=_cmd_gen)

    bench = sub.add_parser("bench", help="quality/runtime tables over built-in suites")
    bench.add_argument("--suite", default="small", choices=["small", "scale"])
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--n", type=int, default=50, help="scale suite: vertex count")
    bench.add_argument(
        "--budgets", default="4,5,6,7,8", help="scale suite: comma-separated budgets"
    )
    bench.set_defaults(func=_cmd_bench)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv))
    try:
        return args.func(args)
    except (FormatError, InstanceError, FlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OracleLimitError, ReductionError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
