"""Benchmark of ``diamaug solve``: time, quality and failures per workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload fpt-wide --seed 1 --seconds 40 --trace 0

The run generates the workload's instances from ``--seed``, writes them to
instance files, and then drives ``diamaug solve`` in-process through
``diamaug.cli.run`` (parse, validate, solve, JSON report, solution file), one
solve at a time in a closed loop with a single client, for ``--seconds``.
Every output is checked afterwards, outside the timed loop, and a guarantee
spot-check against the exact optimum and a self-test of the checker run too.

With ``--trace 0`` the result carries the end-to-end metrics:

* ``solve_s_p50``, ``solve_s_p90``: wall time of one ``diamaug solve``;
* ``solves_per_s``: solves completed over the timed loop's wall time;
* ``setup_s``: import time plus the median of three repetitions of
  generating and writing every instance and one warm-up solve;
* ``peak_rss_mb``: the process's peak resident set size;
* ``diameter_ratio``: mean over jobs of augmented over bare diameter, for
  instances with a finite bare diameter (deterministic for a seed).

``solve_s_p50`` and the failure fraction are printed on the lines before
the result but left out of it: the failure fraction is 0 on a correct run
(the result's ``failed`` and ``attempted`` carry it), and the median flips
between a host's speed states (see ``perfbench/baseline.json``). With ``--trace 1`` solves alternate between untraced
and traced, and the result carries per-layer self times and counters
averaged per traced solve, plus the tracing overhead (traced minus untraced
median solve time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the failure fraction and the environment.
Instance and solution files live under ``.perfbench-work/`` and are removed
at the end; a traced run leaves its spans there as JSON lines.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checker  # noqa: E402
import selftest  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import RATIO_BOUND, WORKLOADS, Workload, derived_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"

# Set-up is repeated and its median reported, so one slow repetition does
# not decide the figure.
SETUP_REPEATS = 3

# Tiny instances for the guarantee spot-check: small enough for the exact
# oracle's guards (at most 28 non-edges).
SPOT_INSTANCES = 3
SPOT_SIZES = (6, 7)
SPOT_BUDGET = 2


@dataclass(frozen=True)
class Job:
    index: int
    instance: int
    algo: str
    path: Path


@dataclass
class Solve:
    job: Job
    seconds: float
    code: int | None
    report: str
    solution: str | None
    error: str
    traced: bool = False


class Runner:
    """Runs ``diamaug solve`` in-process on one job and captures its outputs."""

    def __init__(self, cli, workdir: Path, tracer=None):
        self.cli = cli
        self.workdir = workdir
        self.tracer = tracer
        self.traced_run = tracer.wrap("cli.run", cli.run) if tracer else None

    def solve(self, job: Job, traced: bool = False) -> Solve:
        solution_path = self.workdir / f"job{job.index}.sol"
        solution_path.unlink(missing_ok=True)
        argv = ["solve", "--input", str(job.path), "--algo", job.algo, "--report", "json",
                "--solution", str(solution_path)]
        run = self.traced_run if traced else self.cli.run
        tracing = self.tracer.installed() if traced else contextlib.nullcontext()
        out, err = io.StringIO(), io.StringIO()
        code, error = None, ""
        with tracing:
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(argv)
            except Exception as exc:  # a raising solve is a counted failure, not a crash
                error = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        solution = solution_path.read_text(encoding="utf-8") if solution_path.exists() else None
        return Solve(job, seconds, code, out.getvalue(), solution, error or err.getvalue(),
                     traced)


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def write_instances(workload: Workload, seed: int, workdir: Path, diamaug) -> list[str]:
    texts = []
    for i in range(workload.instances):
        text = diamaug.serialize_instance(workload.instance(seed, i, diamaug.gen_random))
        (workdir / f"instance{i}.txt").write_text(text, encoding="utf-8")
        texts.append(text)
    return texts


def check_solves(solves: list[Solve], graphs, bare) -> tuple[list[list[str]], dict]:
    """Problems per solve, and the reference output of each job.

    Each distinct output is checked once; a later solve of the same job must
    repeat the first solve's output byte for byte.
    """
    verdicts: dict[tuple, list[str]] = {}
    reference: dict[int, tuple[str, str]] = {}
    problems = []
    for s in solves:
        if s.code != 0 or s.solution is None:
            problems.append([f"exit code {s.code}: {s.error.strip()}"])
            continue
        key = (s.job.index, s.report, s.solution)
        if key not in verdicts:
            verdicts[key] = checker.check_output(graphs[s.job.instance], s.job.algo, s.solution,
                                                 s.report, bare[s.job.instance])
        found = list(verdicts[key])
        if reference.setdefault(s.job.index, key[1:]) != key[1:]:
            found.append("output differs from an earlier solve of the same instance")
        problems.append(found)
    return problems, reference


def guarantee_spot_check(seed: int, workdir: Path, runner: Runner,
                         diamaug) -> tuple[int, list[str]]:
    """Each algorithm within its README ratio of OPT on tiny seeded instances."""
    problems: list[str] = []
    solves = 0
    for i in range(SPOT_INSTANCES):
        n = SPOT_SIZES[i % len(SPOT_SIZES)]
        for cmax, algos in ((2, ("fpt",)), (1, ("fpt", "pairs", "star", "mst"))):
            instance = diamaug.gen_random(n, 0.5, 3, cmax, SPOT_BUDGET,
                                          derived_seed("spot", cmax, seed, i))
            text = diamaug.serialize_instance(instance)
            path = workdir / f"spot{i}-{cmax}.txt"
            path.write_text(text, encoding="utf-8")
            graph = checker.parse_instance_text(text)
            bare = checker.floyd_warshall_diameter(graph)
            d_opt = diamaug.exact_optimum(instance).best_diameter
            for algo in algos:
                solves += 1
                s = runner.solve(Job(-1, -1, algo, path))
                label = f"spot {path.name} {algo}"
                if s.code != 0 or s.solution is None:
                    problems.append(f"{label}: exit code {s.code}: {s.error.strip()}")
                    continue
                found = checker.check_output(graph, algo, s.solution, s.report, bare)
                problems += [f"{label}: {p}" for p in found]
                bound = RATIO_BOUND[algo](SPOT_BUDGET)
                if not found and checker.parse_solution_text(s.solution)[2] > bound * d_opt:
                    problems.append(f"{label}: diameter above {bound} x OPT {d_opt}")
    return solves, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    src = ROOT / "src"
    if not (src / "diamaug" / "__init__.py").is_file():
        print(f"error: no diamaug sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import diamaug
    from diamaug import cli

    if Path(diamaug.__file__).resolve().parent != (src / "diamaug").resolve():
        print(f"error: imported diamaug from {diamaug.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = perf_counter() - PROCESS_START

    env = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "loadavg": os.getloadavg(),
    }
    workdir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = [
            Job(i * len(workload.algos) + a, i, algo, workdir / f"instance{i}.txt")
            for i in range(workload.instances)
            for a, algo in enumerate(workload.algos)
        ]
        tracer = Tracer() if args.trace else None
        runner = Runner(cli, workdir, tracer)

        # Set-up: generate and write every instance, then one warm-up solve.
        warmups: list[Solve] = []
        repeats = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            texts = write_instances(workload, args.seed, workdir, diamaug)
            warmups.append(runner.solve(jobs[0]))
            repeats.append(perf_counter() - start)
        setup_s = import_s + statistics.median(repeats)

        # Timed closed loop: one solve at a time, jobs in a fixed rotation.
        solves: list[Solve] = []
        loop_start = perf_counter()
        deadline = loop_start + args.seconds
        while perf_counter() < deadline:
            # Alternate traced and untraced solves, flipping the phase every
            # rotation so each job is solved both ways.
            traced = bool(args.trace) and (len(solves) + len(solves) // len(jobs)) % 2 == 1
            if traced:
                tracer.solve = len(solves)
            solves.append(runner.solve(jobs[len(solves) % len(jobs)], traced))
        loop_s = perf_counter() - loop_start

        # Untimed checks.
        graphs = [checker.parse_instance_text(t) for t in texts]
        bare = [checker.floyd_warshall_diameter(g) for g in graphs]
        problems, reference = check_solves(warmups + solves, graphs, bare)
        warmup_problems = [p for p in problems[:len(warmups)] if p]
        problems = problems[len(warmups):]
        failed = sum(1 for p in problems if p)
        spot_solves, spot_problems = guarantee_spot_check(args.seed, workdir, runner, diamaug)
        selftest_problems = selftest.run_all()
        correct = not (failed or warmup_problems or spot_problems or selftest_problems)
        outputs_digest = hashlib.sha256(
            json.dumps(sorted((job, out[1]) for job, out in reference.items())).encode("utf-8")
        ).hexdigest()[:16]

        ratios = []
        for job in jobs:
            if job.index in reference and math.isfinite(bare[job.instance]) and bare[job.instance] > 0:
                diameter = checker.parse_solution_text(reference[job.index][1])[2]
                ratios.append(diameter / bare[job.instance])

        info: dict[str, tuple[float, str]] = {}
        if args.trace:
            metrics = per_layer_metrics(tracer, solves, graphs)
            tracer.write(WORK / f"trace-{workload.name}-seed{args.seed}.jsonl")
        else:
            times = [s.seconds for s in solves]
            info["solve_s_p50"] = (statistics.median(times), "s")
            metrics = {
                "solve_s_p90": (percentile(times, 90), "s"),
                "solves_per_s": (len(solves) / loop_s, "1/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "diameter_ratio": (statistics.fmean(ratios) if ratios else math.nan, "ratio"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(env))
    print(f"solves {len(solves)} in {loop_s:.3f} s; setup repeats "
          + " ".join(f"{r:.4f}" for r in repeats) + f" s after import {import_s:.4f} s")
    info["failed_frac"] = (failed / max(len(solves), 1), "ratio")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"check: {failed} of {len(solves)} solves failed; guarantee spot-check "
          f"{len(spot_problems)} problems in {spot_solves} solves; checker self-test "
          f"{len(selftest_problems)} problems; solution files digest {outputs_digest}")
    shown = [f"solve {i} ({solves[i].job.algo} instance {solves[i].job.instance}): {'; '.join(p)}"
             for i, p in enumerate(problems) if p][:5]
    for line in shown + spot_problems[:5] + selftest_problems:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def per_layer_metrics(tracer, solves: list[Solve], graphs) -> dict[str, tuple[float, str]]:
    """Per-layer self times and counts per traced solve, and the tracing overhead."""
    traced = [s.seconds for s in solves if s.traced]
    untraced = [s.seconds for s in solves if not s.traced]
    arcs = [g.layered_arcs() for g in graphs]
    tracer.counts["budget_paths.layered_arcs"] = sum(arcs[s.job.instance] for s in solves if s.traced)
    layer = tracer.per_solve_metrics(len(traced))
    mean_traced = statistics.fmean(traced)
    layer["budget_paths.apsp_b_share"] = layer["budget_paths.apsp_b_s"] / mean_traced
    layer["fpt.height_table_share"] = layer["fpt.height_table_s"] / mean_traced
    layer["trace.solve_s_p50"] = statistics.median(traced)
    layer["trace.untraced_solve_s_p50"] = statistics.median(untraced)
    layer["trace.overhead_s"] = layer["trace.solve_s_p50"] - layer["trace.untraced_solve_s_p50"]
    return {name: (value, per_layer_unit(name)) for name, value in layer.items()}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s_" in name:
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
