"""CLI outputs stay byte-identical: sha256 digests pinned in ``golden_outputs.json``.

Pinned jobs:

* ``solve --report json`` stdout and the solution file for every 4th job
  (instance, algorithm) of each perfbench workload at seed 1;
* ``bench --suite small --seed 7``;
* ``apsp``, ``apsp --source 0``, ``apsp --source <n-1> --beta <B>`` and
  ``cluster`` on instance 0 of each workload;
* ``exact`` on README's ``small.txt`` and ``hard.txt``;
* ``solve`` (``fpt``, and ``pairs`` on a unit-cost twin), ``apsp`` and
  ``cluster`` on instances with weights up to 2**20 and 2**40. Every
  workload instance has n·W below 2**14; these have n·W in [2**14, 2**30)
  and above 2**30, so they pin the wider distance dtypes.

Each of ``fpt``, ``pairs``, ``star``, ``mst`` and ``exact`` also runs twice
in one process on these files, and both runs must print and write the same
bytes.

A change that alters an output on purpose re-pins the file in the same
change, with ``python tests/test_golden_outputs.py``, and names the jobs
whose digests moved: the script prints each added, removed or changed job
before it writes the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_outputs.json"
WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"
SEED = 1
EVERY = 4
# (label, max_weight) of the wide-weight jobs: gen_random(40, 0.15, max_weight, cmax, 3, SEED).
WIDE_WEIGHTS = (("w2^20", 2**20), ("w2^40", 2**40))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _run(argv: list[str]) -> str:
    from diamaug.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(workdir: Path) -> dict[str, str]:
    """sha256 of every pinned output, keyed by job name."""
    from diamaug import gen_random, parse_instance, serialize_instance

    digests = {}
    for workload in _load_workloads().values():
        algos = workload.algos
        for job in range(0, workload.instances * len(algos), EVERY):
            i, algo = divmod(job, len(algos))
            path = workdir / f"{workload.name}-{i}.txt"
            if not path.exists():
                instance = workload.instance(SEED, i, gen_random)
                path.write_text(serialize_instance(instance), encoding="utf-8")
            solution = workdir / "job.sol"
            solution.unlink(missing_ok=True)
            report = _run(["solve", "--input", str(path), "--algo", algos[algo],
                           "--report", "json", "--solution", str(solution)])
            name = f"solve {workload.name} job {job} ({algos[algo]})"
            digests[f"{name} report"] = _sha(report)
            digests[f"{name} solution"] = _sha(solution.read_text(encoding="utf-8"))
        first = str(workdir / f"{workload.name}-0.txt")
        digests[f"apsp {workload.name} 0"] = _sha(_run(["apsp", "--input", first]))
        digests[f"apsp {workload.name} 0 source 0"] = _sha(
            _run(["apsp", "--input", first, "--source", "0"])
        )
        instance = parse_instance(Path(first).read_text(encoding="utf-8"))
        digests[f"apsp {workload.name} 0 source n-1 beta B"] = _sha(
            _run(["apsp", "--input", first, "--source", str(instance.n - 1),
                  "--beta", str(instance.budget)])
        )
        digests[f"cluster {workload.name} 0"] = _sha(_run(["cluster", "--input", first]))
    for label, max_weight in WIDE_WEIGHTS:
        for algo, cmax in (("fpt", 3), ("pairs", 1)):
            path = workdir / f"{label}-cmax{cmax}.txt"
            instance = gen_random(40, 0.15, max_weight, cmax, 3, SEED)
            path.write_text(serialize_instance(instance), encoding="utf-8")
            solution = workdir / "job.sol"
            solution.unlink(missing_ok=True)
            report = _run(["solve", "--input", str(path), "--algo", algo,
                           "--report", "json", "--solution", str(solution)])
            digests[f"solve {label} ({algo}) report"] = _sha(report)
            digests[f"solve {label} ({algo}) solution"] = _sha(solution.read_text(encoding="utf-8"))
        wide = str(workdir / f"{label}-cmax3.txt")
        digests[f"apsp {label}"] = _sha(_run(["apsp", "--input", wide]))
        digests[f"cluster {label}"] = _sha(_run(["cluster", "--input", wide]))
    digests["bench small 7"] = _sha(_run(["bench", "--suite", "small", "--seed", "7"]))
    small = str(workdir / "small.txt")
    _run(["gen", "random", "--n", "7", "--p", "0.4", "--wmax", "5", "--cmax", "2",
          "--budget", "2", "--seed", "7", "--output", small])
    digests["exact small.txt"] = _sha(_run(["exact", "--input", small]))
    sets, hard = workdir / "sets.txt", str(workdir / "hard.txt")
    sets.write_text("0\n0 1\n", encoding="utf-8")
    _run(["gen", "setcover", "--sets", str(sets), "--k", "1", "--output", hard])
    digests["exact hard.txt"] = _sha(_run(["exact", "--input", hard]))
    return digests


def moved_jobs(pinned: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Every job whose digest a re-pin adds, removes or changes, by name, with that verdict."""
    moved = []
    for name in sorted(pinned.keys() | digests.keys()):
        if name not in pinned:
            moved.append(f"added {name}")
        elif name not in digests:
            moved.append(f"removed {name}")
        elif pinned[name] != digests[name]:
            moved.append(f"changed {name}")
    return moved


def test_outputs_match_pinned_digests(tmp_path):
    pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert not moved_jobs(pinned, output_digests(tmp_path))


def test_solves_repeat_byte_identically_in_one_process(tmp_path):
    from diamaug import gen_random, serialize_instance

    workloads = _load_workloads()
    paths = {}
    for name in ("fpt-wide", "unit-mix"):
        paths[name] = tmp_path / f"{name}-0.txt"
        instance = workloads[name].instance(SEED, 0, gen_random)
        paths[name].write_text(serialize_instance(instance), encoding="utf-8")
    paths["small"] = tmp_path / "small.txt"  # the exact job's file
    _run(["gen", "random", "--n", "7", "--p", "0.4", "--wmax", "5", "--cmax", "2",
          "--budget", "2", "--seed", "7", "--output", str(paths["small"])])
    solution = tmp_path / "job.sol"
    for name, algo in [("fpt-wide", "fpt"), ("unit-mix", "pairs"), ("unit-mix", "star"),
                       ("unit-mix", "mst"), ("small", "exact")]:
        runs = []
        for _ in range(2):
            solution.unlink(missing_ok=True)
            report = _run(["solve", "--input", str(paths[name]), "--algo", algo,
                           "--report", "json", "--solution", str(solution)])
            runs.append((report.encode("utf-8"), solution.read_bytes()))
        assert runs[0] == runs[1], (name, algo)


def test_moved_jobs_names_each_verdict():
    pinned = {"a": "1", "b": "2", "c": "3"}
    assert moved_jobs(pinned, {"b": "2", "c": "4", "d": "5"}) == [
        "removed a",
        "changed c",
        "added d",
    ]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        digests = output_digests(Path(workdir))
    pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
    for line in moved_jobs(pinned, digests):
        print(line)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {len(digests)} digests in {GOLDEN_PATH}")
