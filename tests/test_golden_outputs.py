"""CLI outputs stay byte-identical: sha256 digests pinned in ``golden_outputs.json``.

Pinned jobs:

* ``solve --report json`` stdout and the solution file for every 4th job
  (instance, algorithm) of each perfbench workload at seed 1;
* ``bench --suite small --seed 7``;
* ``apsp`` and ``cluster`` on instance 0 of each workload;
* ``exact`` on README's ``small.txt``.

A change that alters an output on purpose re-pins the file in the same
change, with ``python tests/test_golden_outputs.py``, and names the jobs
whose digests moved.
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
    from diamaug import gen_random, serialize_instance

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
        digests[f"cluster {workload.name} 0"] = _sha(_run(["cluster", "--input", first]))
    digests["bench small 7"] = _sha(_run(["bench", "--suite", "small", "--seed", "7"]))
    small = str(workdir / "small.txt")
    _run(["gen", "random", "--n", "7", "--p", "0.4", "--wmax", "5", "--cmax", "2",
          "--budget", "2", "--seed", "7", "--output", small])
    digests["exact small.txt"] = _sha(_run(["exact", "--input", small]))
    return digests


def test_outputs_match_pinned_digests(tmp_path):
    pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    digests = output_digests(tmp_path)
    assert digests.keys() == pinned.keys()
    changed = sorted(name for name in pinned if digests[name] != pinned[name])
    assert not changed, f"outputs changed: {changed}"


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        digests = output_digests(Path(workdir))
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {len(digests)} digests in {GOLDEN_PATH}")
