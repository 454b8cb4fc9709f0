"""Record one BENCH_<label>.json: the machine, timing medians and the verify digest.

Usage (from the repository root):

    python3 tools/bench_record.py --label LABEL

Runs every workload that BENCHMARK.json declares, untraced, at seed 1 and for
its ``run_seconds``, 5 times one after another (never two at once) and keeps
each end-to-end metric's median and its runs. With them go each run's machine
speed from the diagnostics line before the result: the reference loop's raw
median ms (``ref_median_ms``) and the ops' summed raw seconds, unnormalized
(``raw_op_s``), so records made on a busier or quieter machine can be told
apart. Then runs ``mgt verify --random --seed 1 --count 200 --json`` 5 times
and records its median wall time, the pass/skip/fail counts and the sha256 of
its output, which must be the same on every run. Last, the median wall time of
5 runs each of the Tier-1 test command, of ``python -c "import mgt.cli"`` and of
a cold ``python -m mgt.cli tau`` on K4 (parser, dispatch and output as well as
the imports), with the graph file in a temporary directory. The
``kernel_digest`` block holds the sha256 that ``tools/kernel_digest.py``
prints over the Green integers of every factorization in the seed-1
``corpus`` and ``ladder`` op lists, and how many there were. The ``lines``
block holds the line count of each ``src/mgt/*.py`` and ``tests/*.py`` file
and their totals, as ``wc -l`` counts them.
Standard library only; writes BENCH_<label>.json in the repository root.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib.metadata import PackageNotFoundError, version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
RUNS = 5
VERIFY = ["verify", "--random", "--seed", str(SEED), "--count", "200", "--json"]
TIMED = {  # name -> argv, each run from the root with src on PYTHONPATH; {graph} is K4_TEXT's file
    "tier1": [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
    "import_cli": [sys.executable, "-c", "import mgt.cli"],
    "cli_tau": [sys.executable, "-m", "mgt.cli", "tau", "{graph}"],
}
K4_TEXT = "v 4\ne 0 1 1\ne 0 2 1\ne 0 3 1\ne 1 2 1\ne 1 3 1\ne 2 3 1\n"


def _numpy_version() -> str:
    try:
        return version("numpy")
    except PackageNotFoundError:
        return "absent"


def _workload(command: list[str], name: str, seconds: int) -> tuple[dict, dict]:
    """One untraced run: the result object on the last line of stdout and the
    diagnostics on the line before it."""
    argv = [sys.executable, *command[1:], "--workload", name, "--seed", str(SEED),
            "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    *_, detail, result = out.strip().splitlines()
    return json.loads(result), json.loads(detail)["detail"]


def _line_counts() -> dict:
    """Per folder, the newline count of each ``*.py`` file in it and their total."""
    counts = {}
    for folder in ("src/mgt", "tests"):
        files = {}
        for path in sorted(glob.glob(os.path.join(ROOT, folder, "*.py"))):
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = fh.read().count(b"\n")
        counts[folder] = {"total": sum(files.values()), "files": files}
    return counts


def _timed(argv: list[str]) -> tuple[float, bytes]:
    """Wall time and stdout of one run, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{argv[1:]} exited {done.returncode}: {done.stderr.decode()[-500:]}")
    return wall, done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    workloads = {}
    for entry in bench["workloads"]:
        name = entry["name"]
        runs, details = [], []
        for i in range(RUNS):
            run, detail = _workload(bench["command"], name, seconds)
            runs.append(run)
            details.append(detail)
            print(f"{name} run {i + 1}/{RUNS}", file=sys.stderr)
        metrics = {}
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            metrics[metric] = {"median": statistics.median(values), "runs": values,
                               "unit": runs[0]["metrics"][metric]["unit"]}
        workloads[name] = {"seed": SEED, "seconds": seconds, "metrics": metrics,
                           "attempted": [run["attempted"] for run in runs],
                           "failed": [run["failed"] for run in runs],
                           "ref_median_ms": [d["ref_median_ms"] for d in details],
                           "raw_op_s": [d["raw_op_s"] for d in details]}

    walls, digests = [], set()
    for _ in range(RUNS):
        wall, out = _timed([sys.executable, "-m", "mgt.cli", *VERIFY])
        walls.append(wall)
        digests.add(hashlib.sha256(out).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"verify output differs between runs: {sorted(digests)}")
    statuses = Counter(result["status"] for result in json.loads(out))
    timed = {}
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "k4.txt")
        with open(graph, "w") as fh:
            fh.write(K4_TEXT)
        for name, argv in TIMED.items():
            runs = [_timed([a.replace("{graph}", graph) for a in argv])[0] for _ in range(RUNS)]
            timed[name] = {"argv": ["python", *argv[1:]], "wall_s_median": statistics.median(runs),
                           "wall_s_runs": runs}

    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "kernel_digest.py")],
                          cwd=ROOT, check=True, capture_output=True, text=True)
    kernel = {"argv": ["python", "tools/kernel_digest.py"], "sha256": done.stdout.strip(),
              "inputs": int(done.stderr.split()[0])}

    record = {
        "label": args.label,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": _numpy_version(), "platform": platform.platform()},
        "workloads": workloads,
        "verify": {"argv": ["mgt", *VERIFY], "wall_s_median": statistics.median(walls),
                   "wall_s_runs": walls, "sha256": digests.pop(), "statuses": dict(statuses)},
        **timed,
        "kernel_digest": kernel,
        "lines": _line_counts(),
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
