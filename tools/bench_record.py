"""Record one BENCH_<label>.json: parent/change pairs per workload, the machine and the verify digest.

Usage (from the repository root):

    python3 tools/bench_record.py --label LABEL PARENT [--workload NAME ...] [--pairs K]

PARENT is any commit (``HEAD`` gives A/A pairs); it is exported with ``git
archive`` into a temporary directory, and the change is this working tree.
Per workload (default: all of BENCHMARK.json's) it runs K pairs (default 10)
of untraced ``taubench/run.py --workload NAME --seed 1 --seconds T``, T being
``run_seconds``, each side with its own ``taubench/``, one run at a time. The
parent goes first in even pairs, so drift over a batch favours neither side.
Each workload entry holds:
- ``pairs``: which side ran ``first`` and, per side, the end-to-end metrics,
  the reference loop's raw median ms (``ref_median_ms``) and the ops' summed
  raw seconds (``raw_op_s``), which tell a busy machine from a quiet one;
- ``summary``: per metric, the change's wins (strictly better in the metric's
  direction; a tie counts for neither side), both medians and the parent's
  quartiles (``statistics.quantiles``, n=4); a gain is ``resolved`` when the
  gap between the medians exceeds the parent's interquartile range;
- ``metrics`` (median, runs, unit), ``attempted``, ``failed``,
  ``ref_median_ms`` and ``raw_op_s`` over the change side's K runs.

It runs the parent's ``mgt verify --random --seed 1 --count 200 --json`` once,
and the change's 5 times; the ``verify`` entry holds the change's median wall,
status counts and the sha256 of its output, which must not vary, beside the
parent's sha256 (``parent_sha256``) and whether the two are equal (``same``),
so the record alone shows whether a change moved a number. On the change alone
it then records the median wall of 5 runs each of the Tier-1 command, of
``python -c "import mgt.cli"`` and of a cold ``python -m mgt.cli tau`` on K4,
the ``kernel_digest`` that ``tools/kernel_digest.py`` prints with its input
count, and ``lines``: each ``src/mgt/*.py`` and ``tests/*.py`` file's line
count as ``wc -l`` counts it. Last, ``mutants`` holds what
``tools/mutants.py HEAD`` reports: the rows of its table, how many the tests
kill, and the survivors, so the kill run is recorded rather than run by hand
(it exits 1 when a row survives). Any other run that exits non-zero stops the
record with one line that holds its stderr tail. Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter
from importlib.metadata import PackageNotFoundError, version

from mutants import MUTANTS

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


def _run(argv: list[str], cwd: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """One run, which must exit 0; otherwise the record stops with its stderr tail."""
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
    if done.returncode != 0:
        tail = done.stderr.decode(errors="replace")[-500:]
        raise SystemExit(f"{cwd}: {' '.join(argv[1:])} exited {done.returncode}: {tail}")
    return done


def _git(*args: str) -> bytes:
    return _run(["git", *args], ROOT).stdout


def _workload(root: str, bench: dict, name: str) -> tuple[dict, dict]:
    """One untraced run in ``root``: its result line (the last) and its diagnostics."""
    argv = [sys.executable, *bench["command"][1:], "--workload", name, "--seed", str(SEED),
            "--seconds", str(bench["run_seconds"])]
    *_, detail, result = _run(argv, root).stdout.decode().strip().splitlines()
    return json.loads(result), json.loads(detail)["detail"]


def _summary(pairs: list[dict], metric: str, better: str) -> dict:
    parent = [pair["parent"][metric] for pair in pairs]
    change = [pair["change"][metric] for pair in pairs]
    sign = 1 if better == "higher" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"better": better, "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs), "parent_median": p_med, "change_median": c_med,
            "change_over_parent": c_med / p_med if p_med else None,
            "parent_q1": q1, "parent_q3": q3, "resolved": abs(c_med - p_med) > q3 - q1}


def _pairs(sides: dict, bench: dict, name: str, count: int) -> dict:
    """One workload's entry: ``count`` alternating pairs and the change side's runs."""
    pairs, results = [], []
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            result, detail = _workload(sides[side], bench, name)
            pair[side] = {**{k: m["value"] for k, m in result["metrics"].items()},
                          "ref_median_ms": detail["ref_median_ms"], "raw_op_s": detail["raw_op_s"]}
            if side == "change":
                results.append(result)
        pairs.append(pair)
        shown = {side: {k: round(v, 3) for k, v in pair[side].items()} for side in sides}
        print(f"{name} pair {i + 1}/{count} ({order[0]} first): {shown}", file=sys.stderr)
    metrics = results[0]["metrics"]
    change = {k: [pair["change"][k] for pair in pairs] for k in pairs[0]["change"]}
    better = {metric["name"]: metric["better"] for metric in bench["end_to_end"]}
    return {"seed": SEED, "seconds": bench["run_seconds"], "pairs": pairs,
            "metrics": {k: {"median": statistics.median(change[k]), "runs": change[k], "unit": m["unit"]}
                        for k, m in metrics.items()},
            "summary": {k: _summary(pairs, k, better[k]) for k in metrics},
            "attempted": [result["attempted"] for result in results],
            "failed": [result["failed"] for result in results],
            "ref_median_ms": change["ref_median_ms"], "raw_op_s": change["raw_op_s"]}


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


def _timed(argv: list[str], root: str = ROOT) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time and the finished run, from ``root`` with its src on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    done = _run(argv, root, env)
    return time.perf_counter() - start, done


def _verify_entry(walls: list[float], outputs: list[bytes], parent_output: bytes) -> dict:
    """The record's ``verify`` entry: the change's runs (walls and outputs) against the parent's output."""
    digests = {hashlib.sha256(out).hexdigest() for out in outputs}
    if len(digests) != 1:
        raise SystemExit(f"verify output differs between runs: {sorted(digests)}")
    sha256, parent_sha256 = digests.pop(), hashlib.sha256(parent_output).hexdigest()
    statuses = Counter(result["status"] for result in json.loads(outputs[0]))
    return {"argv": ["mgt", *VERIFY], "wall_s_median": statistics.median(walls), "wall_s_runs": walls,
            "sha256": sha256, "statuses": dict(statuses), "parent_sha256": parent_sha256,
            "same": sha256 == parent_sha256}


def _mutants_entry(stdout: bytes, commit: str) -> dict:
    """The record's ``mutants`` block, from the survivor list that ``tools/mutants.py`` prints."""
    survivors = json.loads(stdout)
    return {"argv": ["python", "tools/mutants.py", "HEAD"], "commit": commit, "total": len(MUTANTS),
            "killed": len(MUTANTS) - len(survivors), "survivors": survivors}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [entry["name"] for entry in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("parent", metavar="PARENT")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commit = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()

    with tempfile.TemporaryDirectory(prefix="bench_record.") as tmp:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
            tar.extractall(tmp, filter="data")
        sides = {"parent": tmp, "change": ROOT}
        workloads = {name: _pairs(sides, bench, name, args.pairs) for name in args.workload or names}
        parent_verify = _timed([sys.executable, "-m", "mgt.cli", *VERIFY], tmp)[1].stdout

    runs = [_timed([sys.executable, "-m", "mgt.cli", *VERIFY]) for _ in range(RUNS)]
    verify = _verify_entry([wall for wall, _ in runs], [done.stdout for _, done in runs], parent_verify)
    timed = {}
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "k4.txt")
        with open(graph, "w") as fh:
            fh.write(K4_TEXT)
        for name, argv in TIMED.items():
            runs = [_timed([a.replace("{graph}", graph) for a in argv])[0] for _ in range(RUNS)]
            timed[name] = {"argv": ["python", *argv[1:]], "wall_s_median": statistics.median(runs),
                           "wall_s_runs": runs}

    done = _run([sys.executable, os.path.join(ROOT, "tools", "kernel_digest.py")], ROOT)
    kernel = {"argv": ["python", "tools/kernel_digest.py"], "sha256": done.stdout.decode().strip(),
              "inputs": int(done.stderr.split()[0])}
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "mutants.py"), "HEAD"], cwd=ROOT,
                          capture_output=True)
    if done.returncode not in (0, 1):
        raise SystemExit(f"tools/mutants.py exited {done.returncode}: "
                         f"{done.stderr.decode(errors='replace')[-500:]}")
    mutants = _mutants_entry(done.stdout, _git("rev-parse", "HEAD").decode().strip())

    record = {
        "label": args.label,
        "parent": commit,
        "change": "working tree at " + _git("rev-parse", "HEAD").decode().strip(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": _numpy_version(), "platform": platform.platform()},
        "workloads": workloads,
        "verify": verify,
        **timed,
        "kernel_digest": kernel,
        "lines": _line_counts(),
        "mutants": mutants,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
