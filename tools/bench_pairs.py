"""Alternating parent/change pairs of benchmark runs: each pair, the wins, both medians.

Usage (from the repository root):

    python3 tools/bench_pairs.py PARENT [--workload NAME ...] [--seed N] [--pairs K]

PARENT is any commit of this repository. Its committed files are exported
with ``git archive`` into a temporary directory, which is removed at the end;
the change is this checkout's working tree. For each workload (default: every
workload BENCHMARK.json declares) it runs K pairs (default 10). A pair is one
``taubench/run.py --workload NAME --seed N --seconds T`` on each side, T being
BENCHMARK.json's ``run_seconds``, one after the other and never two at once;
each side runs its own ``taubench/``. The parent goes first in even pairs and
the change in odd ones, so a machine that speeds up or slows down over a
batch favours neither side.

A progress line per pair goes to stderr. stdout gets one JSON object: per
workload, every pair's end-to-end metrics on both sides and which side ran
first, whether every run read ``correct: true`` and how many ops failed, and
per metric the change's wins (strictly better, in the metric's direction),
the median of each side and the parent's quartiles (``statistics.quantiles``,
n=4). A gain is resolved when the gap between the medians is larger than the
parent's interquartile range. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def _run(root: str, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """The result object of one untraced run: the last line of its stdout."""
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(argv[1:])} exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


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


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [entry["name"] for entry in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commit = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    better = {metric["name"]: metric["better"] for metric in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    out = {"parent": commit, "change": "working tree at " + _git("rev-parse", "HEAD").decode().strip(),
           "seed": args.seed, "seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
            tar.extractall(tmp)
        sides = {"parent": tmp, "change": ROOT}
        for workload in args.workload or names:
            pairs, correct, failed = [], True, 0
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    result = _run(sides[side], bench["command"], workload, args.seed, seconds)
                    correct &= result["correct"]
                    failed += result["failed"]
                    pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
                pairs.append(pair)
                shown = {side: {k: round(v, 3) for k, v in pair[side].items()} for side in sides}
                print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): {shown}", file=sys.stderr)
            out["workloads"][workload] = {
                "correct": correct, "failed": failed, "pairs": pairs,
                "metrics": {m: _summary(pairs, m, better[m]) for m in pairs[0]["parent"] if m in better}}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
