"""Self-test of the benchmark itself (not of mgt). Run from the repository root:

    python3 taubench/selftest.py

It checks that
* the same seed gives the same op list and two seeds give different ones;
* a smoke-sized run of every workload passes, on the default seed (where the
  committed output digests are checked) and on another seed;
* two traced runs on one seed give identical per-layer counts;
* a traced metric whose function is gone reads ``absent`` instead of crashing;
* ``BENCHMARK.json`` lists exactly the metrics ``run.py`` prints.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SMOKE_OPS = {"corpus": 4, "ladder": 15, "minimize": 8, "cli": 7}
OTHER_SEED = 7
COUNT_UNITS = {"count", "rows", "bits"}


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--ops", str(SMOKE_OPS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload} seed {seed}: {lines[-2]}")
    return result


def check_op_lists() -> None:
    for name, wl in workloads.WORKLOADS.items():
        a, b, c = wl["build"](workloads.DEFAULT_SEED), wl["build"](workloads.DEFAULT_SEED), wl["build"](OTHER_SEED)
        assert run.digest(a) == run.digest(b), f"{name}: one seed gave two op lists"
        assert run.digest(a) != run.digest(c), f"{name}: two seeds gave the same op list"
        assert [op["id"] for op in a["ops"]] == [op["id"] for op in b["ops"]]


def check_runs() -> None:
    for name in workloads.WORKLOADS:
        _run(name, OTHER_SEED, 0)
        first = _run(name, workloads.DEFAULT_SEED, 1)
        second = _run(name, workloads.DEFAULT_SEED, 1)
        counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
        again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] in COUNT_UNITS}
        assert counts == again, f"{name}: per-layer counts differ between traced runs: " + str(
            {k: (counts[k], again.get(k)) for k in counts if counts[k] != again.get(k)})
        assert any(v for v in counts.values() if v != "absent"), f"{name}: no layer did any work"
        print(f"ok {name}: smoke runs pass, {len(counts)} per-layer counts repeat", flush=True)


def check_absent() -> None:
    import tracer
    from mgt import tau

    original = tau.deleted_apq
    del tau.deleted_apq
    try:
        tr = tracer.install(tracer.Tracer())
    finally:
        tau.deleted_apq = original
    traced = {"layers": {}, "bound": sorted(tr.bound),
              "ops": [{"id": "x", "norm": 1.0, "raw": 1.0, "ref": 0.006}]}
    values = run.layer_values(traced, [{"ops": traced["ops"]}])
    assert values["tau.deleted_apq_calls"][0] == "absent", values["tau.deleted_apq_calls"]
    assert values["tau.apq_identity_calls"][0] == 0


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == [m[0] for m in run.END_TO_END]
    per_layer = [m[0] for m in run.LAYER_METRICS] + [m[0] for m in run.BENCH_METRICS]
    assert [m["name"] for m in bench["per_layer"]] == per_layer
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def main() -> int:
    check_benchmark_json()
    check_op_lists()
    print("ok op lists: deterministic per seed, distinct across seeds", flush=True)
    check_runs()
    check_absent()
    print("ok absent: a missing function reads absent", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
