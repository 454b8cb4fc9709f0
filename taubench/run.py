"""Benchmark driver for mgt: fixed work, reference-normalized timing.

Usage (from the repository root):

    python3 taubench/run.py --workload corpus|ladder|minimize|cli
        [--seed N] [--seconds S] [--trace 0|1] [--ops K] [--record-digests]

The seed alone fixes the op list and its inputs. A run executes that list in
``passes`` fresh worker processes, one at a time, so every pass starts with
cold caches and every run does the same work. Each op is bracketed by a fixed
stdlib reference loop (``refloop.py``); its time is converted to seconds at
one fixed machine speed, ``raw * REF_NOMINAL / mean(adjacent reference
times)``, and the per-op figure is the median over passes. Raw seconds are
kept as ungated diagnostics: on a shared 2-core machine they swing by up to
2x within seconds, while the normalized figures hold.

With ``--trace 1`` one more pass runs with the tracer installed and the run
reports per-layer metrics instead of end-to-end ones. The last line of stdout
is the result object; the line before it holds the diagnostics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from refloop import REF_NOMINAL, machine_info, reference_seconds  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
WORKER_TIMEOUT = 150
MIN_PASSES = 3  # a median over passes needs at least three
SETUP_SAMPLES = 7  # set-up-only workers top the passes up to this many set-ups
TAIL_ABOVE = 10  # the tail percentile keeps at least this many samples above it

# (name, unit, better, bound): bound is the share of the parent's median by
# which a later change may worsen the metric before it counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.15),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

SUITE_IDS = (
    "eq1.1-voltage", "genus-identity", "canonical-measure-mass", "lem2term", "rem2term",
    "valence-independence", "scale-covariance", "thmjpq2njpq-n0..3", "lemorthogonality",
    "thmbasic", "thmremain-equivalences", "FMM1-bounds", "thmeqlength", "thmeqlength2",
    "thmcorineqsumR4", "thm2term", "thmdouble", "thmdoubledivision", "lemdivision1",
    "lemdivisione", "thmdoubleimp-implication", "thmmagnificent", "thmmaggen", "cormaggen1",
    "cormaggen2", "thm-smaller-tau-decrease", "thmtwopunion", "cor1twopunion",
    "cor2twopunion", "cor2twopunion2", "lemedgeext", "lemsuccessedgeext", "thmbasic2",
    "corbasic2", "lemcontract1", "lemcontract2", "coradding1", "coradding2",
    "thm-twopunion-Apq", "corlem-twopunion-Apq", "thm-twopunion2-tower", "corpropAcircle",
    "lemApq", "propAtree", "propAadditive", "propAbanana", "proplembanana",
    "coradd-bridge-contraction",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics():
    """(name, unit, better, keys the tracer must have bound, value from totals)."""
    def calls(key):
        return lambda t: t["calls"].get(key, 0)

    def self_s(layer):
        return lambda t: t["self_s"].get(layer, 0.0)

    def incl(key):
        return lambda t: t["incl_s"].get(key, 0.0)

    def stat(name):
        return lambda t: t["stats"].get(name, 0)

    def hit_ratio(*keys):
        return lambda t: _ratio(sum(t["hits"].get(k, 0) for k in keys),
                                sum(t["calls"].get(k, 0) for k in keys))

    fits = "integration.edge_tag_polynomials"
    rows = [
        ("linalg.s", "s", ("linalg",), self_s("linalg")),
        ("linalg.factorizations", "count", ("linalg.bareiss_forward",), calls("linalg.bareiss_forward")),
        ("linalg.n3_sum", "count", ("linalg.bareiss_forward",), stat("n3_sum")),
        ("linalg.dim_max", "rows", ("linalg.bareiss_forward",), stat("dim_max")),
        ("linalg.det_bits_max", "bits", ("linalg.bareiss_forward",), stat("det_bits_max")),
        ("circuit.s", "s", ("circuit",), self_s("circuit")),
        ("circuit.context_calls", "count", ("circuit.context",), calls("circuit.context")),
        ("circuit.context_misses", "count", ("circuit.context",), stat("context_misses")),
        ("circuit.context_hit_ratio", "ratio", ("circuit.context",),
         lambda t: 1 - _ratio(t["stats"].get("context_misses", 0), t["calls"].get("circuit.context", 0))),
        ("circuit.profile_builds", "count", ("circuit.GraphContext._profile",),
         calls("circuit.GraphContext._profile")),
        ("circuit.r_deleted_calls", "count", ("circuit.GraphContext.r_deleted",),
         calls("circuit.GraphContext.r_deleted")),
        ("circuit.solve_pair_calls", "count", ("circuit.solve_pair_resistances",),
         calls("circuit.solve_pair_resistances")),
        ("tau.s", "s", ("tau",), self_s("tau")),
        ("tau.edge_sum_s", "s", ("tau.tau_edge_sum",), incl("tau.tau_edge_sum")),
        ("tau.gradient_s", "s", ("tau.tau_gradient",), incl("tau.tau_gradient")),
        ("tau.deleted_apq_calls", "count", ("tau.deleted_apq",), calls("tau.deleted_apq")),
        ("tau.apq_identity_calls", "count", ("tau.apq_identity",), calls("tau.apq_identity")),
        ("tau.memo_hit_ratio", "ratio", ("tau.tau_of", "tau.apq_identity"),
         hit_ratio("tau.tau_of", "tau.apq_identity")),
        ("integration.s", "s", ("integration",), self_s("integration")),
        ("integration.fits", "count", (fits, "integration.fit_edge_function"),
         lambda t: (t["calls"].get(fits, 0) - t["hits"].get(fits, 0)
                    + t["calls"].get("integration.fit_edge_function", 0))),
        ("integration.fit_hit_ratio", "ratio", (fits,), hit_ratio(fits)),
        ("reduction.s", "s", ("reduction",), self_s("reduction")),
        ("reduction.calls", "count", ("reduction",), lambda t: t["entries"].get("reduction", 0)),
        ("ops.s", "s", ("ops",), self_s("ops")),
        ("ops.calls", "count", ("ops",), lambda t: t["entries"].get("ops", 0)),
        ("suite.s", "s", ("suite",), self_s("suite")),
    ]
    rows += [(f"suite.{cid}.s", "s", (f"suite:{cid}",), incl(f"suite:{cid}")) for cid in SUITE_IDS]
    rows += [
        ("optimize.s", "s", ("optimize",), self_s("optimize")),
        ("optimize.iterations", "count", ("optimize.minimize_tau",), stat("iterations")),
        ("optimize.float_tau_calls", "count", ("optimize.FloatTopology.tau",),
         calls("optimize.FloatTopology.tau")),
        ("optimize.float_gradient_calls", "count", ("optimize.FloatTopology.gradient",),
         calls("optimize.FloatTopology.gradient")),
        ("optimize.exact_reeval_s", "s", ("optimize",), stat("exact_reeval_s")),
        ("cli.interp_s", "s", (), stat("cli_interp_s")),
        ("cli.import_s", "s", (), stat("cli_import_s")),
        ("cli.main_s", "s", (), stat("cli_main_s")),
        ("fileio.parse_s", "s", ("fileio",), self_s("fileio")),
        ("graph.s", "s", ("graph",), self_s("graph")),
        ("graph.insert_points_calls", "count", ("graph.insert_point", "graph.insert_points"),
         lambda t: t["calls"].get("graph.insert_point", 0) + t["calls"].get("graph.insert_points", 0)),
        ("graph.bridges_calls", "count", ("graph.bridges",), calls("graph.bridges")),
    ]
    better = {"ratio": "higher"}
    return [(name, unit, better.get(unit, "lower"), needs, fn) for name, unit, needs, fn in rows]


LAYER_METRICS = _layer_metrics()
BENCH_METRICS = (
    ("bench.ref_ms", "ms", "lower"),
    ("bench.ref_spread", "ratio", "lower"),
    ("bench.raw_wall_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return _ratio(q3 - q1, statistics.median(values))


def run_worker(workload: str, spec: dict, trace: bool, setup_only: bool = False) -> dict:
    """One pass in a fresh process; returns the worker's record plus set-up time."""
    doc = json.dumps({"workload": workload, "root": ROOT, "trace": trace,
                      "setup_only": setup_only, **spec})
    env = dict(os.environ, PYTHONHASHSEED="0")
    ref_before = reference_seconds()
    t_launch = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), repr(t_launch)],
                          input=doc, capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(proc.stdout)
    factor = REF_NOMINAL / ((ref_before + record["setup_ref"]) / 2)
    record["setup_norm"] = record["setup_raw"] * factor
    return record


def _pin_to_one_cpu() -> None:
    """Keep the driver, its workers and their children on one CPU.

    On a shared machine each CPU changes speed on its own; the reference loop
    only predicts an op's speed when both run on the same CPU. This sets the
    affinity of this process only, which every child inherits.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _warm_up() -> None:
    """Compile mgt's and the benchmark's bytecode once, so no timed pass pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src", "mgt"), HERE],
                   cwd=ROOT, capture_output=True, timeout=WORKER_TIMEOUT)


def check_outputs(workload: str, seed: int, spec: dict, records: list[dict],
                  record_digests: bool) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every op execution of the run."""
    wl = workloads.WORKLOADS[workload]
    by_id = {op["id"]: op for op in spec["ops"]}
    first = {}
    for rec in records:
        for op in rec["ops"]:
            if op["error"] is None and op["id"] not in first:
                first[op["id"]] = op["output"]
    expected = {}
    if seed == workloads.DEFAULT_SEED:
        stored = _load_digests()
        if record_digests:
            stored[workload] = {i: digest(out) for i, out in first.items()}
            with open(DIGESTS, "w") as fh:
                json.dump(stored, fh, indent=1, sort_keys=True)
                fh.write("\n")
        expected = stored.get(workload, {})
    context = {"by_id": by_id, "outputs": first, "files_dir": spec.get("files_dir"), "root": ROOT}
    verdicts = {}
    for op_id, output in first.items():
        problem = None
        if seed == workloads.DEFAULT_SEED and expected.get(op_id) != digest(output):
            problem = "digest mismatch"
        if problem is None:
            try:
                problem = wl["check"](by_id[op_id], output, context)
            except Exception as exc:  # a check that cannot run is a failed op
                problem = f"check raised {type(exc).__name__}: {exc}"
        verdicts[op_id] = problem
    attempted = failed = 0
    problems = []
    for rec in records:
        for op in rec["ops"]:
            attempted += 1
            if op["error"] is not None:
                problem = op["error"]
            elif digest(op["output"]) != digest(first[op["id"]]):
                problem = "output differs between passes"
            else:
                problem = verdicts[op["id"]]
            if problem is not None:
                failed += 1
                problems.append(f"{op['id']}: {problem}")
    return attempted, failed, problems


def _load_digests() -> dict:
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def end_to_end(records: list[dict], setups: list[float], n_ops: int) -> tuple[dict, dict]:
    medians = sorted(statistics.median(v) for v in _per_op(records, "norm").values())
    rank = max(0, len(medians) - TAIL_ABOVE - 1)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n_ops / sum(medians),
        "op_tail_ms": medians[rank] * 1000,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in records) / 1024,
    }
    detail = {
        "op_tail_percentile": 100.0 * (rank + 1) / len(medians),
        "op_tail_samples": len(medians),
        "op_median_ms": statistics.median(medians) * 1000,
        "setup_s_samples": setups,
    }
    return metrics, detail


def layer_values(traced: dict, records: list[dict]) -> dict:
    totals = {part: traced["layers"].get(part, {}) for part in
              ("self_s", "incl_s", "calls", "hits", "entries", "stats")}
    bound = set(traced["bound"])
    out = {}
    for name, unit, _better, needs, fn in LAYER_METRICS:
        out[name] = (fn(totals), unit) if all(k in bound for k in needs) else ("absent", unit)
    refs = [op["ref"] for rec in records for op in rec["ops"]]
    untraced = sum(statistics.median(v) for v in _per_op(records, "norm").values())
    out["bench.ref_ms"] = (statistics.median(refs) * 1000, "ms")
    out["bench.ref_spread"] = (_quartile_spread(refs), "ratio")
    out["bench.raw_wall_s"] = (sum(statistics.median(v) for v in _per_op(records, "raw").values()), "s")
    out["bench.trace_overhead"] = (_ratio(sum(op["norm"] for op in traced["ops"]), untraced), "ratio")
    return out


def _per_op(records: list[dict], field: str) -> dict:
    per_op: dict = {}
    for rec in records:
        for op in rec["ops"]:
            per_op.setdefault(op["id"], []).append(op[field])
    return per_op


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="run only the first K ops (smoke test)")
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's output digests instead of checking them")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mgt", "__init__.py")):
        print(f"error: no mgt sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    info = machine_info()
    wl = workloads.WORKLOADS[args.workload]
    spec = wl["build"](args.seed)
    if args.ops is not None:
        spec["ops"] = spec["ops"][: args.ops]
    files = spec.pop("files", None)
    if files is not None:
        # relative to ROOT, because `verify FILE` prints the path it was given
        files_dir = os.path.join(".bench_build", "taubench", args.workload)
        os.makedirs(os.path.join(ROOT, files_dir), exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(ROOT, files_dir, name), "w") as fh:
                fh.write(text)
        spec["files_dir"] = files_dir
    passes = max(MIN_PASSES, round(args.seconds / wl["pass_s"]))
    _pin_to_one_cpu()
    _warm_up()
    t_start = time.perf_counter()
    records = [run_worker(args.workload, spec, False) for _ in range(passes)]
    setups = [r["setup_norm"] for r in records]
    setups += [run_worker(args.workload, spec, False, setup_only=True)["setup_norm"]
               for _ in range(SETUP_SAMPLES - passes)]
    traced = run_worker(args.workload, spec, True) if args.trace else None
    wall = time.perf_counter() - t_start
    attempted, failed, problems = check_outputs(
        args.workload, args.seed, spec, records + ([traced] if traced else []), args.record_digests)
    e2e, detail = end_to_end(records, setups, len(spec["ops"]))
    refs = [op["ref"] for rec in records for op in rec["ops"]]
    detail.update({
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "ops": len(spec["ops"]), "machine": info, "run_wall_s": wall,
        "ref_nominal_ms": REF_NOMINAL * 1000,
        "ref_median_ms": statistics.median(refs) * 1000,
        "ref_spread": _quartile_spread(refs),
        "raw_op_s": sum(statistics.median(v) for v in _per_op(records, "raw").values()),
        "problems": problems[:20],
    })
    if args.trace:
        values = layer_values(traced, records)
    else:
        values = {name: (e2e[name], unit) for name, unit, _, _ in END_TO_END}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
