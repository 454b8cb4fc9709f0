"""The four workloads: seeded op lists, op execution and exactness checks.

Each workload has three sides:

* ``build(seed)`` runs in the driver. The seed alone fixes the op list and its
  inputs, which are plain JSON, so every pass of a run does the same work.
* ``prepare`` and ``segments`` run in a worker. An op runs as one or more
  segments, each timed on its own; the last returns the op's canonical
  output: JSON made of strings, ints and bools, so its SHA-256 is stable.
* ``check`` runs in the driver, in a process that never executed the op, and
  applies the exact cross-checks that hold on any seed.

Sizes are stratified, not left to chance: a seed picks the topologies and
lengths, but every seed gets the same list of graph sizes, so the work per run
barely depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

DEFAULT_SEED = 1

# corpus: the first CORPUS_OPS graphs of GraphGenerator(DEFAULT_SEED) fix the
# profile of (vertices, edges, bridges, has a loop); any seed fills the same
# profile from its own GraphGenerator sequence, so on the default seed the list
# is exactly the prefix. Bridges and loops decide which identities skip, so
# matching them too cut the seed-to-seed spread of a pass's cost from 3.3% to
# 0.8% (40 graphs, four seeds). A slot still empty after CORPUS_POOL graphs
# (rarest shape: about 1 graph in 2200) takes the next graph of its size.
CORPUS_OPS = 48
CORPUS_POOL = 30000
CORPUS_SEGMENTS = 4

LADDER_OPS = ("tau", "measure", "gradient", "apq", "bounds")
# (family, size): equal-length families, then random multigraphs (v, e, copy)
# with a/b lengths, whose determinant bit length grows with length heterogeneity.
LADDER_GRAPHS = (
    ("necklace", 2), ("necklace", 3), ("necklace", 4), ("necklace", 5), ("necklace", 6),
    ("complete", 6), ("complete", 7), ("complete", 8), ("complete", 9), ("cube", 8),
    ("random", (10, 15, 0)), ("random", (12, 18, 0)), ("random", (14, 21, 0)),
    ("random", (16, 24, 0)), ("random", (18, 27, 0)),
    ("random", (10, 15, 1)), ("random", (12, 18, 1)), ("random", (14, 21, 1)),
    ("random", (16, 24, 1)), ("random", (18, 27, 1)),
)

# minimize: bridgeless topologies (random ones fixed per size, like the ladder's),
# MINIMIZE_STARTS seeded starts each, fixed iteration cap.
MINIMIZE_TOPOLOGIES = ("diamond", "theta", "K4", "K5", "cube", "necklace2",
                       (5, 9), (6, 10), (6, 11))
MINIMIZE_STARTS = 4
MINIMIZE_ITERS = 30

# cli: cold `python -m mgt.cli` runs on small generated graph files.
CLI_GRAPHS = ((4, 6), (5, 8), (6, 9), (7, 10))
CLI_VERBS = ("tau", "resistance", "mucan", "apq", "bounds", "op-da-n", "verify")


def _graph_doc(g) -> dict:
    return {"v": g.vcount, "e": [[a, b, str(length)] for a, b, length in g.edges]}


def _graph(doc):
    from mgt.graph import build_graph

    return build_graph(doc["v"], [(a, b, Fraction(length)) for a, b, length in doc["e"]])


def _random_graph(rng: random.Random, v: int, e: int):
    """Connected multigraph with exactly v vertices and e edges, no loops."""
    from mgt.families import random_length
    from mgt.graph import build_graph

    edges = [(rng.randrange(w), w, random_length(rng)) for w in range(1, v)]
    while len(edges) < e:
        x, y = rng.randrange(v), rng.randrange(v)
        if x != y:
            edges.append((x, y, random_length(rng)))
    rng.shuffle(edges)
    return build_graph(v, edges)


def _random_bridgeless(rng: random.Random, v: int, e: int, copy: int = 0):
    """A random cycle through all v vertices, distinct chords and one parallel edge.

    Every edge lies on a cycle, so every edge costs a deleted-graph solve in
    the gradient. The topology and the multiset of a/b lengths are fixed per
    (v, e, copy); the seed assigns the lengths to the edges. Determinant bit
    length follows the lengths' common denominators and the cost follows the
    shape: with a fresh topology and fresh lengths per seed, one rung's
    gradient cost swung by 2x from seed to seed.
    """
    from mgt.families import random_length
    from mgt.graph import build_graph

    fixed = random.Random(f"taubench-shape:{v}:{e}:{copy}")
    lengths = [random_length(fixed) for _ in range(e)]
    order = list(range(v))
    fixed.shuffle(order)
    pairs = [(order[i], order[(i + 1) % v]) for i in range(v)]
    seen = {frozenset(p) for p in pairs}
    while len(pairs) < e - 1:
        x, y = fixed.randrange(v), fixed.randrange(v)
        if x != y and frozenset((x, y)) not in seen:
            seen.add(frozenset((x, y)))
            pairs.append((x, y))
    pairs.append(fixed.choice(pairs))
    rng.shuffle(lengths)
    return build_graph(v, [(x, y, L) for (x, y), L in zip(pairs, lengths)])


# ---------------------------------------------------------------------------
# corpus: the identity catalog over generated graphs (`mgt verify --random`)
# ---------------------------------------------------------------------------


def _corpus_build(seed: int) -> dict:
    from mgt.graph import bridges
    from mgt.suite import GraphGenerator

    def shape(g):
        return g.vcount, g.ecount, len(bridges(g)), any(a == b for a, b, _ in g.edges)

    profile = [shape(g) for _, g in GraphGenerator(DEFAULT_SEED).graphs(CORPUS_OPS)]
    picked: list = [None] * len(profile)
    spare: dict = {}
    for index, (descriptor, g) in enumerate(GraphGenerator(seed).graphs(CORPUS_POOL)):
        s = shape(g)
        slot = next((i for i, want in enumerate(profile) if want == s and picked[i] is None), None)
        if slot is not None:
            picked[slot] = (index, descriptor, g)
            if all(picked):
                break
        else:
            spare.setdefault(s[:2], []).append((index, descriptor, g))
    for slot, want in enumerate(profile):
        if picked[slot] is None:
            picked[slot] = spare[want[:2]].pop(0)
    ops = [{"id": f"corpus:{index}", "graph": _graph_doc(g), "descriptor": descriptor,
            "rng": f"mgt-checks:{seed}:{index}"} for index, descriptor, g in picked]
    return {"ops": ops}


def _corpus_segments(op: dict, prepared) -> list:
    """The catalog in CORPUS_SEGMENTS contiguous slices, sharing one rng.

    The checks draw from the rng in catalog order either way, so the results
    equal one `run_graph_checks` call. Each slice is timed between its own
    reference brackets: a machine speed switch inside a 150 ms op then skews
    only a quarter of it (per-op spread 9.7% whole, 5.4% in four slices).
    """
    from mgt.suite import identity_catalog, run_graph_checks

    ids = [entry[0] for entry in identity_catalog()]
    g, rng, rows = prepared[op["id"]], random.Random(op["rng"]), []

    def segment(wanted):
        def run():
            results = run_graph_checks(op["descriptor"], g, rng, wanted)
            rows.extend([r.identity, r.status, str(r.lhs), str(r.rhs), r.reason] for r in results)
            return rows
        return run

    n = CORPUS_SEGMENTS
    return [segment(set(ids[k * len(ids) // n:(k + 1) * len(ids) // n])) for k in range(n)]


def _corpus_check(op: dict, output, spec: dict) -> str | None:
    failed = [row[0] for row in output if row[1] == "fail"]
    return f"identities failed: {failed}" if failed else None


# ---------------------------------------------------------------------------
# ladder: single-graph exact queries on a size ladder, in CLI order
# ---------------------------------------------------------------------------


def _ladder_graph(rng: random.Random, family: str, size):
    from mgt import families

    if family == "necklace":
        length = families.random_length(rng)
        return families.necklace(length, length, size)
    if family == "complete":
        return families.complete(size, families.random_length(rng))
    if family == "cube":
        return families.cube(families.random_length(rng))
    return _random_bridgeless(rng, *size)


def _ladder_build(seed: int) -> dict:
    rng = random.Random(f"taubench-ladder:{seed}")
    ops = []
    for k, (family, size) in enumerate(LADDER_GRAPHS):
        g = _ladder_graph(rng, family, size)
        p = rng.randrange(g.vcount)
        q = (p + 1 + rng.randrange(g.vcount - 1)) % g.vcount
        name = f"{family}{size[0] if isinstance(size, tuple) else size}"
        for query in LADDER_OPS:
            ops.append({"id": f"ladder:{k}:{name}:{query}", "graph_key": str(k),
                        "graph": _graph_doc(g), "query": query, "pq": [p, q]})
    return {"ops": ops}


def _ladder_run(op: dict, prepared) -> object:
    from mgt.rational import format_scalar as fmt
    from mgt.tau import apq_identity, canonical_measure, lower_bound_suite, tau_edge_sum, tau_gradient

    g = prepared[op["graph_key"]]
    query = op["query"]
    if query == "tau":
        report = tau_edge_sum(g)
        return {"tau": fmt(report.tau),
                "per_edge": [[i, fmt(c), fmt(r)] for i, c, r in report.per_edge]}
    if query == "measure":
        mu = canonical_measure(g)
        return {"masses": [[v, fmt(m)] for v, m in mu.vertex_masses],
                "densities": [[i, fmt(d)] for i, d in mu.edge_densities],
                "total": fmt(mu.total_mass(g))}
    if query == "gradient":
        grad = tau_gradient(g)
        return {"entries": [fmt(x) for x in grad.entries], "bridges": list(grad.bridge_edges)}
    if query == "apq":
        return {"apq": fmt(apq_identity(g, *op["pq"]))}
    return [[c.bound, c.applicable, c.reason, None if c.lhs is None else fmt(c.lhs),
             None if c.rhs is None else fmt(c.rhs), c.relation, c.holds]
            for c in lower_bound_suite(g)]


def _ladder_check(op: dict, output, spec: dict) -> str | None:
    query = op["query"]
    if query == "measure":
        # density * length per edge plus the point masses must be exactly one
        lengths = [Fraction(length) for _, _, length in op["graph"]["e"]]
        mass = sum(Fraction(m) for _, m in output["masses"])
        mass += sum(Fraction(d) * lengths[i] for i, d in output["densities"])
        if mass != 1 or Fraction(output["total"]) != 1:
            return f"canonical measure has mass {mass}"
    elif query == "gradient":
        # tau is homogeneous of degree one in the lengths (Euler's identity)
        tau_op = spec["by_id"][op["id"].rsplit(":", 1)[0] + ":tau"]
        tau = Fraction(spec["outputs"][tau_op["id"]]["tau"])
        lengths = [Fraction(length) for _, _, length in op["graph"]["e"]]
        euler = sum(L * Fraction(d) for L, d in zip(lengths, output["entries"]))
        if euler != tau:
            return f"sum L dtau/dL = {euler} but tau = {tau}"
    elif query == "bounds":
        violated = [row[0] for row in output if row[6] is False]
        if violated:
            return f"bounds violated: {violated}"
    return None


# ---------------------------------------------------------------------------
# minimize: the float search loop with an exact re-evaluation at the end
# ---------------------------------------------------------------------------


def _minimize_topology(rng: random.Random, name):
    from mgt import families

    if name == "diamond":
        return families.diamond()
    if name == "theta":
        return families.theta(1, 1, 1)
    if name == "K4":
        return families.complete(4)
    if name == "K5":
        return families.complete(5)
    if name == "cube":
        return families.cube()
    if name == "necklace2":
        return families.necklace(1, 1, 2)
    return _random_bridgeless(rng, *name)


def _minimize_build(seed: int) -> dict:
    rng = random.Random(f"taubench-minimize:{seed}")
    ops = []
    for k, name in enumerate(MINIMIZE_TOPOLOGIES):
        g = _minimize_topology(rng, name)
        label = name if isinstance(name, str) else f"random{name[0]}x{name[1]}"
        for s in range(MINIMIZE_STARTS):
            start = [rng.random() + 0.01 for _ in range(g.ecount)]
            total = sum(start)
            ops.append({"id": f"minimize:{k}:{label}:{s}", "graph_key": f"{k}:{s}",
                        "graph": _graph_doc(g), "start": [x / total for x in start]})
    return {"ops": ops}


def _minimize_run(op: dict, prepared) -> object:
    from mgt.optimize import minimize_tau
    from mgt.rational import format_scalar as fmt

    state = minimize_tau(prepared[op["graph_key"]], op["start"], max_iters=MINIMIZE_ITERS)
    return {"exact_tau": fmt(state.exact_tau),
            "exact_lengths": [fmt(x) for x in state.exact_lengths],
            "iterations": state.iteration, "converged": state.converged}


def _minimize_check(op: dict, output, spec: dict) -> str | None:
    from mgt.graph import MetrizedGraph
    from mgt.tau import tau_of

    g = _graph(op["graph"])
    lengths = [Fraction(x) for x in output["exact_lengths"]]
    rounded = MetrizedGraph(g.vcount, tuple(e._replace(length=L) for e, L in zip(g.edges, lengths)))
    tau = tau_of(rounded)
    if tau != Fraction(output["exact_tau"]):
        return f"exact_tau {output['exact_tau']} but tau_of gives {tau}"
    return None


# ---------------------------------------------------------------------------
# cli: cold `python -m mgt.cli` subprocesses
# ---------------------------------------------------------------------------


def _cli_args(verb: str, path: str, pq: list, seed: int) -> list[str]:
    p, q = (str(x) for x in pq)
    return {
        "tau": ["tau", path, "--per-edge"],
        "resistance": ["resistance", path, p, q],
        "mucan": ["mucan", path],
        "apq": ["apq", path, p, q],
        "bounds": ["bounds", path],
        "op-da-n": ["op", "da-n", "2", path],
        "verify": ["verify", path, "--seed", str(seed)],
    }[verb]


def _cli_build(seed: int) -> dict:
    from mgt.fileio import format_graph_text

    rng = random.Random(f"taubench-cli:{seed}")
    files = {}
    ops = []
    for k, (v, e) in enumerate(CLI_GRAPHS):
        g = _random_graph(rng, v, e)
        name = f"cli-{k}.txt"
        files[name] = format_graph_text(g)
        p = rng.randrange(v)
        q = (p + 1 + rng.randrange(v - 1)) % v
        for verb in CLI_VERBS:
            ops.append({"id": f"cli:{k}:{verb}",
                        "args": _cli_args(verb, "{dir}/" + name, [p, q], seed)})
    return {"ops": ops, "files": files}


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_argv(op: dict, files_dir: str) -> list[str]:
    return [a.replace("{dir}", files_dir) for a in op["args"]]


def _cli_run(op: dict, prepared) -> object:
    root, files_dir, traced = prepared["root"], prepared["files_dir"], prepared["trace"]
    if traced:
        launcher = [sys.executable, os.path.join(root, "taubench", "clishim.py")]
    else:
        launcher = [sys.executable, "-m", "mgt.cli"]
    env = prepared["env"]
    if traced:
        env = dict(env, TAUBENCH_T_LAUNCH=repr(time.monotonic()))
    proc = subprocess.run(launcher + cli_argv(op, files_dir), cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    out = {"code": proc.returncode, "stdout": proc.stdout}
    if traced:
        prepared["cli_traces"].append(_shim_trace(proc.stderr))
    return out


def _shim_trace(stderr: str) -> dict:
    for line in reversed(stderr.splitlines()):
        if line.startswith("TAUBENCH-TRACE "):
            return json.loads(line[len("TAUBENCH-TRACE "):])
    raise RuntimeError(f"traced cli run left no trace: {stderr[-400:]}")


def _cli_check(op: dict, output, spec: dict) -> str | None:
    from mgt import cli

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(spec["root"])  # the subprocess ran there, on the same relative paths
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(cli_argv(op, spec["files_dir"]))
    finally:
        os.chdir(cwd)
    if output["code"] != 0:
        return f"exit code {output['code']}"
    if (code, buf.getvalue()) != (output["code"], output["stdout"]):
        return "subprocess output differs from in-process cli.main"
    return None


# ---------------------------------------------------------------------------


def _prepare_graphs(spec: dict, root: str, trace: bool) -> dict:
    prepared = {}
    for op in spec["ops"]:
        key = op.get("graph_key", op["id"])
        if key not in prepared:
            prepared[key] = _graph(op["graph"])
    return prepared


def _prepare_cli(spec: dict, root: str, trace: bool) -> dict:
    return {"root": root, "files_dir": spec["files_dir"], "trace": trace,
            "env": cli_env(root), "cli_traces": []}


def _single(run):
    """An op timed as one segment."""
    return lambda op, prepared: [lambda: run(op, prepared)]


# segments(op, prepared) -> zero-argument callables; the op's output is what
# the last one returns. pass_s is the nominal length of one pass in seconds.
WORKLOADS = {
    "corpus": {"build": _corpus_build, "prepare": _prepare_graphs, "segments": _corpus_segments,
               "check": _corpus_check, "imports": ("mgt.suite",), "pass_s": 6.5},
    "ladder": {"build": _ladder_build, "prepare": _prepare_graphs, "segments": _single(_ladder_run),
               "check": _ladder_check, "imports": ("mgt.tau",), "pass_s": 2.4},
    "minimize": {"build": _minimize_build, "prepare": _prepare_graphs,
                 "segments": _single(_minimize_run), "check": _minimize_check,
                 "imports": ("mgt.optimize",), "pass_s": 2.5},
    "cli": {"build": _cli_build, "prepare": _prepare_cli, "segments": _single(_cli_run),
            "check": _cli_check, "imports": ("mgt.cli",), "pass_s": 6.0},
}
