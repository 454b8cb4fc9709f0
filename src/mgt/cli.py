"""Command-line front end: exact results as canonical rationals, JSON, or CSV."""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import fileio
from .circuit import resistance, voltage
from .errors import BadN, BadPoint, InputError, MgtError
from .graph import PointOnGraph
from .rational import format_float, format_scalar, parse_scalar
from .tau import apq, canonical_measure, lower_bound_suite, tau_edge_sum, tau_gradient, tau_of

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# -<digit> or -.<digit> (-1/2, -1e3) is a value, not an option; argparse's own pattern
# takes -2 and -0.5 only. mgt has no such option, and it checks each number itself
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader wants no more output; fd 1 on devnull keeps the exit flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


def _main(argv: list[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)  # --help prints here
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except BrokenPipeError:
        raise  # a closed stdout, handled by main, is no bug in mgt
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MgtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb in _VERBS, or of ``verb`` alone when it names one;
    the usage line lists every verb either way, so help and errors read the same."""
    parser = argparse.ArgumentParser(prog="mgt", description=__doc__)
    one = verb in _VERBS
    metavar = "{" + ",".join(_VERBS) + "}" if one else None  # left None, a missing verb reads "verb"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name in (verb,) if one else _VERBS:
        help_text, add_arguments = _VERBS[name]
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(run=globals()[f"_run_{name}"])  # looked up here, so a patched handler runs
        add_arguments(p)
    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true")
    p.add_argument("--float", action="store_true", dest="as_float")


def _file_verb(*points: str):
    """The arguments of a verb on one graph file: the file, ``points``, the output flags."""
    def add(p: argparse.ArgumentParser) -> None:
        for name in ("file", *points):
            p.add_argument(name)
        _output_flags(p)
    return add


def _tau_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--per-edge", action="store_true")
    p.add_argument("--base", type=int, default=0)
    _output_flags(p)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?")
    p.add_argument("--suite", default="all", help="all or comma-separated identity ids")
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=None, help="graphs for --random (default 10)")
    p.add_argument("--json", action="store_true")


def _minimize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--iters", type=_non_negative(int), default=500)
    p.add_argument("--tol", type=_non_negative(float), default=1e-10)
    p.add_argument("--restarts", type=_non_negative(int), default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")


def _scan_arguments(p: argparse.ArgumentParser) -> None:
    from .families import SCAN_FAMILIES  # loaded when the scan parser is built, by no other verb

    p.add_argument("--family", required=True, choices=tuple(SCAN_FAMILIES))
    p.add_argument("--params", default="", help="key=lo..hi or key=a,b,c (family specific)")


def _op_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=tuple(_OPS))
    p.add_argument("args", nargs="*")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--json", action="store_true")


# verb -> (help, adds its arguments to its subparser), in the order help lists
# them; the verb's handler is _run_<verb>
_VERBS = {
    "tau": ("tau invariant of a graph", _tau_arguments),
    "resistance": ("effective resistance between two points", _file_verb("p", "q")),
    "voltage": ("voltage j_x(p,q)", _file_verb("x", "p", "q")),
    "apq": ("the voltage integral between two vertices", _file_verb("p", "q")),
    "mucan": ("canonical measure: vertex masses and edge densities", _file_verb()),
    "gradient": ("exact tau derivatives in each edge length", _file_verb()),
    "bounds": ("evaluate the closed-form tau bounds", _file_verb()),
    "verify": ("run the identity suite", _verify_arguments),
    "minimize": ("projected gradient descent on edge lengths", _minimize_arguments),
    "scan": ("closed-form family scan, CSV on stdout", _scan_arguments),
    "op": ("apply a tau-transforming operation", _op_arguments),
}


def _non_negative(kind):
    """An argparse type: ``kind(text)``, refused when negative or NaN."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not value >= 0:  # also false for NaN
            raise argparse.ArgumentTypeError(f"must be a non-negative {kind.__name__}, got {text!r}")
        return value
    return parse


def _dumps(doc) -> str:
    import json  # loaded only by a run that prints JSON

    return json.dumps(doc)


def _fmt(args, value) -> str:
    return format_float(value) if getattr(args, "as_float", False) else format_scalar(value)


def _number(text: str, what: str):
    """A number typed on the command line: one that does not parse is a usage
    error (exit 2), where ``parse_scalar``'s ``InputError`` would read as a bad file."""
    try:
        return parse_scalar(text)
    except InputError as exc:
        raise MgtError(f"bad {what}: {exc}") from None


def _integer(text: str, what: str) -> int:
    """An integer typed on the command line (a vertex or edge id, a count): anything
    else is a usage error that names the argument."""
    try:
        return int(text)
    except ValueError:
        raise MgtError(f"bad {what}: expected an integer, got {text!r}") from None


def _parse_point(text: str) -> PointOnGraph:
    """A vertex id ``V`` or an edge point ``E:OFFSET``."""
    edge, colon, offset = text.partition(":")
    try:
        point = int(edge)
    except ValueError:
        raise BadPoint(f"bad point {text!r}: expected a vertex id or EDGE:OFFSET") from None
    return (point, _number(offset, f"point {text!r}")) if colon else point


def _run_tau(args) -> int:
    g = fileio.load_graph(args.file)
    report = tau_edge_sum(g, args.base)
    if args.json:
        doc = {
            "tau": format_scalar(report.tau),
            "length": format_scalar(report.total_length),
            "genus": report.genus,
            "per_edge": [
                {"edge": i, "contribution": format_scalar(c), "R": format_scalar(res)}
                for i, c, res in report.per_edge
            ],
        }
        print(_dumps(doc))
        return EXIT_OK
    print(_fmt(args, report.tau))
    if args.per_edge:
        for i, c, res in report.per_edge:
            print(f"edge {i}: contribution {_fmt(args, c)} R {_fmt(args, res)}")
    return EXIT_OK


def _run_resistance(args) -> int:
    g = fileio.load_graph(args.file)
    value = resistance(g, _parse_point(args.p), _parse_point(args.q))
    print(_dumps({"resistance": format_scalar(value)}) if args.json else _fmt(args, value))
    return EXIT_OK


def _run_voltage(args) -> int:
    g = fileio.load_graph(args.file)
    value = voltage(g, _parse_point(args.x), _parse_point(args.p), _parse_point(args.q))
    print(_dumps({"voltage": format_scalar(value)}) if args.json else _fmt(args, value))
    return EXIT_OK


def _run_apq(args) -> int:
    value = apq(fileio.load_graph(args.file), _integer(args.p, "p"), _integer(args.q, "q"))
    print(_dumps({"apq": format_scalar(value)}) if args.json else _fmt(args, value))
    return EXIT_OK


def _run_mucan(args) -> int:
    g = fileio.load_graph(args.file)
    mu = canonical_measure(g)
    if args.json:
        print(_dumps({
            "vertex_masses": [[v, format_scalar(m)] for v, m in mu.vertex_masses],
            "edge_densities": [[i, format_scalar(d)] for i, d in mu.edge_densities],
            "total_mass": format_scalar(mu.total_mass(g)),
        }))
        return EXIT_OK
    for v, m in mu.vertex_masses:
        print(f"vertex {v}: mass {_fmt(args, m)}")
    for i, d in mu.edge_densities:
        print(f"edge {i}: density {_fmt(args, d)}")
    print(f"total mass: {_fmt(args, mu.total_mass(g))}")
    return EXIT_OK


def _run_gradient(args) -> int:
    g = fileio.load_graph(args.file)
    grad = tau_gradient(g)
    if args.json:
        print(_dumps({
            "gradient": [format_scalar(x) for x in grad.entries],
            "bridges": list(grad.bridge_edges),
        }))
        return EXIT_OK
    for i, x in enumerate(grad.entries):
        flag = " (bridge)" if i in grad.bridge_edges else ""
        print(f"edge {i}: {_fmt(args, x)}{flag}")
    return EXIT_OK


def _run_bounds(args) -> int:
    g = fileio.load_graph(args.file)
    checks = lower_bound_suite(g)
    if args.json:
        print(_dumps([{
            "bound": c.bound, "applicable": c.applicable, "reason": c.reason,
            "lhs": format_scalar(c.lhs) if c.lhs is not None else None,
            "rhs": format_scalar(c.rhs) if c.rhs is not None else None,
            "relation": c.relation, "holds": c.holds,
        } for c in checks]))
        return EXIT_OK
    for c in checks:
        if not c.applicable:
            print(f"{c.bound}: skipped ({c.reason})")
        else:
            verdict = "ok" if c.holds else "VIOLATED"
            print(f"{c.bound}: {_fmt(args, c.lhs)} {c.relation} {_fmt(args, c.rhs)} {verdict}")
    return EXIT_OK if all(c.holds is not False for c in checks) else EXIT_CHECK_FAILED


def _run_verify(args) -> int:
    from .suite import GraphGenerator, run_suite

    if bool(args.file) == args.random:
        raise MgtError("need a FILE or --random, not both")
    if args.random:
        count = 10 if args.count is None else args.count
        if count < 1:
            raise BadN(f"graph count must be >= 1, got {count}")
        graphs = GraphGenerator(args.seed).graphs(count)
    elif args.count is not None:
        raise MgtError("--count applies to --random only, not to a FILE")
    else:
        graphs = [(args.file, fileio.load_graph(args.file))]
    ids = None if args.suite == "all" else [cid.strip() for cid in args.suite.split(",")]
    results = run_suite(graphs, args.seed, ids)
    failures = [r for r in results if r.status == "fail"]
    if args.json:
        print(_dumps([{
            "identity": r.identity, "graph": r.graph, "status": r.status,
            "lhs": _check_value(r.lhs), "rhs": _check_value(r.rhs), "reason": r.reason,
        } for r in results]))
    else:
        for r in results:
            line = f"{r.status.upper():5} {r.identity:28} {r.graph}"
            if r.status == "skip":
                line += f"  ({r.reason})"
            elif r.status == "fail":
                line += f"  lhs={_check_value(r.lhs)} rhs={_check_value(r.rhs)} {r.reason}"
            print(line)
        passes = sum(1 for r in results if r.status == "pass")
        skips = sum(1 for r in results if r.status == "skip")
        print(f"{passes} passed, {skips} skipped, {len(failures)} failed")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _check_value(value) -> str:
    """A check's lhs or rhs: exact digits, or ``None`` where the check has none."""
    return "None" if value is None else format_scalar(value)


def _run_minimize(args) -> int:
    import random as _random

    from .optimize import minimize_tau, search_topology  # numpy loads only for this verb

    g = fileio.load_graph(args.file)
    states = [minimize_tau(g, None, args.iters, args.tol)]
    search_size = search_topology(g).ecount  # bridges are contracted away first
    rng = _random.Random(f"mgt-minimize:{args.seed}")
    for _ in range(args.restarts):
        start = [rng.random() + 0.01 for _ in range(search_size)]
        total = sum(start)
        states.append(minimize_tau(g, [x / total for x in start], args.iters, args.tol))
    best = min(states, key=lambda s: s.tau)
    if args.json:
        print(_dumps({
            "tau": best.tau,
            "lengths": list(best.lengths),
            "iterations": best.iteration,
            "converged": best.converged,
            "pinned": list(best.pinned),
            "exact_tau": format_scalar(best.exact_tau),
            "exact_lengths": [format_scalar(x) for x in best.exact_lengths],
        }))
        return EXIT_OK
    print(f"tau = {best.tau!r} after {best.iteration} iterations"
          + ("" if best.converged else " (not converged)"))
    print("lengths:", " ".join(repr(x) for x in best.lengths))
    if best.pinned:
        print("pinned at floor (contraction candidates):", list(best.pinned))
    print(f"exact re-evaluation: tau = {format_scalar(best.exact_tau)}")
    return EXIT_OK


def _parse_params(text: str) -> dict:
    """``KEY=LO..HI`` or ``KEY=A,B,...`` entries split by ``;``; a malformed one is a usage error."""
    params: dict = {}
    for part in text.split(";") if text else ():
        key, _, raw = (x.strip() for x in part.partition("="))
        if key in params:
            raise MgtError(f"bad --params: key {key!r} is given more than once")
        try:
            if ".." in raw:
                lo, hi = raw.split("..", 1)
                params[key] = range(int(lo), int(hi) + 1)
                continue
            values = [parse_scalar(x) for x in raw.split(",")]  # a part with no "=" has no values
        except (ValueError, InputError):
            raise MgtError(f"bad --params entry {part!r}: expected KEY=LO..HI or KEY=A,B,...") from None
        params[key] = [int(x) if x.denominator == 1 else x for x in values]
    return params


def _run_scan(args) -> int:
    from .families import family_scan, scan_violations

    rows = family_scan(args.family, _parse_params(args.params))
    print("family,params,ratio")
    for row in rows:
        print(f"{row.family},{row.params},{format_scalar(row.ratio)}")
    bad = scan_violations(rows)
    if bad:
        for row in bad:
            print(f"CONJECTURE VIOLATION: {row.family} {row.params} ratio {row.ratio}",
                  file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# name -> (argument count, the positions of its graph files, builder); the files
# load first, then the builder gets mgt.ops and every argument in order and
# returns an OpResult
_OPS = {
    "delete": (2, (1,), lambda ops, e, g: ops.delete_edge(g, _integer(e, "edge"))),
    "contract": (2, (1,), lambda ops, e, g: ops.contract_edge(g, _integer(e, "edge"))),
    "identify": (3, (2,), lambda ops, p, q, g: ops.identify_points(g, _integer(p, "p"), _integer(q, "q"))),
    "add-edge": (4, (3,), lambda ops, p, q, length, g: ops.add_edge(
        g, _integer(p, "p"), _integer(q, "q"), _number(length, "length"))),
    "union1": (4, (2, 3), lambda ops, p1, p2, g1, g2: ops.union_one_point(
        g1, _integer(p1, "p1"), g2, _integer(p2, "p2"))),
    "union2": (6, (4, 5), lambda ops, p1, q1, p2, q2, g1, g2: ops.union_two_points(
        g1, g2, (_integer(p1, "p1"), _integer(q1, "q1")), (_integer(p2, "p2"), _integer(q2, "q2")))),
    "da-n": (2, (1,), lambda ops, n, g: ops.da_n(g, _integer(n, "n"))),
    "subdivide": (2, (1,), lambda ops, m, g: ops.subdivide(g, _integer(m, "m"))),
    "immerse": (4, (0, 1), lambda ops, g, beta, p, q: ops.immerse(
        g, [(beta, _integer(p, "p"), _integer(q, "q"))] * g.ecount)),
    "tower": (4, (3,), lambda ops, p, q, n, g: ops.c_tower(
        g, _integer(p, "p"), _integer(q, "q"), _integer(n, "n"))),
}


def _run_op(args) -> int:
    name = args.name
    count, files, build = _OPS[name]
    a = list(args.args)
    if len(a) != count:
        raise MgtError(f"op {name} takes {count} arguments, got {len(a)}")
    from . import ops

    for i in files:
        a[i] = fileio.load_graph(a[i])
    result = build(ops, *a)
    built = result.graph
    actual = tau_of(built)
    predicted = result.predicted_tau
    if args.out:  # written first, so a failed write prints no result
        fileio.save_graph(args.out, built)
    if args.json:
        print(_dumps({
            "predicted_tau": format_scalar(predicted),
            "tau": format_scalar(actual),
            "vertices": built.vcount,
            "edges": built.ecount,
            "formula": result.formula_id,
        }))
    else:
        agree = "agree" if predicted == actual else "DISAGREE"
        print(f"predicted tau: {format_scalar(predicted)} ({agree})")
        print(f"tau: {format_scalar(actual)}  (v={built.vcount}, e={built.ecount})")
    return EXIT_OK if predicted == actual else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
