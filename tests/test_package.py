"""The package as a whole: its exports resolve on first access (PEP 562), every import and
public definition is read, the tools' tables hold, and every public id or count is checked."""

import ast
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mgt
from mgt import circuit, families, graph, integration, ops, tau
from mgt.errors import BadN, MgtError


def test_every_export_resolves():
    for name in mgt.__all__:
        assert getattr(mgt, name) is not None
    assert mgt.MetrizedGraph is graph.MetrizedGraph
    assert mgt.tau_edge_sum is tau.tau_edge_sum
    assert set(mgt.__all__) <= set(dir(mgt))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from mgt import *", namespace)
    assert set(mgt.__all__) <= namespace.keys()
    assert namespace["TauReport"] is tau.TauReport


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        mgt.nonexistent
    assert not hasattr(mgt, "nonexistent")


def test_importing_one_module_loads_only_its_imports():
    # a fresh interpreter, with -S so that no site hook imports anything
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, mgt.tau; print(*sorted(m for m in sys.modules if m.startswith('mgt')))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "mgt.tau" in loaded
    assert not {"mgt.integration", "mgt.suite", "mgt.ops"} & loaded


def test_every_imported_name_is_read():
    # an import that no line of its module reads is dead code, in the package,
    # its tests and its tools alike; and no module of the package imports sympy or
    # networkx, which the tests read as outside references
    root, package = Path(__file__).resolve().parent.parent, Path(mgt.__file__).parent
    paths = [path for folder in (package, root / "tests", root / "tools")
             for path in sorted(folder.glob("*.py"))]
    unused, outside = [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
                    module = alias.name if isinstance(node, ast.Import) else node.module or ""
                    if path.parent == package and module.split(".")[0] in ("sympy", "networkx"):
                        outside.append(f"{path.name}:{node.lineno}: {module}")
    assert not unused and not outside, unused + outside


def _names_read(tree, dotted=False):
    """Every name a module loads or reads as an attribute; with ``dotted``, also the
    names it imports and each part of a dotted string such as "circuit.context"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif dotted and isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif dotted and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_every_public_definition_is_run_outside_the_tests():
    # code that only the tests reach belongs in tests/oracles.py: each public
    # module-level function or class of mgt is read elsewhere in mgt, exported,
    # or named by the benchmark or the tools
    root = Path(__file__).resolve().parent.parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(mgt.__file__).parent.glob("*.py"))}
    used = {name for tree in trees.values() for name in _names_read(tree)} | set(mgt.__all__)
    for folder in ("taubench", "tools"):
        for path in sorted((root / folder).glob("*.py")):
            used |= set(_names_read(ast.parse(path.read_text(encoding="utf-8")), dotted=True))
    unrun = [f"{name}:{node.lineno}: {node.name}" for name, tree in trees.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_") and node.name not in used]
    assert not unrun


def test_benchmark_tracer_binds_every_name_a_layer_metric_needs():
    # taubench reports a layer metric as "absent" once a function it names is
    # renamed or removed; the tracer wraps mgt in a fresh interpreter, so this
    # process stays unwrapped
    bench = Path(__file__).resolve().parent.parent / "taubench"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run, tracer; "
            "bound = tracer.install(tracer.Tracer()).bound; "
            "print(*sorted({k for m in run.LAYER_METRICS for k in m[3]} - bound))")
    done = subprocess.run([sys.executable, "-c", code, str(bench)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def _tool(name):
    """``tools/<name>.py`` as a module."""
    tools = str(Path(__file__).resolve().parent.parent / "tools")
    sys.path.insert(0, tools)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(tools)


def test_bench_record_counts_lines_as_wc_does():
    # the record's ``lines`` block is where the line-count aim is read off
    root = Path(__file__).resolve().parent.parent
    bench_record = _tool("bench_record")
    counts = bench_record._line_counts()
    for folder in ("src/mgt", "tests"):
        paths = sorted((root / folder).glob("*.py"))
        wc = subprocess.run(["wc", "-l", *map(str, paths)], capture_output=True, text=True,
                            check=True).stdout.split()
        assert counts[folder]["total"] == int(wc[-2])  # "<n> total" closes wc's listing
        assert sorted(counts[folder]["files"]) == [p.name for p in paths]


def test_bench_record_summary_counts_strict_wins_and_resolves_past_the_parent_iqr():
    # the record's summary is where a claimed gain is read off
    bench_record = _tool("bench_record")

    def summary(parent, change, better):
        pairs = [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]
        return bench_record._summary(pairs, "m", better)

    parent = [1, 2, 3, 4]  # median 2.5, quartiles 1.25 and 3.75: an IQR of 2.5
    mixed = summary(parent, [1, 3, 2, 4], "higher")  # one better, one worse, two ties
    assert mixed["wins"] == 1 and summary(parent, [1, 3, 2, 4], "lower")["wins"] == 1
    assert (mixed["parent_q1"], mixed["parent_median"], mixed["parent_q3"]) == (1.25, 2.5, 3.75)
    assert not mixed["resolved"] and mixed["pairs"] == 4
    # resolved iff the medians lie further apart than the parent's IQR, in either direction
    assert not summary(parent, [5] * 4, "higher")["resolved"]  # a gap of 2.5 exactly
    assert summary(parent, [5.5] * 4, "higher")["resolved"]
    assert not summary(parent, [0] * 4, "lower")["resolved"]
    assert summary(parent, [-0.5] * 4, "lower")["resolved"]
    assert summary(parent, [5.5] * 4, "lower")["wins"] == 0
    one = summary([2], [3], "higher")  # one pair: its parent value is every quartile
    assert one["wins"] == 1 and one["resolved"] and one["change_over_parent"] == 1.5
    assert (one["parent_q1"], one["parent_q3"]) == (2, 2)


def test_bench_record_verify_entry_compares_the_parent_digest():
    # the record alone shows whether a change moved a number of verify's output
    bench_record = _tool("bench_record")
    out = b'[{"status": "pass"}, {"status": "skip"}, {"status": "pass"}]'
    entry = bench_record._verify_entry([3.0, 1.0, 2.0], [out] * 3, out)
    assert entry["sha256"] == entry["parent_sha256"] == hashlib.sha256(out).hexdigest()
    assert entry["same"] is True and entry["statuses"] == {"pass": 2, "skip": 1}
    assert entry["wall_s_median"] == 2.0 and entry["argv"][:2] == ["mgt", "verify"]
    moved = bench_record._verify_entry([1.0], [out], out.replace(b"skip", b"pass"))
    assert moved["same"] is False and moved["sha256"] == entry["sha256"] != moved["parent_sha256"]
    with pytest.raises(SystemExit, match="differs between runs"):
        bench_record._verify_entry([1.0, 1.0], [out, out + b"\n"], out)


def test_bench_record_mutants_entry_counts_the_survivors():
    # the record's mutants block is where the kill run of tools/mutants.py is read off
    bench_record = _tool("bench_record")
    total = len(_tool("mutants").MUTANTS)
    survivors = [{"id": "tau-sum-slope-weight-dropped", "file": "src/mgt/tau.py", "pytest_exit": 0},
                 {"id": "apq-q-read-from-p", "file": "src/mgt/cli.py", "pytest_exit": 4}]
    entry = bench_record._mutants_entry(json.dumps(survivors).encode() + b"\n", "abc123")
    assert entry == {"argv": ["python", "tools/mutants.py", "HEAD"], "commit": "abc123", "total": total,
                     "killed": total - 2, "survivors": survivors}
    assert bench_record._mutants_entry(b"[]\n", "abc123")["killed"] == total > 40


def test_a_mutant_is_killed_only_by_a_failure_of_each_named_test():
    # a row that names two tests must see both fail; a bare name stands for its parametrized cases
    named_in, failed = _tool("mutants")._named_in, {"t.py::a[x]", "t.py::b"}
    assert named_in("t.py::a", failed) and named_in("t.py::a[x]", failed) and named_in("t.py::b", failed)
    assert not any(named_in(name, failed) for name in ("t.py::a[y]", "t.py::b[x]", "t.py::c"))


def test_each_mutant_old_text_occurs_once_in_its_file():
    # a stale row of tools/mutants.py would mutate nothing or the wrong line
    root = Path(__file__).resolve().parent.parent
    rows = _tool("mutants").MUTANTS
    assert len({row[0] for row in rows}) == len(rows)
    for ident, name, old, new, tests in rows:
        assert (root / name).read_text(encoding="utf-8").count(old) == 1, ident
        assert new != old and tests, ident


def test_each_mutant_names_collected_tests(request):
    # a renamed test would turn its row into a survivor that shows only when tools/mutants.py runs;
    # a whole run's session holds every node id, and a partial run collects the named files instead
    mutants = _tool("mutants")
    named = sorted({test for row in mutants.MUTANTS for test in row[4]})
    collected = {item.nodeid for item in request.session.items}
    if not all(mutants._named_in(test, collected) for test in named):
        files = sorted({test.split("::")[0] for test in named})
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
                               *files], cwd=Path(__file__).resolve().parent.parent, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout
        collected = {line for line in done.stdout.splitlines() if "::" in line}
    assert [test for test in named if not mutants._named_in(test, collected)] == []


def test_readme_names_every_export_in_its_module_row():
    # README's library table is where a reader finds each public name of mgt
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = {line.split("`")[1]: line for line in readme.splitlines() if line.startswith("| `mgt.")}
    unnamed = [name for name in mgt.__all__ if f"`{name}`" not in rows.get(f"mgt.{mgt._EXPORTS[name]}", "")]
    assert not unnamed


_K4 = families.complete(4)  # vertices 0..3, edges 0..5
_W = object()  # where the value under test goes in a call's arguments
_AT = F(1, 12)  # an offset inside every edge of K4
_K4_MINUS_0 = circuit.context(_K4).deleted(0)  # a GreenUpdate, whose readers take vertex ids

# (public function or method, the kind of value it takes in _W's place, its arguments on K4): a vertex
# or an edge is an id of K4, a count an int >= 1; a point is tried as each kind of id
_ID_CALLS = [
    (graph.build_graph, "count", (_W, [(0, 0, 1)])),
    (graph.build_graph, "vertex", (4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, _W, 1)])),
    (graph.check_vertices, "vertex", (_K4, 0, _W)),
    (graph.check_count, "count", (_W, BadN, "n")),
    (graph.insert_points, "vertex", (_K4, [0, _W])),
    (graph.insert_points, "edge", (_K4, [(0, _AT), (_W, _AT)])),
    (circuit.resistance, "vertex", (_K4, _W, 1)),
    (circuit.resistance, "edge", (_K4, 0, (_W, _AT))),
    (circuit.voltage, "edge", (_K4, (_W, _AT), 0, 1)),
    (circuit.voltage, "vertex", (_K4, 2, _W, 1)),
    (circuit.voltage, "edge", (_K4, 2, 0, (_W, _AT))),
    (circuit.solve_pair_resistances, "vertex", (_K4, [(0, 1), (0, _W)])),
    (tau.tau_edge_sum, "vertex", (_K4, _W)),
    (tau.deleted_apq_of, "edge", (circuit.context(_K4), _W)),
    (_K4_MINUS_0.res_num, "vertex", (_W, 0)),
    (_K4_MINUS_0.res_num, "vertex", (1, _W)),
    (_K4_MINUS_0.row, "vertex", (_W,)),
    (ops.union_one_point, "vertex", (_K4, _W, _K4, 0)),
    (ops.union_one_point, "vertex", (_K4, 0, _K4, _W)),
    (ops.union_two_points, "vertex", (_K4, _K4, (0, _W), (0, 1))),
    (ops.union_two_points, "vertex", (_K4, _K4, (0, 1), (_W, 1))),
    (ops.immerse, "vertex", (_K4, [(_K4, 0, _W)] * 6)),
    (ops.c_tower, "count", (_K4, 0, 1, _W)),
    (integration.fit_edge_function, "edge", (_K4, _W, lambda x: F(0), 1)),
    (integration.edge_tag_polynomials, "edge", (_K4, 0, 1, _W)),
    *((fn, "vertex", args + rest) for fn, rest in (
        (graph.identify_points_graph, ()), (tau.apq, ()), (tau.apq_identity, ()), (ops.identify_points, ()),
        (ops.add_edge, (1,)), (ops.c_tower, (2,)), (integration.edge_tag_polynomials, (0,)),
        (integration.integrate_product, ([],)), (integration.apq_direct, ()))
      for args in ((_K4, _W, 1), (_K4, 0, _W))),
    *((fn, "edge", (_K4, _W)) for fn in (graph.delete_edge_graph, graph.edge_at, tau.deleted_apq,
                                         ops.delete_edge, ops.contract_edge)),
    *((fn, kind, (_K4, x)) for fn in (graph.normalize_point, graph.insert_point)
      for kind, x in (("vertex", _W), ("edge", (_W, _AT)))),
    *((fn, "count", (_K4, _W)) for fn in (graph.subdivide_uniform, ops.parallel_split_tau, ops.da_n,
                                          ops.subdivide)),
    *((fn, "count", args) for fn, args in ((families.equal_banana, (_W,)), (families.complete, (_W,)),
                                           (families.necklace, (1, 1, _W)),
                                           (families.necklace_tau, (1, 1, _W)))),
]
# parameters by these names that take no id of a graph: an interpolated polynomial's
# edge label, and the marks that marked_edge_sums groups the host edges by
_NOT_IDS = {(integration.interpolate, "edge"), (ops.marked_edge_sums, "betas")}
_ID_NAMES = {"vertex_count", "edge_list", "edge_id", "edge", "p", "q", "x", "y", "z", "p1", "p2",
             "pq1", "pq2", "vertices", "points", "pairs", "betas", "base", "m", "n", "t", "v"}


def _put(value, arg):
    """arg with _W, at any depth of lists and tuples, replaced by value."""
    if arg is _W:
        return value
    return type(arg)(_put(value, a) for a in arg) if type(arg) in (list, tuple) else arg


def test_id_table_names_every_id_parameter():
    # a public function that gains a vertex, edge, point or count parameter joins the table;
    # the methods in it are not inventoried
    named = {(fn, name) for module in (graph, circuit, tau, ops, integration, families)
             for fn in vars(module).values()
             if inspect.isfunction(fn) and fn.__module__ == module.__name__ and fn.__name__[0] != "_"
             for name in inspect.signature(fn).parameters if name in _ID_NAMES}
    tried = {(fn, name) for fn, _, args in _ID_CALLS if inspect.isfunction(fn)
             for name, value in inspect.signature(fn).bind(*args).arguments.items()
             if _put(None, value) != value}  # the arguments that hold _W
    assert named - _NOT_IDS == tried


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=list(HealthCheck))
@given(vertex=st.one_of(st.floats(), st.fractions(), st.integers(max_value=-1), st.integers(min_value=4)),
       edge=st.one_of(st.floats(), st.fractions(), st.integers(max_value=-1), st.integers(min_value=6)),
       count=st.one_of(st.floats(), st.fractions(), st.integers(max_value=0), st.just(True)))
def test_library_refuses_a_bad_id_or_count(vertex, edge, count):
    # a float, a Fraction, a negative or an out-of-range id, and any count but an int >= 1,
    # is an MgtError: never a TypeError, an IndexError or an index that wraps (a bool id is an int)
    values = {"vertex": vertex, "edge": edge, "count": count}
    wrong = []
    for fn, kind, args in _ID_CALLS:
        try:
            fn(*_put(values[kind], args))
        except MgtError:
            continue
        except Exception as exc:
            wrong.append((fn.__name__, kind, type(exc).__name__))
        else:
            wrong.append((fn.__name__, kind, "no error"))
    assert not wrong
