"""The command line of mgt.cli: each verb's output, the refusal table, exit codes and cold start.

Each row of ``_REFUSALS`` is a command line that mgt refuses with its exit code (2 usage, 3 input),
nothing on stdout and one ``error:`` line on stderr. A verb imports its modules inside its handler
and builds only its own subparser; ``mgt --help``, no verb or an unknown verb build all of them,
and help, usage errors and exit codes read the same either way.
"""

import ast
import contextlib
import io
import json
import os
import random
import re
import resource
import shlex
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mgt import cli, families, fileio, ops
from mgt.cli import main
from mgt.fileio import format_graph_text, load_graph
from mgt.graph import build_graph, total_length
from mgt.rational import format_float, format_scalar
from mgt.suite import GraphGenerator
from mgt.tau import apq, tau_of


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.txt"
    path.write_text("v 1\ne 0 0 1\n")
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(format_graph_text(families.complete(4)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tau_circle(circle_file, capsys):
    code, out, _ = run_cli(capsys, "tau", circle_file)
    assert code == 0 and out.strip() == "1/12"


def test_tau_json_schema(k4_file, capsys):
    code, out, _ = run_cli(capsys, "tau", k4_file, "--json")
    doc = json.loads(out)
    assert code == 0
    assert set(doc) == {"tau", "length", "genus", "per_edge"}
    assert doc["tau"] == "5/96"
    assert doc["genus"] == 3
    assert all(set(e) == {"edge", "contribution", "R"} for e in doc["per_edge"])


def test_tau_float_digits(circle_file, capsys):
    code, out, _ = run_cli(capsys, "tau", circle_file, "--float")
    assert code == 0
    assert out.strip() == format(1 / 12, ".15g")


@pytest.mark.parametrize("argv", [["tau", "--per-edge"], ["resistance", "0:1/4", "1"],
                                  ["voltage", "0:1/4", "0", "1"], ["apq", "0", "1"],
                                  ["mucan"], ["gradient"], ["bounds"]])
def test_float_output_holds_no_fraction(tmp_path, capsys, argv):
    # a bridge (R = inf), parallel edges and a loop: every value --float prints is a float
    path = tmp_path / "bridge_loop.txt"
    path.write_text("v 3\ne 0 1 1/2\ne 1 2 1/3\ne 1 2 1/4\ne 2 2 1/5\n")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:], "--float")
    assert code == 0 and err == "" and out
    assert not [line for line in out.splitlines() if "/" in line]
    if argv[0] == "tau":
        assert "R inf" in out


def test_resistance_and_voltage_with_point_syntax(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("e 0 1 2\ne 1 0 2\n")
    code, out, _ = run_cli(capsys, "resistance", str(path), "0", "1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "voltage", str(path), "0:1", "0", "1")
    assert code == 0 and out.strip() == "1/4"


def test_apq_prints_the_closed_form(k4_file, capsys):
    # the kernel's A, the one every op formula reads; the other routes are the suite's checks
    value = apq(load_graph(k4_file), 0, 1)
    text = format_scalar(value)
    expected = {(): text, ("--json",): json.dumps({"apq": text}), ("--float",): format_float(value)}
    for flags, line in expected.items():
        assert run_cli(capsys, "apq", k4_file, "0", "1", *flags) == (0, line + "\n", "")
    code, out, err = run_cli(capsys, "apq", k4_file, "0", "1", "--method", "identity")
    assert code == 2 and out == "" and "unrecognized arguments: --method" in err


def test_mucan_and_gradient(circle_file, capsys):
    code, out, _ = run_cli(capsys, "mucan", circle_file)
    assert code == 0 and "total mass: 1" in out
    code, out, _ = run_cli(capsys, "gradient", circle_file)
    assert code == 0 and "1/12" in out


def test_bounds(k4_file, capsys):
    code, out, _ = run_cli(capsys, "bounds", k4_file)
    assert code == 0
    assert "VIOLATED" not in out


def test_bounds_float_prints_digits_and_json_stays_exact(k4_file, capsys):
    code, out, _ = run_cli(capsys, "bounds", k4_file, "--float")
    assert code == 0
    assert out.splitlines()[0] == "tau-upper-quarter: 0.0520833333333333 <= 0.25 ok"
    assert "/" not in out
    code, out, _ = run_cli(capsys, "bounds", k4_file, "--float", "--json")
    assert code == 0 and json.loads(out)[0]["lhs"] == "5/96"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["scan", "--family", "necklace"], ["tau"], ["--help"]],
                         ids=["scan", "tau", "help"])
def test_closed_stdout_exits_0_quietly(circle_file, argv, unbuffered):
    # the reader is gone before mgt writes a byte: buffered, the scan's rows meet
    # the broken pipe mid-run, tau's one line and the help text only when the
    # buffer is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONUNBUFFERED=unbuffered)
    argv = argv + [circle_file] if argv == ["tau"] else argv
    try:
        done = subprocess.run([sys.executable, "-m", "mgt.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


def test_out_file_on_a_closed_pipe_is_an_error(circle_file, tmp_path, monkeypatch, capsys):
    # only a closed stdout exits 0: a graph written into a pipe whose reader has
    # gone is cut short, so the run must fail
    read_end, write_end = os.pipe()
    os.close(read_end)
    real_open = open

    def open_for_write_on_the_pipe(path, mode="r", **kwargs):
        if mode == "w":
            return os.fdopen(write_end, "w", encoding="utf-8")
        return real_open(path, mode, **kwargs)

    monkeypatch.setattr(fileio, "open", open_for_write_on_the_pipe, raising=False)
    code, out, err = run_cli(capsys, "op", "da-n", "3", circle_file, "-o", str(tmp_path / "g.txt"))
    assert code == 3 and out == "" and "cannot write graph file" in err and "Broken pipe" in err


def test_op_roundtrip_output(tmp_path, circle_file, capsys):
    out_path = tmp_path / "result.txt"
    code, out, _ = run_cli(capsys, "op", "da-n", "3", circle_file, "-o", str(out_path))
    assert code == 0 and "agree" in out
    result = load_graph(str(out_path))
    assert result.ecount == 3
    # written graph re-parses identically
    text1 = format_graph_text(result)
    (tmp_path / "again.txt").write_text(text1)
    assert load_graph(str(tmp_path / "again.txt")) == result


def test_op_writes_json_graph_and_json_report(tmp_path, k4_file, capsys):
    expected = ops.da_n(load_graph(k4_file), 2)
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "op", "da-n", "2", k4_file, "-o", str(path))
    assert code == 0 and "(agree)" in out
    assert path.read_text().startswith('{"vertices": 4, ') and load_graph(str(path)) == expected.graph
    code, out, _ = run_cli(capsys, "op", "da-n", "2", k4_file, "--json")
    assert code == 0 and json.loads(out) == {
        "predicted_tau": "7/128", "tau": "7/128", "vertices": 4, "edges": 12,
        "formula": expected.formula_id}


@pytest.mark.parametrize("name", ["k4.json", "k4.graph"])
def test_tau_reads_a_json_graph_file(tmp_path, capsys, name):
    # by its .json suffix, or by a leading "{" under any name
    path = tmp_path / name
    path.write_text(json.dumps(fileio.graph_to_json(families.complete(4))))
    assert run_cli(capsys, "tau", str(path)) == (0, "5/96\n", "")
    code, out, _ = run_cli(capsys, "tau", str(path), "--json")
    assert code == 0 and json.loads(out)["tau"] == "5/96"


def test_point_and_measure_verbs_print_json(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("e 0 1 2\ne 1 0 2\n")
    c = str(path)
    expected = {
        ("resistance", c, "0", "1"): {"resistance": "1"},
        ("voltage", c, "0:1", "0", "1"): {"voltage": "1/4"},
        ("mucan", c): {"vertex_masses": [[0, "0"], [1, "0"]],
                       "edge_densities": [[0, "1/4"], [1, "1/4"]], "total_mass": "1"},
        ("gradient", c): {"gradient": ["1/12", "1/12"], "bridges": []},
    }
    for argv, doc in expected.items():
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (0, "") and json.loads(out) == doc, argv


def test_op_union2(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("e 0 1 2/5\n")
    b.write_text("e 0 1 3/5\n")
    code, out, _ = run_cli(capsys, "op", "union2", "0", "1", "0", "1", str(a), str(b))
    assert code == 0
    assert "1/12" in out


def test_verify_single_file(k4_file, capsys):
    code, out, _ = run_cli(capsys, "verify", k4_file)
    assert code == 0
    assert "0 failed" in out
    # the --suite ids are stripped
    code, out, err = run_cli(capsys, "verify", k4_file, "--suite", "thmbasic, genus-identity")
    assert (code, err) == (0, "") and out.endswith("2 passed, 0 skipped, 0 failed\n")


def test_verify_random_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--random", "--seed", "3", "--count", "2",
                           "--suite", "thmbasic,genus-identity", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(r["status"] in ("pass", "skip") for r in doc)
    code, out, _ = run_cli(capsys, "verify", "--random", "--suite", "genus-identity")  # 10 graphs
    assert code == 0 and out.endswith("10 passed, 0 skipped, 0 failed\n")


def test_verify_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--random", "--seed", "9", "--count", "2",
                             "--suite", "thmbasic")
    code2, out2, _ = run_cli(capsys, "verify", "--random", "--seed", "9", "--count", "2",
                             "--suite", "thmbasic")
    assert (code1, out1) == (code2, out2)


def test_mgt_seed_env(k4_file, monkeypatch, capsys):
    # --seed is the one seed source: verify defaults to 1, minimize to 0, and
    # MGT_SEED, well-formed or not, changes nothing
    def outputs(verify_seed=(), minimize_seed=()):
        return [run_cli(capsys, *args)[:2] for args in (
            ("verify", "--random", "--count", "1", "--suite", "thmbasic,lemApq", *verify_seed),
            ("verify", k4_file, "--suite", "lemApq", *verify_seed),
            ("minimize", k4_file, "--iters", "5", "--restarts", "2", "--json", *minimize_seed))]

    defaults = outputs(("--seed", "1"), ("--seed", "0"))
    assert outputs(("--seed", "2"), ("--seed", "3")) != defaults
    for value in ("17", "abc"):
        monkeypatch.setenv("MGT_SEED", value)
        assert outputs() == defaults


def test_verify_file_and_random_seed_their_checks_alike(tmp_path, capsys):
    # verify FILE checks its graph with the rng of corpus graph #0 of the same seed
    (descriptor, g), = GraphGenerator(1).graphs(1)
    path = tmp_path / "g0.txt"
    fileio.save_graph(str(path), g)
    code1, out1, _ = run_cli(capsys, "verify", str(path), "--seed", "1", "--json")
    code2, out2, _ = run_cli(capsys, "verify", "--random", "--seed", "1", "--count", "1", "--json")
    from_file, generated = json.loads(out1), json.loads(out2)
    assert code1 == code2 == 0 and len(from_file) == len(generated) > 40
    assert {r["graph"] for r in from_file} == {str(path)}
    assert {r["graph"] for r in generated} == {descriptor}
    for r in from_file + generated:
        del r["graph"]
    assert from_file == generated


def test_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "banana", "--params", "m=1..6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,params,ratio"
    assert any(line.startswith("banana,m=4,1/16") for line in lines)


def test_minimize_banana(tmp_path, capsys):
    path = tmp_path / "banana4.txt"
    path.write_text(format_graph_text(families.banana(F(2, 5), F(1, 5), F(1, 5), F(1, 5))))
    code, out, _ = run_cli(capsys, "minimize", str(path), "--iters", "400", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["tau"] - 1 / 16) < 1e-7


def test_minimize_restarts_on_bridged_topology(tmp_path, capsys):
    # the bridge is contracted away, so restart vectors must fit the smaller topology
    path = tmp_path / "dumbbell.txt"
    path.write_text(
        "e 0 1 1\ne 1 2 1\ne 2 0 1\ne 2 3 1\ne 3 4 1\ne 4 5 1\ne 5 3 1\n"
    )
    code, out, _ = run_cli(capsys, "minimize", str(path), "--iters", "60",
                           "--restarts", "2", "--seed", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["lengths"]) == 6


# `minimize --iters 30 --json` output, byte for byte: the float search's tau,
# lengths and iteration count and the exact re-evaluation at rounded lengths
_MINIMIZE_PINS = {
    ("complete4", ()): (
        '{"tau": 0.052083333333333336, "lengths": [0.16666666666666666, '
        '0.16666666666666666, 0.16666666666666666, 0.16666666666666666, '
        '0.16666666666666666, 0.16666666666666666], "iterations": 1, "converged": true, '
        '"pinned": [], "exact_tau": "5/96", "exact_lengths": ["1/6", "1/6", "1/6", '
        '"1/6", "1/6", "1/6"]}\n'
    ),
    ("cube", ()): (
        '{"tau": 0.03964120370370368, "lengths": [0.08333333333333331, '
        '0.08333333333333331, 0.08333333333333331, 0.08333333333333331, '
        '0.08333333333333331, 0.08333333333333331, 0.08333333333333331, '
        '0.08333333333333331, 0.08333333333333331, 0.08333333333333331, '
        '0.08333333333333331, 0.08333333333333331], "iterations": 1, "converged": true, '
        '"pinned": [], "exact_tau": "137/3456", "exact_lengths": ["1/12", "1/12", '
        '"1/12", "1/12", "1/12", "1/12", "1/12", "1/12", "1/12", "1/12", "1/12", '
        '"1/12"]}\n'
    ),
    ("necklace2", ("--restarts", "2", "--seed", "1")): (
        '{"tau": 0.04532495338295815, "lengths": [0.09339888905576868, '
        '0.09339888905576867, 0.09339888905576865, 0.09339888905576865, '
        '0.08523486132133992, 0.09339888905576867, 0.09339888905576865, '
        '0.09339888905576864, 0.09339888905576864, 0.08523486132133992, '
        '0.041169582455585524, 0.041169582455585385], "iterations": 30, '
        '"converged": false, "pinned": [], '
        '"exact_tau": "136058397196605475083626850612995891785/3001843069689666391682523016009120542192", '
        '"exact_lengths": ["11674060642703923/124991429348729284", '
        '"11674060642703923/124991429348729284", "11674060642703923/124991429348729284", '
        '"11674060642703923/124991429348729284", "5326813573399025/62495714674364642", '
        '"11674060642703923/124991429348729284", "11674060642703923/124991429348729284", '
        '"11674060642703923/124991429348729284", "11674060642703923/124991429348729284", '
        '"5326813573399025/62495714674364642", "1286461239187725/31247857337182321", '
        '"1286461239187725/31247857337182321"]}\n'
    ),
}


@pytest.mark.parametrize("name, extra", list(_MINIMIZE_PINS))
def test_minimize_json_is_pinned(tmp_path, capsys, name, extra):
    g = {"complete4": families.complete(4), "cube": families.cube(),
         "necklace2": families.necklace(1, 1, 2)}[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(format_graph_text(g))
    code, out, err = run_cli(capsys, "minimize", str(path), "--iters", "30", *extra, "--json")
    assert (code, err) == (0, "")
    assert out == _MINIMIZE_PINS[name, extra]


_SWEEP = Path(__file__).resolve().parent.parent / "tools" / "cli_sweep.py"


def test_cli_sweep_is_pinned():
    # tools/cli_sweep.py hashes argv, exit code, stdout and stderr of 155 valid
    # command lines over every verb but minimize; any change of output moves it
    done = subprocess.run([sys.executable, str(_SWEEP)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("155 calls, ")
    assert done.stdout == "debcbfdb5eeb09e473c73eb2e66ce7d32c8a2243f68ce4866c96f800f95d9846\n"


def test_cli_sweep_runs_every_op():
    # the sweep's OPS table, read without running the tool, names each op of the CLI
    table = next(ast.literal_eval(node.value) for node in ast.parse(_SWEEP.read_text()).body
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "OPS")
    assert set(cli._OPS) <= {args[0] for args in table}


def test_op_subdivide_disagrees_with_a_lengthened_piece(k4_file, monkeypatch, capsys):
    # subdivision predicts tau unchanged, so a subdivision that lengthens one piece
    # fails the op's check; it used to print tau alone and exit 0
    subdivide_uniform = ops.subdivide_uniform

    def lengthened(g, m):
        (a, b, length), *rest = (built := subdivide_uniform(g, m)).edges
        return build_graph(built.vcount, [(a, b, 2 * length), *rest])

    monkeypatch.setattr(ops, "subdivide_uniform", lengthened)
    code, out, err = run_cli(capsys, "op", "subdivide", "2", k4_file)
    assert (code, err) == (1, "")
    assert out.startswith("predicted tau: 5/96 (DISAGREE)\n")


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


USAGE, INPUT = cli.EXIT_USAGE, cli.EXIT_INPUT

# argv word -> the file written under that name; None is a path that is never written
_FILES = {
    "K4": format_graph_text(families.complete(4)), "TRI": "v 3\ne 0 1 1\ne 1 2 2\ne 2 0 1\n", "POINT": "v 1\n",
    "BRIDGE": "v 3\ne 0 1 1/2\ne 1 2 1/3\ne 1 2 1/4\ne 2 2 1/5\n",  # edge 0 is a bridge
    "BAD": "e 0 1 1/0\n", "BINARY": b"\xff\xfe\x00", "MISSING": None, "NODIR/g.txt": None,
    "HUGE": "e 0 1 1e400000\n",  # tau would not print within Python's int-to-text limit
}
# JSON graph file -> (its text, the error after "bad graph JSON: ")
_JSON_FILES = {
    "vertices-2.5.json": ('{"vertices": 2.5, "edges": [[0, 1, "1"]]}', "expected an integer"),
    "true-endpoint.json": ('{"vertices": 2, "edges": [[0, true, "1"]]}', "expected an integer"),
    "float-endpoint.json": ('{"vertices": 2, "edges": [[0.0, 1, "1"]]}', "expected an integer"),
    "string-vertices.json": ('{"vertices": "2", "edges": [[0, 1, "1"]]}', "expected an integer"),
    "list.json": ("[]", 'expected an object with "vertices" and "edges", got []'),
    "string.json": ('"s"', 'expected an object with "vertices" and "edges", got "s"'),
    "no-edges.json": ('{"vertices": 2}', 'missing "edges"'),
    "long-edge.json": ('{"vertices": 2, "edges": [[0, 1, "1/2", 5]]}',
                       'edge 0 must be [u, w, length], got [0, 1, "1/2", 5]'),
    "edge-object.json": ('{"vertices": 2, "edges": {"e": [0, 1, "1"]}}',
                         '"edges" must be a list of [u, w, length], got {"e": [0, 1, "1"]}'),
    "edge-string.json": ('{"vertices": 2, "edges": "e"}', '"edges" must be a list of [u, w, length], got "e"'),
    "null-length.json": ('{"vertices": 2, "edges": [[0, 1, null]]}',
                         "edge 0's length must be a string or a number, got null"),
    "zero-denominator.json": ('{"vertices": 2, "edges": [[0, 1, "1"], [1, 0, "1/0"]]}',
                              "edge 1's length: not an exact rational"),
}
_FILES |= {name: text for name, (text, _) in _JSON_FILES.items()}

# (argv, split as a shell would, with the words of _FILES for their files; exit code;
# text that the one stderr line holds, or is in full when it starts with "error: ")
_REFUSALS = [
    # a number typed on the command line is a usage error, not a bad input file
    *((f"resistance TRI 0:{x} 1", USAGE, f"bad point '0:{x}': not an exact rational: '{x}'")
      for x in ("abc", "1/0")),
    ("resistance TRI 0:1e2000 1", USAGE, "bad point '0:1e2000': a scalar of 2001 digits exceeds"),
    ("voltage TRI 0 0:1/0 1", USAGE, "bad point '0:1/0': not an exact rational"),
    *((f"op add-edge 0 1 {x} TRI", USAGE, f"bad length: not an exact rational: '{x}'") for x in ("abc", "-1/2/3")),
    # a signed number is a value, as -2 and -0.5 are, so mgt's own check refuses it
    *((f"op add-edge 0 1 {x} TRI", USAGE, "new edge length must be positive") for x in ("-1/2", "-1e3")),
    ("resistance TRI -1/2 1", USAGE, "bad point '-1/2': expected a vertex id or EDGE:OFFSET"),
    *((f"resistance K4 {point} 0", USAGE, f"bad point '{point}'") for point in ("q", ":1")),
    ("voltage K4 0 1 x:1/2", USAGE, "bad point 'x:1/2'"),
    # an integer argument that does not parse is named, with what was expected
    ("apq TRI x 1", USAGE, "error: bad p: expected an integer, got 'x'"),
    ("apq TRI 0 1.5", USAGE, "error: bad q: expected an integer, got '1.5'"),
    ("op tower 0 1 -1/2 TRI", USAGE, "error: bad n: expected an integer, got '-1/2'"),
    ("op delete 1.5 TRI", USAGE, "error: bad edge: expected an integer, got '1.5'"),
    ("op immerse TRI TRI 0 x", USAGE, "error: bad q: expected an integer, got 'x'"),
    ("op delete 0 0 K4", USAGE, "takes 2 arguments, got 3"),
    *((f"op {verb} {edge} K4", USAGE, f"edge {edge} out of range 0..5")
      for verb in ("delete", "contract") for edge in (-1, 6, 99)),
    *((argv, USAGE, "edge 0 does not exist: the graph has no edges") for argv in (
        "op delete 0 POINT", "op contract 0 POINT", "resistance POINT 0:1/3 0", "voltage POINT 0 0:1/2 0")),
    ("op delete 0 BRIDGE", USAGE, "error: deleting edge 0 disconnects the graph"),
    # K4 has vertices 0..3; the op verbs' vertex ids are test_op_vertex_out_of_range_is_usage_error's
    *((argv, USAGE, "vertex 7 out of range 0..3") for argv in ("apq K4 0 7", "apq K4 7 7", "apq K4 0 7 --json")),
    # a graph with no edges has no tau bounds, identities or search; its tau is 0
    ("bounds POINT", USAGE, "the tau bounds need a graph with at least one edge"),
    ("verify POINT", USAGE, "the identities need a graph with at least one edge"),
    ("minimize POINT", USAGE, "topology is a point once bridges are contracted"),
    ("verify K4 --suite bogus", USAGE, "error: unknown identity id(s): 'bogus'"),
    ("verify --random --count 1 --suite thmbasic,nope", USAGE, "error: unknown identity id(s): 'nope'"),
    *((f"verify K4 --suite '{suite}'", USAGE, "error: unknown identity id(s): ''")  # ids are stripped
      for suite in ("", "thmbasic,", "thmbasic, ,genus-identity")),
    ("verify K4 --random --count 1", USAGE, "error: need a FILE or --random, not both"),
    # --count sizes the random corpus only; with a FILE it used to be dropped silently
    *((f"verify K4 --count {count}", USAGE, "error: --count applies to --random only, not to a FILE")
      for count in (0, 1, 10)),
    *((f"verify --random --count {count}", USAGE, f"error: graph count must be >= 1, got {count}")
      for count in (-3, 0)),
    # an empty grid (LO > HI) would check nothing: it is refused by its key, not passed
    ("scan --family banana --params m=0..2", USAGE, "error: a banana needs m >= 1 edges, got 0"),
    ("scan --family complete --params v=1..3", USAGE, "needs v >= 2, got 1"),
    ("scan --family necklace --params t=0..2", USAGE, "needs t >= 1 diamonds, got 0"),
    ("scan --family complete --params v=5..2", USAGE, "got no value of v"),
    ("scan --family necklace --params a=3..2", USAGE, "got no value of a"),
    # past the direct-check limit no graph is built, so only the scan itself can refuse a
    *((f"scan --family necklace --params '{a}'", USAGE, "length a > 0") for a in ("a=-1/100;t=6", "a=0")),
    # a t >= 1 leaves diamond sides b = (1 - a t)/(5t) <= 0, so no row could be built
    ("scan --family necklace --params a=1", USAGE, "a=1, t=2"),
    ("scan --family necklace --params 'a=1/4;t=4,5'", USAGE, "a=1/4, t=4"),
    *((f"scan --family {family} --params {params}", USAGE, f"bad --params entry '{params}'")
      for family, params in (("complete", "v=a..b"), ("complete", "v"), ("necklace", "a=x"))),
    ("scan --family complete --params v=2.5", USAGE, "v takes integers, got 5/2"),
    ("scan --family necklace --params t=2.5", USAGE, "t takes integers, got 5/2"),
    ("scan --family circle --params k=0", USAGE, "a circle needs k >= 1 arcs, got 0"),
    # a key that counts in another family is still unknown here, fraction or not
    ("scan --family circle --params n=0..1", USAGE, "unknown key(s): n"),
    ("scan --family circle --params v=1.5", USAGE, "unknown key(s): v"),
    ("scan --family necklace --params check_limit=2", USAGE, "unknown key(s): check_limit"),
    ("scan --family necklace --params 't=2;t=3'", USAGE, "key 't' is given more than once"),
    ("scan --family banana --params 'm=3;m=4'", USAGE, "key 'm' is given more than once"),
    # a bad graph file exits 3
    ("tau BAD", INPUT, "error: line 1: not an exact rational: '1/0'"),
    ("tau HUGE", INPUT, "line 1: a scalar of 400001 digits exceeds the limit"),
    *((argv, INPUT, "cannot read graph file") for argv in ("tau MISSING", "bounds BINARY")),
    *((f"tau {name}", INPUT, f"bad graph JSON: {text}") for name, (_, text) in _JSON_FILES.items()),
    # the file is written before the result is printed, so a failed write prints nothing
    ("op da-n 3 TRI -o NODIR/g.txt", INPUT, "cannot write graph file"),
]


@pytest.fixture(scope="module")
def refusal_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("refusals")
    for name, content in _FILES.items():
        if content is not None:
            (root / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return {name: str(root / name) for name in _FILES}


@pytest.mark.parametrize("argv, code, text", _REFUSALS, ids=[argv for argv, _, _ in _REFUSALS])
def test_refusal(refusal_files, capsys, argv, code, text):
    # exit 2 or 3, nothing on stdout, one "error: " line on stderr that holds the text
    words = [refusal_files.get(word, word) for word in shlex.split(argv)]
    exit_code, out, err = run_cli(capsys, *words)
    assert (exit_code, out) == (code, "") and _one_error_line(err), err
    assert (err[:-1] == text) if text.startswith("error: ") else (text in err), err


# the refusal contract on G = K4 (vertices 0..3) and B = TRI (0..2); -1 would index from the end
@pytest.mark.parametrize("argv, vertex", [
    ("union2 0 1 -1 0 G B", "-1"), ("tower -1 0 2 G", "-1"), ("union2 0 1 0 5 G B", "5"), ("tower 0 9 2 G", "9"),
    ("union1 0 9 G B", "9"), ("immerse G B -1 0", "-1"), ("identify 0 9 G", "9"), ("add-edge 0 9 1 G", "9"),
    ("resistance G 0 9", "9"), ("voltage G 0 9 1", "9")])
def test_op_vertex_out_of_range_is_usage_error(refusal_files, capsys, argv, vertex):
    words = [{"G": "K4", "B": "TRI"}.get(a, a) for a in argv.split()]
    test_refusal(refusal_files, capsys, " ".join(([] if words[0] in cli._VERBS else ["op"]) + words), USAGE,
                 f"vertex {vertex} out of range 0..{2 if 'TRI' in words else 3}")


def test_readme_exit_codes_are_the_cli_codes():
    # README's "Exit codes:" sentence, its parentheses left out, names 0-4 in order
    meanings = {cli.EXIT_OK: "success", cli.EXIT_CHECK_FAILED: "a verification check failed",
                cli.EXIT_USAGE: "usage error", cli.EXIT_INPUT: "bad input file",
                cli.EXIT_INTERNAL: "internal error"}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = re.sub(r" \([^)]*\)", "", " ".join(readme.split("Exit codes: ", 1)[1].split()))
    assert sorted(meanings) == list(range(5))
    assert sentence.startswith(", ".join(f"{code} {meanings[code]}" for code in range(5)) + ". ")
    # the two classes that _main maps: an InputError exits 3, any other MgtError 2
    assert {code for _, code, _ in _REFUSALS} == {cli.EXIT_USAGE, cli.EXIT_INPUT}


def test_immerse_and_tower_normalize_their_input_files(tmp_path, capsys):
    # a file of any total length gives the operation on its normalized graph;
    # an edgeless file has no length to normalize and is a usage error, though its tau is 0
    files = {}
    for name, g in (("long", families.theta(1, 2, 3)), ("unit", families.theta(F(1, 6), F(1, 3), F(1, 2))),
                    ("point", build_graph(1, []))):
        files[name] = str(tmp_path / f"{name}.txt")
        fileio.save_graph(files[name], g)
    for argv in (("immerse", "{}", "{}", "0", "1"), ("tower", "0", "1", "2", "{}")):
        long_run = run_cli(capsys, "op", *(a.format(files["long"]) for a in argv))
        assert long_run[0] == 0 and "(agree)" in long_run[1]
        assert run_cli(capsys, "op", *(a.format(files["unit"]) for a in argv)) == long_run
        code, out, err = run_cli(capsys, "op", *(a.format(files["point"]) for a in argv))
        assert code == 2 and out == "" and _one_error_line(err), err
    assert run_cli(capsys, "tau", files["point"]) == (0, "0\n", "")


def test_float_past_double_range_prints_digits(tmp_path, capsys):
    # a 401-digit length: tau = length/12 is past the double range
    length = 10**400 + 7
    path = tmp_path / "huge_triangle.txt"
    path.write_text(f"e 0 1 {length}\ne 1 2 1\ne 2 0 1\n")
    code, out, err = run_cli(capsys, "tau", str(path), "--float")
    assert code == 0 and err == ""
    assert out.strip() == "8.33333333333333e+398"


def test_minimize_rejects_bad_flags(k4_file, capsys):
    for flags in (("--iters", "-1"), ("--restarts", "-2"), ("--tol", "nan"),
                  ("--tol", "-1e-9"), ("--tol", "-inf")):
        code, out, err = run_cli(capsys, "minimize", k4_file, *flags)
        assert code == 2 and out == ""
        assert f"argument {flags[0]}" in err and "Traceback" not in err


def _k4_past_int_text_limit(tmp_path):
    """K4 with lengths within the input limit whose tau has more than 4300 digits, and its file."""
    rng = random.Random(7)
    lengths = [F(rng.randrange(10**498, 10**499), rng.randrange(10**498, 10**499)) for _ in range(6)]
    g = build_graph(4, [(a, b, lengths.pop()) for a in range(4) for b in range(a + 1, 4)])
    path = tmp_path / "k4big.txt"
    path.write_text(format_graph_text(g))
    return g, str(path)


def test_tau_prints_past_int_text_limit(tmp_path, capsys):
    g, path = _k4_past_int_text_limit(tmp_path)
    code, out, err = run_cli(capsys, "tau", path)
    assert code == 0 and err == ""
    num, den = out.strip().split("/")
    assert len(num) > 4300
    assert F(int(Decimal(num)), int(Decimal(den))) == tau_of(g)


def test_crash_is_internal_error(circle_file, capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_run_tau", crash)
    code, out, err = run_cli(capsys, "tau", circle_file)
    assert code == cli.EXIT_INTERNAL == 4 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_huge_vertex_header_allocates_nothing(tmp_path):
    # v - 1 > e rules out connectivity before any per-vertex list is built;
    # the address-space cap turns a per-vertex allocation into a failure
    path = tmp_path / "sparse.txt"
    path.write_text(f"v {10**15}\ne 0 1 1\n")
    cap = 256 << 20
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-m", "mgt.cli", "tau", str(path)],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert done.returncode == 3 and done.stdout == ""
    assert _one_error_line(done.stderr) and "not connected" in done.stderr


@pytest.mark.parametrize("argv", [
    ["op", "da-n", "99999999", "K4"], ["op", "subdivide", "99999999", "K4"],
    ["op", "tower", "0", "1", "60", "K4"],
    ["scan", "--family", "complete", "--params", "v=100000"],
    ["scan", "--family", "banana", "--params", "m=100000000"],
    ["scan", "--family", "circle", "--params", "k=100000000"],
    ["op", "immerse", "C300", "C300", "0", "150"],
    ["scan", "--family", "necklace", "--params", "a=1/100000000000;t=5..30000000"],
], ids=["da-n", "subdivide", "tower", "complete", "banana", "circle", "immerse", "necklace"])
def test_too_large_result_is_usage_error(k4_file, tmp_path, argv):
    # the result's size is counted from the arguments, or from the input files'
    # sizes, before anything is built; the address-space cap makes a build that
    # starts anyway fail fast with exit 4
    circle = tmp_path / "c300.txt"
    circle.write_text(format_graph_text(families.circle(*[1] * 300)))
    files = {"K4": k4_file, "C300": str(circle)}
    cap = 512 << 20
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-m", "mgt.cli", *(files.get(a, a) for a in argv)],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert done.returncode == 2 and done.stdout == "", done.stderr
    assert _one_error_line(done.stderr) and "exceeds the limit" in done.stderr


def _imported_modules(argv):
    """(finished run, names of every module it imported) for ``mgt`` with argv.

    -X importtime lists each import on stderr; -S keeps site hooks, which
    may import anything, out of the list.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "mgt.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    return done, imported


def test_cli_tau_does_not_load_numpy(circle_file):
    # numpy is for the float optimizer only (minimize); the scans are exact
    done, imported = _imported_modules(["tau", circle_file])
    assert done.returncode == 0 and done.stdout == "1/12\n"
    assert "mgt.tau" in imported and "numpy" not in imported
    done, imported = _imported_modules(["scan", "--family", "banana"])
    assert done.returncode == 0 and done.stdout.startswith("family,params,ratio\nbanana,m=1,")
    assert "mgt.families" in imported and not {"numpy", "mgt.optimize"} & imported


# what the single-graph verbs never need: the identity suite, the operations,
# the other routes and json, which only --json output and JSON graph files use
_OTHER_VERBS = {"mgt.suite", "mgt.ops", "mgt.integration", "mgt.reduction", "mgt.families",
                "mgt.optimize", "json"}


@pytest.mark.parametrize("argv, loaded, absent", [
    (["tau", "K4"], {"mgt.tau"}, _OTHER_VERBS),
    (["verify", "K4", "--suite", "genus-identity"], {"mgt.suite"}, set()),
    (["resistance", "K4", "0", "1"], {"mgt.circuit"}, _OTHER_VERBS),
    (["mucan", "K4"], {"mgt.tau"}, _OTHER_VERBS),
    (["bounds", "K4"], {"mgt.tau"}, _OTHER_VERBS),
    (["apq", "K4", "0", "1"], {"mgt.tau"}, _OTHER_VERBS),
    (["op", "da-n", "2", "K4"], {"mgt.ops"}, {"mgt.suite"}),
], ids=["tau", "verify", "resistance", "mucan", "bounds", "apq", "op-da-n"])
def test_cli_cold_start_skips_dataclasses(k4_file, argv, loaded, absent):
    # each verb imports only the modules it runs. dataclasses pulls in inspect,
    # ast, dis and tokenize, about 10 ms of every run; mgt's records are
    # NamedTuples and plain classes instead
    done, imported = _imported_modules([k4_file if a == "K4" else a for a in argv])
    assert done.returncode == 0, done.stderr
    assert loaded <= imported and not absent & imported
    assert not {"dataclasses", "inspect"} & imported


def _parse_outcome(parser, argv, capsys):
    """(parsed arguments or exit code, stdout, stderr) of one parse."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


_BAD_VALUE = {  # per verb: arguments past the verb that argparse refuses
    "tau": ["F", "--base", "x"],
    "resistance": ["F", "0", "1", "--bogus"],
    "voltage": ["F", "x", "p", "q", "extra"],
    "apq": ["F", "0"],
    "mucan": ["F", "--bogus"],
    "gradient": ["F", "--float", "extra"],
    "bounds": ["F", "--json", "--bogus"],
    "verify": ["--count", "x"],
    "minimize": ["F", "--iters", "-1"],
    "scan": ["--family", "cube"],
    "op": ["nope", "x"],
}


@pytest.mark.parametrize("argv", [
    *([verb, *tail] for verb, bad in _BAD_VALUE.items() for tail in (["--help"], [], bad)),
    ["--help"], [], ["bogus"], ["-h", "tau"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_verb_parser_matches_full_parser(argv, capsys):
    # a run builds only the subparser of the verb it names; help, usage errors
    # and exit codes must read as they do with every verb registered
    verb = argv[0] if argv else None
    one = cli._build_parser(verb)
    verbs = next(action.choices for action in one._actions if action.dest == "verb")
    assert list(verbs) == ([verb] if verb in _BAD_VALUE else list(_BAD_VALUE))
    full = _parse_outcome(cli._build_parser(), argv, capsys)
    assert _parse_outcome(one, argv, capsys) == full
    if not isinstance(full[0], dict):  # main stops at the parser as well
        assert run_cli(capsys, *argv) == (cli.EXIT_USAGE if full[0] else cli.EXIT_OK, *full[1:])


def test_readme_synopsis_names_every_option_of_each_verb():
    # per verb, the options on its lines of README's CLI block, comments left out
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis: dict[str, set[str]] = {}
    for line in block.splitlines():
        mgt, verb, *rest = line.split("#", 1)[0].split()
        assert mgt == "mgt", line
        synopsis.setdefault(verb, set()).update(re.findall(r"(?<![\w-])--?[a-z][\w-]*", " ".join(rest)))
    assert sorted(synopsis) == sorted(cli._VERBS)
    for verb in cli._VERBS:
        parser = cli._build_parser(verb)
        [verbs] = [action for action in parser._actions if action.dest == "verb"]
        accepted = {s for action in verbs.choices[verb]._actions for s in action.option_strings}
        assert synopsis[verb] == accepted - {"-h", "--help"}, verb


def test_verify_json_prints_past_int_text_limit(tmp_path, capsys):
    # check values go through the same digit path as every other exact result
    g, path = _k4_past_int_text_limit(tmp_path)
    code, out, err = run_cli(capsys, "verify", path, "--suite", "FMM1-bounds", "--json")
    assert code == 0 and err == ""
    (row,) = json.loads(out)
    assert row["status"] == "pass" and len(row["rhs"]) > 4300
    num, den = row["rhs"].split("/")
    assert F(int(Decimal(num)), int(Decimal(den))) == total_length(g) / 4


_BAD_PARAMS = ("v=a..b", "v=2.5", "t=2.5", "v", "k=0")
_DAMAGE = ("e 0", "w 1 2", "e 0 1 0", "e 0 1 -1", "e 0 1 x", "e 0 9 1", "v 9", "e 0 1 1e3", "# note")
_IDS = ("all", "genus-identity", "coradding2,cor2twopunion", "thmbasic2", "FMM1-bounds", "bogus")
_OPS = ("delete", "contract", "identify", "add-edge", "union1", "union2", "da-n",
        "subdivide", "immerse", "tower", "bogus")


@st.composite
def _graph_texts(draw):
    # a connected graph (a path plus extra edges and loops); one file in four is damaged
    v = draw(st.integers(1, 4))
    extra = draw(st.lists(st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)), max_size=3))
    lengths = st.sampled_from(("1", "2", "1/2", "3/7", "0.25"))
    lines = [f"v {v}"] + [f"e {a} {b} {draw(lengths)}"
                          for a, b in [(i, i + 1) for i in range(v - 1)] + extra]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_DAMAGE)))
    return "\n".join(lines) + "\n"


_ID_COUNT = {"resistance": 2, "voltage": 3, "apq": 2}  # the vertex ids each verb reads


@st.composite
def _argvs(draw, path):
    small = st.integers(-1, 4).map(str)
    point = st.one_of(small, st.sampled_from(["0:1/2", "1:0", "9:1", "0:x", "q", ":1"]))
    flags = st.lists(st.sampled_from(["--json", "--float", "--per-edge", "--bogus"]), max_size=2)
    output = st.lists(st.sampled_from(["--json", "--float"]), max_size=2)
    if draw(st.booleans()):  # an otherwise valid argument list, so that --float reaches the output
        verb = draw(st.sampled_from(["tau", "resistance", "voltage", "apq", "mucan", "gradient", "bounds"]))
        ids = [draw(st.sampled_from("01")) for _ in range(_ID_COUNT.get(verb, 0))]
        return [verb, path, *ids, "--float"]
    verb = draw(st.sampled_from(["tau", "resistance", "voltage", "apq", "mucan", "gradient",
                                 "bounds", "verify", "op", "minimize", "scan", "nonsense"]))
    if verb == "tau":
        argv = [verb, path, *draw(flags)]
        if draw(st.booleans()):
            argv += ["--base", draw(small)]
    elif verb in ("resistance", "voltage"):
        argv = [verb, path, *draw(st.lists(point, min_size=2, max_size=3)), *draw(output)]
    elif verb == "apq":
        argv = [verb, path, draw(small), draw(small), *draw(output)]
    elif verb in ("mucan", "gradient", "bounds"):
        argv = [verb, path, *draw(flags)]
    elif verb == "verify":
        argv = [verb, path, "--suite", draw(st.sampled_from(_IDS)), "--seed", draw(small)]
        if draw(st.booleans()):
            argv.append("--json")
    elif verb == "op":
        argv = [verb, draw(st.sampled_from(_OPS)), *draw(st.lists(small, max_size=4)), path]
        if draw(st.booleans()):
            argv.append("--json")
    elif verb == "minimize":
        argv = [verb, path, "--iters", draw(st.sampled_from(["1", "5", "0", "-2"]))]
        if draw(st.booleans()):
            argv += ["--restarts", draw(st.sampled_from(["0", "2", "-1"]))]
        if draw(st.booleans()):
            argv += ["--tol", draw(st.sampled_from(["1e-10", "0", "nan", "-1e-3"]))]
    elif verb == "scan":
        params = _BAD_PARAMS + ("v=2..4", "m=1,2", "a=1/8;t=2", "k=1..2")
        argv = [verb, "--family", draw(st.sampled_from(["complete", "banana", "necklace", "circle"])),
                "--params", draw(st.sampled_from(params))]
    else:
        argv = [verb, path]
    return argv


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=list(HealthCheck))
@given(st.data())
def test_cli_exit_codes_hold_on_random_input(data):
    # no input or argument list crashes the CLI; 1 means a check reported a failure
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w") as fh:
            fh.write(data.draw(_graph_texts()))
        argv = data.draw(_argvs(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    assert code in (0, 1, 2, 3), (argv, err)
    if argv[0] == "minimize" and any(v == "nan" or v.startswith("-") for v in argv[3::2]):
        assert code == 2, (argv, err)  # a negative count or tolerance, or a NaN tolerance
    if argv[0] == "scan" and argv[-1] in _BAD_PARAMS:
        assert code == 2, (argv, err)
    if code in (2, 3):  # nothing on stdout; one error line, or argparse's usage and its error line
        lines = err.splitlines()
        assert out == "" and (_one_error_line(err) or lines[0].startswith("usage: mgt")
                              and re.match(r"mgt[^:]*: error: ", lines[-1])), (argv, err)
    if "--json" in argv and code in (0, 1):
        json.loads(out)
    if "--float" in argv and "--json" not in argv and code == 0:  # --json stays exact
        assert "/" not in out, (argv, out)
    if code == 1:
        reported = ("FAIL " in out or '"status": "fail"' in out or "VIOLATED" in out
                    or '"holds": false' in out or "DISAGREE" in out)
        assert argv[0] in ("verify", "bounds", "op") and reported, (argv, out)
