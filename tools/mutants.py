"""Replay a table of source mutants against the tests that must kill them.

Usage (from the repository root):

    python3 tools/mutants.py [COMMIT]

COMMIT (default ``HEAD``) is exported with ``git archive`` into a temporary
directory. For each row of ``MUTANTS``, one at a time, the row's old text is
replaced by its new text in its file there, the row's tests run with
``pytest -rf`` (not ``-x``, so every test of the row runs), and the file is put
back. A mutant is killed when pytest exits 1 and every test the row names has at
least one ``FAILED`` line; a name without brackets matches each of its
parametrized cases. A pass, a named test that passes, or any other exit (a test
id not found, a mutant that breaks collection) leaves it a survivor. One line
per mutant goes to stderr, the survivors go to stdout as one JSON list, and the
exit code is 1 if there is any survivor. No bytecode is written in the copy, so
a restored file is never read through a stale cache. Standard library and
pytest only.

Each row is (id, file, exact old text, new text, test node ids that must fail);
the old text occurs exactly once in its file, and every test the row names is
collected (Tier-1 tests check both).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRAPH, OPS, SUITE, OPTIMIZE = "src/mgt/graph.py", "src/mgt/ops.py", "src/mgt/suite.py", "src/mgt/optimize.py"
TAU, CLI, CIRCUIT, LINALG = "src/mgt/tau.py", "src/mgt/cli.py", "src/mgt/circuit.py", "src/mgt/linalg.py"
FILEIO, FAMILIES, INTEGRATION = "src/mgt/fileio.py", "src/mgt/families.py", "src/mgt/integration.py"
FAULT = "tests/test_suite.py::test_a_fault_fails_the_identity"  # [identity-fault]: its honest pass must hold
BUILDERS = "tests/test_ops.py::test_builders_return_exact_edge_triples"
REFUSALS = "tests/test_cli.py::test_refusal"
LIBRARY_IDS = "tests/test_package.py::test_library_refuses_a_bad_id_or_count"
ORACLE = "tests/test_oracles.py::test_kernel_matches_its_oracle"  # [row id] of the kernel-vs-oracle table
CLOSURE = "tests/test_ops.py::test_op_closure"  # [row id] of the operations' closure table

MUTANTS = [
    # the graphs that mgt derives from checked graphs are built past the constructor's check,
    # so these rows hold each such builder to the tests that replace that check
    ("scale-extra-vertex", GRAPH,
     "_derived(g.vcount, _scaled(g.edges, c.numerator, c.denominator))",
     "_derived(g.vcount + 1, _scaled(g.edges, c.numerator, c.denominator))",
     [f"{BUILDERS}[scale]"]),
    ("scaled-n-d-swapped", GRAPH,
     "Fraction(p * n, q * d)", "Fraction(p * d, q * n)",
     ["tests/test_ops.py::test_lengths_match_fraction_arithmetic"]),
    ("delete-edge-graph-bridge-test-dropped", GRAPH,
     "    if edge_id in bridges(g):\n        raise BridgeDeletion",
     "    if False:\n        raise BridgeDeletion",
     ["tests/test_ops.py::test_op_refusals[delete-bridge]"]),
    ("identify-points-glued-upward", GRAPH,
     "{max(p, q): min(p, q)}, 0))", "{min(p, q): max(p, q)}, 0))",
     [f"{BUILDERS}[identify_points]"]),
    ("shift-edges-off-by-one", GRAPH,
     "{v: offset + i for i, v in enumerate(rest)}", "{v: offset + i + 1 for i, v in enumerate(rest)}",
     [f"{BUILDERS}[union_one_point]"]),
    ("insert-point-no-new-vertex", GRAPH,
     "_derived(g.vcount + 1, g.edges[:edge_id] + pieces", "_derived(g.vcount, g.edges[:edge_id] + pieces",
     [f"{BUILDERS}[insert_point]"]),
    ("subdivide-uniform-reuses-a-vertex", GRAPH,
     "        next_vertex += m - 1\n", "        next_vertex += m - 2\n",
     [f"{BUILDERS}[subdivide_uniform]"]),
    ("contract-edge-keeps-the-edge", OPS,
     "    rest = g.edges[:edge_id] + g.edges[edge_id + 1 :]  # glued",
     "    rest = g.edges  # glued",
     [f"{CLOSURE}[contract-edge-k4]"]),
    ("add-edge-past-the-last-vertex", OPS,
     "g.edges + (Edge(p, q, new_length),)", "g.edges + (Edge(p, g.vcount, new_length),)",
     [f"{BUILDERS}[add_edge]"]),
    ("union-one-point-extra-vertex", OPS,
     '_derived(vcount, g1.edges + edges2)\n    return OpResult(graph, "wedge-additivity"',
     '_derived(vcount + 1, g1.edges + edges2)\n    return OpResult(graph, "wedge-additivity"',
     [f"{BUILDERS}[union_one_point]"]),
    ("union-two-points-glued-at-p-only", OPS,
     "{p2: p1, q2: q1}, g1.vcount)", "{p2: p1}, g1.vcount)",
     [f"{CLOSURE}[union-two-points-random]"]),
    ("da-n-one-copy-short", OPS,
     "_scaled(g.edges, 1, n) for _ in range(n))", "_scaled(g.edges, 1, n) for _ in range(n - 1))",
     [f"{CLOSURE}[da-n-diamond]"]),
    ("immerse-copy-labels-shifted", OPS,
     "label = [*range(nxt, nxt + inner), a, b]", "label = [*range(nxt + 1, nxt + inner + 1), a, b]",
     [f"{BUILDERS}[immerse]"]),
    ("c-tower-glued-at-p-only", OPS,
     "{p: p, q: q}, vcount)", "{p: p}, vcount)",
     [f"{CLOSURE}[c-tower-circle]"]),
    ("with-length-repeats-the-edge", SUITE,
     "+ g.edges[edge + 1 :])", "+ g.edges[edge:])",
     [f"{FAULT}[lemedgeext-deleted-A]"]),
    ("successive-changes-final-graph-unchanged", SUITE,
     "_derived(g.vcount, tuple(state.edges))", "_derived(g.vcount, g.edges)",
     [f"{FAULT}[lemsuccessedgeext-deleted-A]"]),
    ("minimize-rounded-lengths-reversed", OPTIMIZE,
     "zip(g.edges, exact_lengths)", "zip(g.edges, exact_lengths[::-1])",
     ["tests/test_optimize.py::test_minimize_exact_tau_is_tau_of_exact_lengths"]),
    # the bound report's table of rows, each compared as lhs <= rhs or skipped with its reason
    ("bound-row-sides-swapped", TAU,
     "lambda: (Fraction(1, 16 * e), tau)", "lambda: (tau, Fraction(1, 16 * e))",
     ["tests/test_tau.py::test_bounds_random_graphs_never_violate"]),
    ("bound-skip-reason-dropped", TAU,
     '"a bridge makes the deleted-resistance sum infinite" if bridged else ""', '""',
     [f"{ORACLE}[bound-sums]"]),
    # mgt apq reads its vertex ids as op does; a p, q swap would survive, since A is symmetric
    ("apq-q-read-from-p", CLI,
     '_integer(args.q, "q")', '_integer(args.p, "q")',
     ["tests/test_cli.py::test_apq_prints_the_closed_form"]),
    # the kernel formulas: a wrong one fails the honest pass of an identity that reads it
    ("tau-sum-slope-weight-dropped", TAU,
     "terms.append((3 * dl * dl + gap * gap, ln * ld))", "terms.append((dl * dl + gap * gap, ln * ld))",
     [f"{FAULT}[coradding2-closed-A]"]),
    ("apq-sum-gap-halved", TAU,
     "(3 * ld * (s_e - 2 * big_r) + 2 * gap), ln))", "(3 * ld * (s_e - 2 * big_r) + gap), ln))",
     [f"{FAULT}[corpropAcircle-closed-A]"]),
    ("gradient-beta-halved", TAU,
     "2 * gap * (big_l // ln)", "gap * (big_l // ln)",
     [f"{ORACLE}[gradient]", "tests/test_tau.py::test_gradient_finite_perturbation"]),
    ("update-rows-cross-sign", CIRCUIT,
     "rn = rn * s - n * cross * cross", "rn = rn * s + n * cross * cross",
     [f"{FAULT}[corpropAcircle-identification-A]", f"{FAULT}[lemApq-deleted-A]"]),
    ("update-divided-cross-sign", CIRCUIT,
     "[(x * s - ncy * cz) // h for", "[(x * s + ncy * cz) // h for",
     [f"{FAULT}[lemsuccessedgeext-update-entry]"]),
    # an integer multiple of kappa carries the same values exactly, so only kappa itself shows this one
    ("kirchhoff-ratio-content-power", LINALG,
     "content_den ** (n - 1), prod(scales)", "content_den ** n, prod(scales)",
     [f"{ORACLE}[kirchhoff-number]"]),
    ("parallel-split-sum-weight", OPS,
     "Fraction(n - 1, 6 * n**2) * parallel_sum(g)", "Fraction(n - 1, 6 * n) * parallel_sum(g)",
     [f"{CLOSURE}[da-n-diamond]"]),
    # the formulas that verify never reads: each has a row of the closure table
    ("loop-contraction-drops-a-quarter", OPS,
     "lambda: tau_of(g) - length / 12)", "lambda: tau_of(g) - length / 4)", [f"{CLOSURE}[contract-loop]"]),
    ("bridge-contraction-drops-a-twelfth", OPS,
     '"bridge-contraction", lambda: tau_of(g) - length / 4)',
     '"bridge-contraction", lambda: tau_of(g) - length / 12)', [f"{CLOSURE}[contract-bridge-path]"]),
    ("edge-contraction-deleted-a-sign", OPS,
     "+ length * deleted_apq", "- length * deleted_apq", [f"{CLOSURE}[contract-edge-k4]"]),
    ("wedge-additivity-first-part-twice", OPS,
     "lambda: tau_of(g1) + tau_of(g2))", "lambda: tau_of(g1) + tau_of(g1))",
     [f"{CLOSURE}[union-one-point-circle-segment]"]),
    ("subdivision-invariance-times-m", OPS,
     "lambda: tau_of(g))", "lambda: tau_of(g) * m)", [f"{CLOSURE}[subdivide-corpus]"]),
    ("marked-template-p-q-swapped", OPS,
     "{p: len(inner), q: len(inner) + 1}", "{p: len(inner) + 1, q: len(inner)}",
     [f"{ORACLE}[immerse-two-step]"]),
    # the connectivity check, the bridge search, the kernel's elimination, its tag polynomials,
    # their integrals and its deletion readers, each against its oracle or an outside reference
    ("connectivity-tree-start", GRAPH,  # v = e + 1 then starts at 0 parts, and a tree is refused
     "parts = vcount if vcount <= len(edges) + 1 else 0", "parts = vcount if vcount < len(edges) + 1 else 0",
     ["tests/test_graph.py::test_connectivity_matches_bfs"]),
    ("bridge-lowlink-ge", GRAPH,  # a tree edge whose subtree reaches back to its parent reads as a bridge
     "if low[child] > disc[parent]:", "if low[child] >= disc[parent]:", [f"{ORACLE}[bridges-exhaustive-deletion]"]),
    ("bareiss-scale-ratio-dropped", LINALG,
     "factor = u * scales[i] // s_k", "factor = u", [f"{ORACLE}[green-inverse]"]),
    ("back-substitution-one-row-short", LINALG,
     "for i in range(n - 1, -1, -1):", "for i in range(n - 1, 0, -1):", [f"{ORACLE}[green-inverse]"]),
    ("tag-r-quadratic-sign", INTEGRATION,
     "rows.append([2 * ld * pa, 2 * (ld * dp + gap), -2 * gap])",
     "rows.append([2 * ld * pa, 2 * (ld * dp + gap), 2 * gap])", [f"{ORACLE}[tag-polynomials]"]),
    ("integral-weights", INTEGRATION, "m // (k + 1)", "m // (k + 2)", [f"{ORACLE}[integer-products]"]),
    ("profile-arms-swapped", CIRCUIT,
     "Fraction(x_a + mid - x_b, over), Fraction(mid + x_b - x_a, over)",
     "Fraction(mid + x_b - x_a, over), Fraction(x_a + mid - x_b, over)", [f"{ORACLE}[deletion-profiles]"]),
    ("parallel-sum-skips-loops", OPS,
     "sum_over([(gap, ld) for _, _, _, ld, _, gap in ctx.rows], ctx.den)",
     "sum_over([(gap, ld) for a, b, _, ld, _, gap in ctx.rows if a != b], ctx.den)", [f"{ORACLE}[parallel-sum]"]),
    # the refusal paths: the CLI's exit codes and messages, and the library's id and count checks
    ("input-error-exits-as-usage", CLI, "return EXIT_INPUT", "return EXIT_USAGE", [REFUSALS]),
    ("json-true-endpoint-accepted", FILEIO,
     "if type(x) is not int:", "if not isinstance(x, int):", [REFUSALS]),
    ("op-extra-argument-accepted", CLI, "if len(a) != count:", "if len(a) < count:", [REFUSALS]),
    ("edge-id-minus-one-wraps", GRAPH,
     "not 0 <= edge_id < ecount", "not edge_id < ecount", [LIBRARY_IDS]),
    ("complete-count-unchecked", FAMILIES,
     '    check_count(v, BadN, "a complete graph\'s vertex count v")\n', "", [LIBRARY_IDS]),
    ("equal-banana-count-unchecked", FAMILIES,
     '    check_count(m, BadM, "a banana\'s edge count m")\n', "", [LIBRARY_IDS]),
    ("necklace-count-unchecked", FAMILIES,
     '{i+1}.\n    """\n    check_count(t, BadN, "a necklace\'s diamond count t")\n', '{i+1}.\n    """\n',
     [LIBRARY_IDS]),
    ("necklace-tau-count-unchecked", FAMILIES,
     'family."""\n    check_count(t, BadN, "a necklace\'s diamond count t")\n', 'family."""\n',
     [LIBRARY_IDS]),
]


def _named_in(name: str, nodes: set[str]) -> bool:
    """Whether test ``name``, or one of its parametrized cases if it has no brackets, is in ``nodes``."""
    return any(node == name or "[" not in name and node.startswith(name + "[") for node in nodes)


def _kill(copy: str, row) -> tuple[int, list[str], float]:
    """pytest's exit code, the row's tests with no FAILED line and the wall seconds, with the
    row's mutant applied in ``copy``."""
    _, name, old, new, tests = row
    path = os.path.join(copy, name)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    if source.count(old) != 1:
        raise SystemExit(f"{row[0]}: the old text occurs {source.count(old)} times in {name}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source.replace(old, new))
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-rf", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=copy, env=env, capture_output=True, text=True)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source)
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    return done.returncode, [t for t in tests if not _named_in(t, failed)], time.perf_counter() - start


def main() -> int:
    commit = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants.") as copy:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(copy, filter="data")
        for row in MUTANTS:
            code, unfailed, seconds = _kill(copy, row)
            killed = code == 1 and not unfailed
            print(f"{row[0]}: {'killed' if killed else 'SURVIVED'} (pytest exit {code}, {seconds:.1f} s)"
                  + (f"; no FAILED line for {', '.join(unfailed)}" if unfailed else ""), file=sys.stderr)
            if not killed:
                survivors.append({"id": row[0], "file": row[1], "pytest_exit": code, "not_failed": unfailed})
    print(json.dumps(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
