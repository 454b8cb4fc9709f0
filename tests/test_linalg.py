import random
import subprocess
import sys
from fractions import Fraction as F
from math import lcm
from pathlib import Path

from mgt import families, linalg
from mgt.circuit import GraphContext
from mgt.graph import build_graph, normalize, scale
from mgt.linalg import bareiss_forward, green_numden
from mgt.ops import immerse
from mgt.suite import GraphGenerator
from oracles import chain_heavy_graphs, reduced_laplacian


def _relabeled(g, rng):
    """g with vertices 1..v-1 permuted at random (the ground stays), and the map old -> new."""
    new = [0] + rng.sample(range(1, g.vcount), g.vcount - 1)
    return build_graph(g.vcount, [(new[a], new[b], length) for a, b, length in g.edges]), new


def test_relabeling_permutes_green_and_keeps_denominator():
    rng = random.Random(14)
    graphs = list(chain_heavy_graphs()) + [families.random_connected(rng, 9, 18) for _ in range(30)]
    for g in graphs:
        num, den = green_numden(g.vcount, g.edges)
        h, new = _relabeled(g, rng)
        h_num, h_den = green_numden(h.vcount, h.edges)
        assert h_den == den
        for y in range(g.vcount):
            assert [h_num[new[y]][new[z]] for z in range(g.vcount)] == num[y]


def dense_bareiss(m, n, scales):
    """The dense symmetric forward pass: every step updates every row below it."""
    prev = 1
    for k in range(n):
        row_k = m[k]
        piv = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_k[i] * scales[i] // scales[k]
            row_i[i:] = [(piv * x - factor * y) // prev for x, y in zip(row_i[i:], row_k[i:])]
        prev = piv


def test_forward_pass_matches_dense_elimination():
    # relabeled sparse graphs leave rows uncoupled for several steps in a row
    rng = random.Random(15)
    graphs = list(chain_heavy_graphs()) + [families.random_connected(rng, 9, 14) for _ in range(30)]
    for g in graphs:
        g = _relabeled(g, rng)[0]
        if g.vcount < 2:
            continue
        lap = reduced_laplacian(g)
        n = g.vcount - 1
        scales = [lcm(*(x.denominator for x in row)) for row in lap]
        lazy = [[int(x * s) for x in row] for row, s in zip(lap, scales)]
        dense = [row[:] for row in lazy]
        bareiss_forward(lazy, n, scales)
        dense_bareiss(dense, n, scales)
        assert [row[i:] for i, row in enumerate(lazy)] == [row[i:] for i, row in enumerate(dense)]
        assert _uniform_lcm_det(g) == _uniform_lcm_det(g, dense_bareiss)


def test_order_eliminates_a_star_center_last(monkeypatch):
    # the center is vertex 3: eliminated in place, it would couple its later leaves pairwise
    star = chain_heavy_graphs()[1]
    triangles = []

    def traced(m, n, scales):
        bareiss_forward(m, n, scales)
        triangles.append([row[i:] for i, row in enumerate(m)])

    monkeypatch.setattr(linalg, "bareiss_forward", traced)
    green_numden(star.vcount, star.edges)
    (triangle,) = triangles
    assert sum(len(row) - row.count(0) for row in triangle) == 2 * len(triangle) - 1


def test_green_symmetric_with_zero_ground():
    rng = random.Random(8)
    for _ in range(20):
        g = families.random_connected(rng, 6, 9)
        num, den = green_numden(g.vcount, g.edges)
        assert den > 0
        for i in range(g.vcount):
            assert num[0][i] == num[i][0] == 0
            for j in range(g.vcount):
                assert num[i][j] == num[j][i]


def _spy_on_factorizations(monkeypatch):
    """Record the determinant of every forward pass, as the benchmark tracer observes it."""
    dets = []

    def traced(m, n, scales):
        bareiss_forward(m, n, scales)
        dets.append(m[n - 1][n - 1])

    monkeypatch.setattr(linalg, "bareiss_forward", traced)
    return dets


def _uniform_lcm_det(g, forward=bareiss_forward):
    """The determinant when the whole reduced Laplacian is scaled by one lcm of all lengths.

    The forward pass gets the full matrix, both triangles.
    """
    scale = lcm(*(length.numerator for a, b, length in g.edges if a != b))
    m = [[int(x * scale) for x in row] for row in reduced_laplacian(g)]
    n = g.vcount - 1
    forward(m, n, [1] * n)
    return m[n - 1][n - 1]


def test_green_int_factorizes_once_per_context(monkeypatch):
    dets = _spy_on_factorizations(monkeypatch)
    rng = random.Random(5)
    for _ in range(10):
        g = families.random_connected(rng, 7, 12)
        before = len(dets)
        ctx = GraphContext.of(g)
        first = [ctx.row(y) for y in range(g.vcount)]
        ctx.r(0, g.vcount - 1)
        ctx.voltage(0, 1, g.vcount - 1)
        ctx.edge_profiles(0)
        assert all(ctx.row(y) is row for y, row in enumerate(first))
        assert len(dets) == before + 1


def test_determinant_is_scale_free(monkeypatch):
    dets = _spy_on_factorizations(monkeypatch)
    c = F(7, 10**300)
    rng = random.Random(6)
    for _ in range(10):
        g = families.random_connected(rng, 7, 12)
        GraphContext.of(g)
        GraphContext.of(scale(g, c))
        assert dets[-1] == dets[-2]


def test_self_immersion_determinant_is_small(monkeypatch):
    dets = _spy_on_factorizations(monkeypatch)
    _, g = list(GraphGenerator(1).graphs(10))[9]  # v = 3, e = 4; built: v = 7
    gn = normalize(g)
    built = immerse(gn, [(gn, 0, 1)] * gn.ecount).graph
    GraphContext.of(built)
    assert dets[-1].bit_length() * 4 < _uniform_lcm_det(built).bit_length()


def test_deletion_sums_factorize_only_the_graph_itself(monkeypatch):
    # every reader of the rank-one update (deleted A, the arm sums, deleted
    # resistances, the deletion profiles, A by gluing) reads g's own Green
    # integers; no g - e and no glued graph is solved
    from mgt.circuit import context
    from mgt.graph import bridges
    from mgt.suite import run_graph_checks
    from mgt.tau import apq_identity, deleted_apq

    dets = _spy_on_factorizations(monkeypatch)
    g = scale(families.random_connected(random.Random(17), 7, 12), F(7919, 104729))  # not cached yet
    cut = bridges(g)
    values = [deleted_apq(g, i) for i in range(g.ecount) if i not in cut]
    results = run_graph_checks("fresh", g, random.Random(1), {"lem2term", "rem2term"})
    assert len(values) > 3 and [r.status for r in results] == ["pass", "pass"]
    cx = context(g)
    deleted_r = [cx.r_deleted(i, 0, g.vcount - 1) for i in range(g.ecount) if i not in cut]
    profiles = [cx.edge_profiles(p) for p in range(g.vcount)]
    glued = [apq_identity(g, p, q) for p in range(g.vcount) for q in range(p + 1, g.vcount)]
    assert len(deleted_r) == len(values) and len(profiles[0]) == g.ecount and len(glued) == g.vcount * (g.vcount - 1) // 2 > 10
    assert len(dets) == 1


def test_kernel_digest_is_pinned():
    # tools/kernel_digest.py hashes the Green integers of every factorization the
    # seed-1 corpus and ladder op lists make; a change to any of them moves it
    tool = Path(__file__).resolve().parent.parent / "tools" / "kernel_digest.py"
    done = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("1756 inputs, ")
    assert done.stdout == "c79071182787804aa9e11fb63aa93c3db201e6e1e1e3b2e4c37116ae40f1fd87\n"
