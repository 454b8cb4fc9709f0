"""Builders for the graph families used in scans, tests and generated corpora."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import BadM
from .graph import MetrizedGraph, build_graph
from .rational import Scalar


def segment(length: Scalar = 1) -> MetrizedGraph:
    return build_graph(2, [(0, 1, length)])


def circle(*arcs: Scalar) -> MetrizedGraph:
    """Cycle through vertices 0..n-1 with the given arc lengths (one arc = self-loop)."""
    arcs = arcs or (Fraction(1),)
    n = len(arcs)
    if n == 1:
        return build_graph(1, [(0, 0, arcs[0])])
    return build_graph(n, [(i, (i + 1) % n, arc) for i, arc in enumerate(arcs)])


def banana(*lengths: Scalar) -> MetrizedGraph:
    """Two vertices joined by parallel edges of the given lengths."""
    if len(lengths) == 1:
        return segment(lengths[0])
    return build_graph(2, [(0, 1, L) for L in lengths])


def equal_banana(m: int, total: Scalar = 1) -> MetrizedGraph:
    if m < 1:
        raise BadM(f"a banana needs m >= 1 edges, got {m}")
    total = Fraction(total)
    return banana(*([total / m] * m))


def complete(v: int, total: Scalar = 1) -> MetrizedGraph:
    """Complete graph on v vertices with equal edge lengths summing to total."""
    total = Fraction(total)
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    if v == 2:
        return segment(total)
    return build_graph(v, [(a, b, total / len(pairs)) for a, b in pairs])


def path(*lengths: Scalar) -> MetrizedGraph:
    return build_graph(len(lengths) + 1, [(i, i + 1, L) for i, L in enumerate(lengths)])


def diamond(side: Scalar = 1) -> MetrizedGraph:
    """Four-cycle p-a-q-b with the short diagonal a-b; all five edges equal.

    Vertices: 0 = p, 1 = a, 2 = q, 3 = b. The marked pair for the voltage
    integral is (0, 2).
    """
    side = Fraction(side)
    return build_graph(4, [(0, 1, side), (1, 2, side), (2, 3, side), (3, 0, side), (1, 3, side)])


def theta(a: Scalar, b: Scalar, c: Scalar) -> MetrizedGraph:
    """Two vertices joined by three internally disjoint two-edge paths."""
    halves = []
    for L in (a, b, c):
        L = Fraction(L)
        halves.append((L / 2, L / 2))
    edges = []
    mid = 2
    for h1, h2 in halves:
        edges += [(0, mid, h1), (mid, 1, h2)]
        mid += 1
    return build_graph(5, edges)


def cube(total: Scalar = 1) -> MetrizedGraph:
    """The 3-cube with equal edge lengths."""
    total = Fraction(total)
    pairs = [(u, u ^ (1 << k)) for u in range(8) for k in range(3) if u < (u ^ (1 << k))]
    return build_graph(8, [(a, b, total / 12) for a, b in pairs])


def necklace(a: Scalar, b: Scalar, t: int) -> MetrizedGraph:
    """A t-cycle of length-a edges with a diamond of side b spliced into each vertex.

    Cubic graph with 4t vertices and 6t edges; the diamond i spans vertices
    4i..4i+3 locally as (p, a, q, b) and the cycle edges run q_i -> p_{i+1}.
    """
    a = Fraction(a)
    b = Fraction(b)
    edges = []
    for i in range(t):
        base = 4 * i
        p, av, q, bv = base, base + 1, base + 2, base + 3
        edges += [(p, av, b), (av, q, b), (q, bv, b), (bv, p, b), (av, bv, b)]
    for i in range(t):
        q = 4 * i + 2
        p_next = 4 * ((i + 1) % t)
        edges.append((q, p_next, a))
    return build_graph(4 * t, edges)


def necklace_tau(a: Scalar, b: Scalar, t: int) -> Fraction:
    """Closed-form tau of the necklace family."""
    a = Fraction(a)
    b = Fraction(b)
    return t * (a + 2 * b) / 12 + b * b / (8 * (a + b))


def random_length(rng: random.Random, max_num: int = 16, max_den: int = 16) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_connected(rng: random.Random, max_vertices: int = 8, max_edges: int = 16) -> MetrizedGraph:
    """Random connected multigraph: a random spanning tree plus extra edges.

    One draw in five uses a single shared length so that equal-length
    hypotheses get exercised on random topologies too.
    """
    v = rng.randint(2, max_vertices)
    shared = random_length(rng) if rng.random() < 0.2 else None
    draw = (lambda: shared) if shared is not None else (lambda: random_length(rng))
    edges: list[tuple[int, int, Fraction]] = []
    for w in range(1, v):
        edges.append((rng.randrange(w), w, draw()))
    extra = rng.randint(0, max(0, max_edges - (v - 1)))
    for _ in range(extra):
        x = rng.randrange(v)
        y = rng.randrange(v)
        edges.append((x, y, draw()))
    rng.shuffle(edges)
    return build_graph(v, edges)


def random_tree(rng: random.Random, max_vertices: int = 8) -> MetrizedGraph:
    v = rng.randint(2, max_vertices)
    return build_graph(v, [(rng.randrange(w), w, random_length(rng)) for w in range(1, v)])
