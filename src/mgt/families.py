"""Builders for the graph families used in scans, tests and generated corpora, and the
exact scans: each closed form of a lower-bound class, checked against ``tau_of``."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .errors import BadM, BadN, EmptyGrid, MgtError, NonPositiveLength, TooLarge, UnknownParameter
from .graph import MAX_EDGES, MetrizedGraph, build_graph, check_count, check_size, normalize
from .rational import Scalar

RATIO_FLOOR = Fraction(1, 108)  # conjectured universal ratio; violations are reported, not hidden
NECKLACE_CHECK_LIMIT = 4  # necklaces with more diamonds report the closed form without a direct tau


def segment(length: Scalar = 1) -> MetrizedGraph:
    return build_graph(2, [(0, 1, length)])


def circle(*arcs: Scalar) -> MetrizedGraph:
    """Cycle through vertices 0..n-1 with the given arc lengths (one arc = self-loop)."""
    arcs = arcs or (Fraction(1),)
    n = len(arcs)
    return build_graph(n, [(i, (i + 1) % n, arc) for i, arc in enumerate(arcs)])


def banana(*lengths: Scalar) -> MetrizedGraph:
    """Two vertices joined by parallel edges of the given lengths."""
    return build_graph(2, [(0, 1, L) for L in lengths])


def equal_banana(m: int, total: Scalar = 1) -> MetrizedGraph:
    if m < 1:  # the words mgt scan prints for an empty banana
        raise BadM(f"a banana needs m >= 1 edges, got {m}")
    check_count(m, BadM, "a banana's edge count m")
    total = Fraction(total)
    return banana(*([total / m] * m))


def complete(v: int, total: Scalar = 1) -> MetrizedGraph:
    """Complete graph on v vertices with equal edge lengths summing to total."""
    check_count(v, BadN, "a complete graph's vertex count v")
    total = Fraction(total)
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
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
    edges = []
    for mid, L in enumerate((a, b, c), 2):
        half = Fraction(L) / 2
        edges += [(0, mid, half), (mid, 1, half)]
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
    check_count(t, BadN, "a necklace's diamond count t")
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
    check_count(t, BadN, "a necklace's diamond count t")
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


class ScanRow(NamedTuple):
    """One scan row; every family is built at total length one, so ``ratio`` is also its tau."""

    family: str
    params: str
    ratio: Fraction


def _complete_cases(grid):
    for v in grid:
        if v < 2:
            raise BadN(f"the complete-graph closed form needs v >= 2, got {v}")
        check_size(v, v * (v - 1) // 2, f"the complete graph on v={v} vertices")
    for v in grid:
        yield f"v={v}", complete(v), Fraction(1, 12) * (1 - Fraction(2, v)) ** 2 + Fraction(2, v**3)


def _banana_cases(grid):
    for m in grid:
        check_size(2, m, f"the banana graph of m={m} edges")
    for m in grid:
        yield f"m={m}", equal_banana(m), Fraction(m * m - 2 * m + 4, 12 * m * m)


def _necklace_cases(grid_a, grid_t):
    if len(grid_a) * len(grid_t) > MAX_EDGES:
        raise TooLarge(f"a necklace grid of {len(grid_a)} x {len(grid_t)} rows exceeds "
                       f"the limit of {MAX_EDGES} rows")
    grid_a = [Fraction(a) for a in grid_a]
    for a in grid_a:
        if a <= 0:
            raise NonPositiveLength(f"a necklace needs cycle edges of length a > 0, got a={a}")
    for t in grid_t:
        if t < 1:
            raise BadN(f"a necklace needs t >= 1 diamonds, got {t}")
        for a in grid_a:
            if a * t >= 1:
                raise NonPositiveLength(f"a necklace needs a*t < 1 for diamond sides "
                                        f"b = (1 - a t)/(5t) > 0, got a={a}, t={t}")
    for t in grid_t:
        for a in grid_a:
            b = (1 - a * t) / (5 * t)
            yield (f"a={a},t={t}", necklace(a, b, t) if t <= NECKLACE_CHECK_LIMIT else None,
                   necklace_tau(a, b, t))


def _circle_cases(grid):
    rng = random.Random("mgt-scan-circle")
    for k in grid:
        if k < 1:
            raise BadN(f"a circle needs k >= 1 arcs, got {k}")
        check_size(k, k, f"the circle of k={k} arcs")
    for k in grid:
        yield f"k={k}", normalize(circle(*(random_length(rng) for _ in range(k)))), Fraction(1, 12)


# family -> (its cases, {its --params key: (default grid, whether the key counts
# vertices, edges, diamonds or arcs and so takes integers only)}). The cases take one
# grid per key, in this order, and check them all before they yield (label, the graph
# to check the closed form on or None, the closed form) per row; the graph comes
# first, so a builder's refusal (a banana of m=0) precedes the closed form's arithmetic.
SCAN_FAMILIES = {
    "complete": (_complete_cases, {"v": (range(2, 13), True)}),
    "banana": (_banana_cases, {"m": (range(1, 13), True)}),
    "necklace": (_necklace_cases, {"a": (tuple(Fraction(1, k) for k in (8, 12, 20, 40)), False),
                                   "t": ((2, 3, 4), True)}),
    "circle": (_circle_cases, {"k": (range(1, 9), True)}),
}


def family_scan(family: str, params: dict | None = None) -> list[ScanRow]:
    """Exact tau over a closed-form family, cross-checked against the engine."""
    params = params or {}
    if family not in SCAN_FAMILIES:
        raise MgtError(f"unknown scan family {family!r}")
    cases, keys = SCAN_FAMILIES[family]
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise UnknownParameter(f"scan family {family!r} reads only {', '.join(keys)}; "
                               f"unknown key(s): {', '.join(unknown)}")
    for key, grid in params.items():
        if not grid:
            raise EmptyGrid(f"scan family {family!r} got no value of {key}; an empty grid checks nothing")
        if keys[key][1] and not isinstance(grid, range):  # a range holds integers only
            for x in grid:
                if not isinstance(x, int):
                    raise BadN(f"scan family {family!r}: {key} takes integers, got {x}")
    rows: list[ScanRow] = []
    for label, g, closed in cases(*(params.get(key, grid) for key, (grid, _) in keys.items())):
        if g is not None:
            _scan_assert(closed, g, label)
        rows.append(ScanRow(family, label, closed))
    return rows


def _scan_assert(closed: Fraction, g: MetrizedGraph, tag: str) -> None:
    from .tau import tau_of  # loaded by a scan, not by every reader of the builders above

    direct = tau_of(g)
    if direct != closed:
        raise AssertionError(f"closed form mismatch at {tag}: {closed} vs {direct}")


def scan_violations(rows: list[ScanRow]) -> list[ScanRow]:
    return [row for row in rows if row.ratio < RATIO_FLOOR]
