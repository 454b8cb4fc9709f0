"""Independent routes, the graph lists they run on, and paper constructions, for the tests only.

Each comparison of mgt's integer Green kernel with an independent route is one row of
``_ROWS`` in ``tests/test_oracles.py``: a graph list below, the instances drawn on each
graph, the kernel and one of these oracles, which share no code path with it:

- outside references: ``sympy_green``, sympy's exact inverse of ``reduced_laplacian``;
  networkx's ``node_connected_component`` for reachability without an edge, which
  ``bridges_by_deletion`` reads exhaustively and ``edge_profile`` reads for each side of
  a bridge; and sympy's dense univariate routines over QQ (``dup_diff``, ``dup_pow``,
  ``dup_mul``, ``dup_integrate``, ``dup_eval``) for ``product_integral``;
- brute force: ``spanning_tree_resistance`` and ``kirchhoff_number`` sum over spanning
  trees, for small graphs only. The enumeration stays hand-written: networkx's
  ``SpanningTreeIterator`` is 9 to 16 times slower on these rows, and its
  ``number_of_spanning_trees`` takes a float determinant;
- the paper's deletion route: ``edge_profile`` solves each edge's ``deleted_graph``, and
  the per-edge formulas (``edge_tau_contribution``, ``deletion_gradient``,
  ``deletion_bounds``, ``deletion_parallel_sum``, ``deletion_arm_sums``) read its profiles;
  ``successive_length_steps`` factorizes each graph of a chain of length changes;
- the sampled route: ``sampled_tag_polynomials`` fits each tag function from
  point-inserted solves, ``product_integral`` integrates their products, and
  ``tau_via_integral`` reads tau as a quarter of an energy;
- ``identification_apq``, on the glued graph factorized anew, and ``two_step_immersion``.

The graph lists but ``fit_graphs`` are built once per process, so rows that share one
share its factorizations. ``exact_gradient_matches_float``, ``float_tau_gradient`` and
``sort_projection`` are the float search's references. Last come the paper's
constructions that the tests replay: ``family_graphs``, ``random_bridgeless``, the
``tau_reducing_sequence`` of immersions into a subdivision, and the ``necklace_witness``
that separates tau from the cubic sum.
"""

import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from weakref import WeakKeyDictionary

import networkx as nx
import numpy as np
from sympy import QQ
from sympy.polys.densearith import dup_mul, dup_pow
from sympy.polys.densebasic import dup_strip
from sympy.polys.densetools import dup_diff, dup_eval, dup_integrate
from sympy.polys.matrices import DomainMatrix

from mgt import families
from mgt.circuit import EdgeProfile, context, solve_pair_resistances
from mgt.errors import MgtError, SamePoint
from mgt.graph import (Edge, MetrizedGraph, bridges, build_graph, delete_edge_graph,
                       identify_points_graph, insert_point, normalize, subdivide_uniform,
                       total_length)
from mgt.integration import (
    TAG_J_BASE_P,
    TAG_J_BASE_Q,
    TAG_J_BASE_X,
    TAG_R_FROM_P,
    EdgePolynomial,
    edge_tag_polynomials,
    fit_edge_function,
    integrate_product,
)
from mgt.ops import OpResult, c_tower, immerse, parallel_sum
from mgt.optimize import FloatTopology
from mgt.rational import INF, ExtScalar
from mgt.suite import CheckResult, GraphGenerator
from mgt.tau import apq, tau_gradient, tau_of


def _spans(vcount: int, edges, subset) -> bool:
    parent = list(range(vcount))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    for i in subset:
        a, b, _ = edges[i]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            merged += 1
    return merged == vcount - 1


def spanning_tree_resistance(g: MetrizedGraph, x: int, y: int) -> Fraction:
    """Effective resistance via the weighted matrix-tree ratio.

    r(x,y) = (sum over 2-forests separating x and y of their conductance
    product) / (sum over spanning trees of their conductance product).
    """
    if x == y:
        return Fraction(0)
    edges = [e for e in g.edges if e.a != e.b]
    n = g.vcount
    tree_sum = Fraction(0)
    forest_sum = Fraction(0)
    ids = range(len(edges))

    def weight(subset) -> Fraction:
        w = Fraction(1)
        for i in subset:
            w /= edges[i].length
        return w

    for subset in combinations(ids, n - 1):
        if _spans(n, edges, subset):
            tree_sum += weight(subset)
    xy_glued = [(a if a != y else x, b if b != y else x, L) for a, b, L in edges]
    for subset in combinations(ids, n - 2):
        if _spans(n - 1, _relabel(xy_glued, y, n), subset):
            forest_sum += weight(subset)
    return forest_sum / tree_sum


def _relabel(edges, removed: int, vcount: int):
    remap = [v - 1 if v > removed else v for v in range(vcount)]
    return [(remap[a], remap[b], L) for a, b, L in edges]


# per graph: edge -> g without that edge, as a networkx MultiGraph
_WITHOUT: WeakKeyDictionary = WeakKeyDictionary()


def _without(g: MetrizedGraph, edge_id: int) -> nx.MultiGraph:
    """g's vertices and its edges but ``edge_id`` as a networkx MultiGraph, built once per
    graph and edge, so every base reads its reachability from one graph."""
    built = _WITHOUT.setdefault(g, {})
    if edge_id not in built:
        graph = built[edge_id] = nx.MultiGraph()
        graph.add_nodes_from(range(g.vcount))
        graph.add_edges_from((a, b) for j, (a, b, _) in enumerate(g.edges) if j != edge_id)
    return built[edge_id]


def bridges_by_deletion(g: MetrizedGraph) -> list[int]:
    """Exhaustive check: an edge is a bridge iff removing it disconnects."""
    return [i for i in range(g.ecount) if len(nx.node_connected_component(_without(g, i), 0)) != g.vcount]


def _component_resistance(g: MetrizedGraph, skip_edge: int, y: int, z: int) -> Fraction:
    """Resistance between y and z inside their component of g without edge skip_edge."""
    if y == z:
        return Fraction(0)
    verts = sorted(nx.node_connected_component(_without(g, skip_edge), y))
    relabel = {v: i for i, v in enumerate(verts)}
    edges = [(relabel[a], relabel[b], L) for i, (a, b, L) in enumerate(g.edges)
             if i != skip_edge and a in relabel and b in relabel]
    return context(build_graph(len(verts), edges)).r(relabel[y], relabel[z])


# per graph: edge -> its deleted graph and the deleted edge's endpoints there
_DELETED: WeakKeyDictionary = WeakKeyDictionary()


def deleted_graph(g: MetrizedGraph, edge_id: int) -> tuple[MetrizedGraph, tuple[int, int]]:
    """``delete_edge_graph(g, edge_id)``, built once per graph and edge, so its
    factorization serves every base; BridgeDeletion on a bridge, as there."""
    built = _DELETED.setdefault(g, {})
    if edge_id not in built:
        built[edge_id] = delete_edge_graph(g, edge_id)
    return built[edge_id]


def edge_profile(g: MetrizedGraph, edge_id: int, base: int) -> EdgeProfile:
    """One edge's deletion profile from the deleted graph, built and solved on its own.

    The reference for ``GraphContext.edge_profiles``, which reads every
    profile off g's own Green integers.
    """
    a, b, length = g.edges[edge_id]
    side_a = nx.node_connected_component(_without(g, edge_id), a)
    if b not in side_a:  # a bridge: base's side has arm 0, the other INF
        near_a = base in side_a
        arm_base = _component_resistance(g, edge_id, base, a if near_a else b)
        arms = (Fraction(0), INF) if near_a else (INF, Fraction(0))
        return EdgeProfile(edge_id, length, INF, *arms, arm_base, bridge=True, loop=False)
    # a loop (a = b) comes out with res_del = 0, zero arms and arm_base r(a, base)
    r = context(deleted_graph(g, edge_id)[0]).r
    res_del, ra_p, rb_p = r(a, b), r(a, base), r(b, base)
    arm_a = (ra_p + res_del - rb_p) / 2
    arm_b = res_del - arm_a
    arm_base = (ra_p + rb_p - res_del) / 2
    return EdgeProfile(edge_id, length, res_del, arm_a, arm_b, arm_base,
                       bridge=False, loop=(a == b))


def edge_tau_contribution(profile: EdgeProfile) -> Fraction:
    """One edge's share of tau by the deletion route.

    (L^3 + 3L(arm_a - arm_b)^2) / (12 (L+R)^2) from the edge's deletion
    profile; L/4 across a bridge, the limit as R grows without bound.
    """
    length = profile.length
    if profile.bridge:
        return length / 4
    diff = profile.arm_a - profile.arm_b
    denom = length + profile.res_deleted
    return (length**3 + 3 * length * diff * diff) / (12 * denom * denom)


def deletion_gradient(g: MetrizedGraph) -> tuple[Fraction, ...]:
    """d tau/d L per edge by the paper's deletion formula.

    1/12 - A/(L+R)^2 with A the voltage integral between the edge's endpoints
    in the deleted graph and R their resistance there; 1/4 on a bridge, 1/12
    on a self-loop.
    """
    out = []
    for i, (a, b, length) in enumerate(g.edges):
        profile = edge_profile(g, i, 0)
        if profile.bridge:
            out.append(Fraction(1, 4))
        elif profile.loop:
            out.append(Fraction(1, 12))
        else:
            deleted, (p, q) = deleted_graph(g, i)
            denom = length + profile.res_deleted
            out.append(Fraction(1, 12) - apq(deleted, p, q) / (denom * denom))
    return tuple(out)


def deletion_bounds(g: MetrizedGraph) -> tuple[bool, Fraction | None, Fraction, Fraction]:
    """The bound suite's deletion rows from the deletion profiles of normalize(g)'s edges.

    With R each edge's deleted resistance: whether sum R is finite, then
    1/(12 (1 + sum R)^2) or None, (sum L R/(L+R))^2 and sum L R^2/(L+R)^2. A
    bridge makes sum R infinite and adds its limit L to each weighted sum.
    """
    gn = normalize(g)
    sum_r: ExtScalar = Fraction(0)
    weighted_sq = weighted = Fraction(0)
    for i in range(gn.ecount):
        profile = edge_profile(gn, i, 0)
        length = profile.length
        if profile.bridge:
            sum_r = INF
            weighted_sq += length
            weighted += length
            continue
        if sum_r is not INF:  # INF has no arithmetic: the sum stays INF after a bridge
            sum_r += profile.res_deleted
        ratio = profile.res_deleted / (length + profile.res_deleted)
        weighted_sq += length * ratio * ratio
        weighted += length * ratio
    finite = sum_r is not INF
    return finite, 1 / (12 * (1 + sum_r) ** 2) if finite else None, weighted**2, weighted_sq


def deletion_parallel_sum(g: MetrizedGraph) -> Fraction:
    """sum L^2/(L+R) over the deletion profiles of g's edges; a bridge adds 0."""
    total = Fraction(0)
    for i in range(g.ecount):
        profile = edge_profile(g, i, 0)
        if not profile.bridge:
            total += profile.length**2 / (profile.length + profile.res_deleted)
    return total


def deletion_arm_sums(g: MetrizedGraph, base: int) -> tuple[Fraction, Fraction]:
    """sum L (arm_a - arm_b)^2/(L+R)^2 over the deletion profiles at ``base``, with limit L
    across a bridge: over all edges, and over those not at ``base``."""
    total = off = Fraction(0)
    for i, (a, b, length) in enumerate(g.edges):
        pr = edge_profile(g, i, base)
        term = length if pr.bridge else length * ((pr.arm_a - pr.arm_b) / (length + pr.res_deleted)) ** 2
        total += term
        off += 0 if base in (a, b) else term
    return total, off


# per graph: (edge, offset) -> r(y, x) for every vertex y, x the inserted point
_POINT_SOLVES: WeakKeyDictionary = WeakKeyDictionary()


def _point_resistances(g: MetrizedGraph, edge: int, t: Fraction) -> tuple[Fraction, ...]:
    """r(y, x) for every vertex y of g, from one solve of g with x inserted at offset t.

    The point-inserted graph depends only on (edge, t), so it is solved once
    and every (p, q) reads its pairs from that solve.
    """
    solved = _POINT_SOLVES.setdefault(g, {})
    if (edge, t) not in solved:
        gx, x = insert_point(g, (edge, t))
        solved[edge, t] = tuple(solve_pair_resistances(gx, [(y, x) for y in range(g.vcount)]))
    return solved[edge, t]


def sampled_tag_polynomials(g: MetrizedGraph, p: int, q: int,
                            edge: int) -> dict[str, EdgePolynomial]:
    """The four tag functions on one edge, each fitted as a quadratic by ``fit_edge_function``.

    Its four interior samples read r(p,x) and r(q,x) off the point-inserted
    graphs; three fix each quadratic and the fourth is a guard that must match
    exactly.
    """
    rpq = context(g).r(p, q)

    @cache  # the four tags share their samples
    def at(t):
        r = _point_resistances(g, edge, t)
        return r[p], r[q]

    def fit(tag_value):
        return fit_edge_function(g, edge, lambda point: tag_value(*at(point[1])), 2)

    return {
        TAG_R_FROM_P: fit(lambda rpx, rqx: rpx),
        TAG_J_BASE_P: fit(lambda rpx, rqx: (rpx + rpq - rqx) / 2),
        TAG_J_BASE_Q: fit(lambda rpx, rqx: (rqx + rpq - rpx) / 2),
        TAG_J_BASE_X: fit(lambda rpx, rqx: (rpx + rqx - rpq) / 2),
    }


# per graph: (p, q) -> per edge, its tag polynomials over QQ and its factors by
# (tag, differentiate, power)
_TAG_POLYS: WeakKeyDictionary = WeakKeyDictionary()


def product_integral(g: MetrizedGraph, p: int, q: int, terms) -> Fraction:
    """int over g of a product of tag factors, by sympy's dense polynomial routines over QQ.

    ``terms`` are (tag, differentiate, power) as for ``integrate_product``;
    each edge's tag polynomials are differentiated (``dup_diff``), raised to
    their powers (``dup_pow``), multiplied (``dup_mul``), integrated
    (``dup_integrate``) and evaluated at the edge's length L (``dup_eval``),
    which is their integral over [0, L]. The tag polynomials and the factor of
    each term are built once per (g, p, q) and edge, and shared by every term list.
    """
    solved = _TAG_POLYS.setdefault(g, {})
    if (p, q) not in solved:
        solved[p, q] = [({tag: dup_strip([QQ(c) for c in reversed(poly.coeffs)])
                          for tag, poly in edge_tag_polynomials(g, p, q, edge).items()}, {})
                        for edge in range(g.ecount)]
    total = QQ.zero
    for (polys, factors), edge in zip(solved[p, q], g.edges):
        result = [QQ.one]
        for term in terms:
            if term not in factors:
                tag, deriv, n = term
                factors[term] = dup_pow(dup_diff(polys[tag], 1, QQ) if deriv else polys[tag], n, QQ)
            result = dup_mul(result, factors[term], QQ)
        total += dup_eval(dup_integrate(result, 1, QQ), QQ(edge.length), QQ)
    return Fraction(total.numerator, total.denominator)


def tau_via_integral(g: MetrizedGraph, p: int = 0) -> Fraction:
    """The tau invariant as a quarter of the energy of x -> r(p, x), for a vertex p."""
    return integrate_product(g, p, p, [(TAG_R_FROM_P, True, 2)]) / 4


def identification_apq(g: MetrizedGraph, p: int, q: int) -> Fraction:
    """A_{p,q} = r(p,q) (tau(g_pq) - tau(g)) + r(p,q)^2/6, with g_pq (p glued to q)
    built as its own graph and factorized by its own context."""
    r = context(g).r(p, q)
    return r * (tau_of(identify_points_graph(g, p, q)) - tau_of(g)) + r * r / 6


def kirchhoff_number(g: MetrizedGraph) -> int:
    """sum over spanning trees T of prod(ld_e, e in T) prod(ln_e, e not in T), over the
    non-loop edges of lengths ln_e/ld_e, by enumeration: the reference for the kappa of
    ``mgt.linalg.kirchhoff_ratio``."""
    edges = [e for e in g.edges if e.a != e.b]
    total = 0
    for subset in combinations(range(len(edges)), g.vcount - 1):
        if _spans(g.vcount, edges, subset):
            term = 1
            for i, (_, _, length) in enumerate(edges):
                term *= length.denominator if i in subset else length.numerator
            total += term
    return total


def reduced_laplacian(g: MetrizedGraph) -> list[list[Fraction]]:
    """The Laplacian with conductances 1/length, vertex 0 removed, in Fractions."""
    n = g.vcount
    lap = [[Fraction(0)] * n for _ in range(n)]
    for a, b, length in g.edges:
        if a != b:
            lap[a][a] += 1 / length
            lap[b][b] += 1 / length
            lap[a][b] -= 1 / length
            lap[b][a] -= 1 / length
    return [row[1:] for row in lap[1:]]


def sympy_green(g: MetrizedGraph) -> list[list[Fraction]]:
    """g's Green matrix by sympy: the exact QQ inverse of ``reduced_laplacian``, bordered
    by the ground's zero row and column, the outside reference for ``green_numden``."""
    n = g.vcount - 1
    inverse = DomainMatrix([[QQ(x) for x in row] for row in reduced_laplacian(g)], (n, n),
                           QQ).inv().to_list() if n else []
    zero = Fraction(0)
    return [[zero] * (n + 1)] + [[zero] + [Fraction(x.numerator, x.denominator) for x in row]
                                 for row in inverse]


def successive_length_steps(g: MetrizedGraph, lengths) -> list:
    """Per edge i, (R, A) of g_i - e_i, where g_i is g_(i-1) with edge i's length set to
    lengths[i]: each g_i and g_i - e_i built, and g_i - e_i factorized on its own; None
    at a loop. The per-step route of the ``lemsuccessedgeext`` check, kept as the
    reference for the length-change chain of ``mgt.circuit.KirchhoffState``."""
    current = g
    steps = []
    for i, length in enumerate(lengths):
        a, b, _ = current.edges[i]
        current = MetrizedGraph(current.vcount,
                                current.edges[:i] + (Edge(a, b, length),) + current.edges[i + 1:])
        if a == b:
            steps.append(None)
            continue
        deleted, (p, q) = delete_edge_graph(current, i)
        steps.append((context(deleted).r(p, q), apq(deleted, p, q)))
    return steps


def exact_gradient_matches_float(g: MetrizedGraph, rel: float = 1e-9) -> bool:
    """Spot check: each float gradient entry within rel of the exact one at g's lengths."""
    exact = tau_gradient(g).entries
    topo = FloatTopology(g.vcount, [(a, b) for a, b, _ in g.edges])
    approx = topo.gradient([float(e.length) for e in g.edges])
    return all(abs(float(e_val) - f_val) <= rel * abs(float(e_val))
               for e_val, f_val in zip(exact, approx))


def two_step_immersion(g: MetrizedGraph, betas) -> MetrizedGraph:
    """The normalized immersion of ``betas`` into g's edges, built in two steps.

    Each beta_i is relabelled onto edge i (its first mark on endpoint a, its
    second on b, its other vertices numbered on from g's in order) and its
    lengths are multiplied by L_i/r_i in Fraction arithmetic. The product graph
    is built, then every length is divided by its total length.
    """
    edges = []
    nxt = g.vcount
    for (a, b, length), (beta, p, q) in zip(g.edges, betas):
        factor = length / context(beta).r(p, q)
        remap = {p: a, q: b}
        for v in range(beta.vcount):
            if v not in remap:
                remap[v], nxt = nxt, nxt + 1
        edges += [(remap[x], remap[y], ln * factor) for x, y, ln in beta.edges]
    product = build_graph(nxt, edges)
    size = sum(ln for _, _, ln in product.edges)
    return build_graph(nxt, [(x, y, ln / size) for x, y, ln in product.edges])


def float_tau_gradient(topo: FloatTopology, lengths) -> tuple[float, np.ndarray]:
    """tau and its gradient at L, each computed from (L, C, P, r, d, h, w) on its own."""
    L = np.asarray(lengths, dtype=float)
    inc, inc_t = topo.incidence, topo.incidence_t
    green = np.linalg.inv((inc_t / L) @ inc)
    c = inc @ green
    p = c @ inc_t
    r = p.diagonal()
    d = inc @ green.diagonal()
    h, w = d / L, (L - r) / (3 * L)
    tau = float((d * h + (L - r) * w).sum() / 4)
    cross = (c * c) @ (inc_t @ h) - (p * p) @ w
    return tau, ((L * L - r * r) / 3 - d * d + 2 * cross) / (4 * L * L)


def sort_projection(x: np.ndarray, floor: float = 1e-9) -> np.ndarray:
    """Euclidean projection onto {x >= floor, sum x = 1} by numpy's sort and cumsum."""
    n = x.size
    budget = 1.0 - n * floor
    y = x - floor
    u = np.sort(y)[::-1]
    css = u.cumsum() - budget
    cond = u - css / np.arange(1, n + 1) > 0
    cond[0] = True  # true in exact arithmetic; rounding can lose it when |x| dwarfs 1
    rho = cond.nonzero()[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(y - theta, 0.0) + floor


def family_graphs(seed: int, family: str, count: int) -> list[tuple[str, MetrizedGraph]]:
    """``count`` (descriptor, graph) pairs of one named family, drawn from the random
    stream ``mgt-corpus:{seed}:{family}`` as the corpus draws its random connected graphs."""
    rng = random.Random(f"mgt-corpus:{seed}:{family}")

    def lengths(k):
        return [families.random_length(rng) for _ in range(k)]

    make = {
        "complete": lambda i: families.complete(2 + i % 7),
        "banana": lambda i: families.equal_banana(1 + i % 10),
        "circle_subdivided": lambda i: families.circle(*lengths(1 + i % 6)),
        "diamond_necklace": lambda i: families.necklace(*lengths(2), 2 + i % 2),
        "tree": lambda i: families.random_tree(rng, 8),
        "theta": lambda i: families.theta(*lengths(3)),
        "cube-like": lambda i: families.cube(*lengths(1)),
    }[family]
    graphs = [make(i) for i in range(count)]
    return [(f"{family}#{i}(v={g.vcount},e={g.ecount})", g) for i, g in enumerate(graphs)]


def random_bridgeless(rng: random.Random, max_vertices: int = 6, max_edges: int = 12) -> MetrizedGraph:
    """Random connected graph with every non-loop edge doubled into a cycle cover."""
    for _ in range(64):
        g = families.random_connected(rng, max_vertices, max_edges)
        if not bridges(g):
            return g
    # fall back: double every bridge
    g = families.random_connected(rng, max_vertices, max_edges // 2)
    edges = list(g.edges)
    for i in bridges(g):
        a, b, L = g.edges[i]
        edges.append(Edge(a, b, L))
    return MetrizedGraph(g.vcount, tuple(edges))


# -- the graph lists of the kernel-vs-oracle table, each built once per process ------------


@cache
def corpus_graphs(count: int = 200) -> tuple[MetrizedGraph, ...]:
    """The first ``count`` (<= 200) graphs of the seed-1 corpus that ``mgt verify --random`` checks."""
    if count < 200:
        return corpus_graphs()[:count]
    return tuple(g for _, g in GraphGenerator(1).graphs(count))


@cache
def random_graphs() -> tuple[MetrizedGraph, ...]:
    """40 random connected multigraphs of at most 6 vertices and 10 edges: spanning trees enumerate."""
    rng = random.Random(11)
    return tuple(families.random_connected(rng, 6, 10) for _ in range(40))


@cache
def deletion_graphs() -> tuple[MetrizedGraph, ...]:
    """The first 40 corpus graphs, then a triangle with a pendant bridge and one with a loop."""
    triangle = [(0, 1, 1), (1, 2, Fraction(1, 2)), (2, 0, Fraction(1, 3))]
    return corpus_graphs(40) + (build_graph(4, triangle + [(2, 3, Fraction(2, 3))]),
                                build_graph(3, triangle + [(1, 1, Fraction(3, 4))]))


@cache
def kernel_graphs() -> tuple[MetrizedGraph, ...]:
    """The first 60 corpus graphs, K8, a six-diamond necklace and the cube."""
    return corpus_graphs(60) + (families.complete(8), families.necklace(Fraction(1, 20), Fraction(1, 30), 6),
                                families.cube(Fraction(2, 3)))


@cache
def glued_graphs() -> tuple[MetrizedGraph, ...]:
    """``kernel_graphs``, six small graphs with a p-q edge, a loop, a bridge or 20-digit
    lengths, necklaces, complete graphs, a cube and five cycles of 10-18 vertices with v/2
    random chords."""
    rng = random.Random(25)
    big = Fraction(10**19 + 7, 3 * 10**19 + 1)  # 20-digit numerator and denominator
    explicit = (
        build_graph(3, [(0, 1, Fraction(1, 2)), (0, 1, Fraction(1, 3)), (1, 2, 2), (2, 0, 1)]),  # parallel p-q
        build_graph(3, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(3, 4)), (2, 0, Fraction(5, 7)),
                        (1, 1, Fraction(2, 9))]),  # loop
        build_graph(4, [(0, 1, 1), (1, 2, Fraction(2, 3)), (2, 0, Fraction(3, 5)),
                        (2, 3, Fraction(4, 7))]),  # bridge
        build_graph(2, [(0, 1, Fraction(1, 3))]),
        build_graph(2, [(0, 1, Fraction(1, 3)), (0, 1, Fraction(2, 5)), (1, 1, Fraction(1, 4))]),
        build_graph(4, [(0, 1, big), (1, 2, big / 3), (2, 3, Fraction(10**20 - 1, 7)), (3, 0, big),
                        (0, 2, Fraction(1, 10**19 + 3))]),
    )
    return (kernel_graphs() + explicit
            + tuple(families.necklace(Fraction(1, 10), Fraction(1, 25), t) for t in range(2, 7))
            + tuple(families.complete(v, Fraction(3, 7)) for v in range(6, 10))
            + (families.cube(Fraction(5, 3)),)
            + tuple(build_graph(v, [(a, b, families.random_length(rng)) for a, b in
                                    [(i, (i + 1) % v) for i in range(v)]
                                    + [tuple(rng.sample(range(v), 2)) for _ in range(v // 2)]])
                    for v in range(10, 20, 2)))


def fit_graphs() -> tuple[MetrizedGraph, ...]:
    """K5, a three-diamond necklace, five trees and five subdivided circles, built anew on each
    call: the sampled solves and Fraction polynomials that the oracles keep per graph go with them."""
    graphs = [families.complete(5), families.necklace(1, 2, 3)]
    graphs += [g for _, g in family_graphs(3, "tree", 5)]
    graphs += [g for _, g in family_graphs(3, "circle_subdivided", 5)]
    return tuple(graphs)


def factor_graphs() -> tuple[MetrizedGraph, ...]:
    """K5, the first tree and the last circle of ``fit_graphs``."""
    graphs = fit_graphs()
    return graphs[0], graphs[2], graphs[11]


@cache
def chain_heavy_graphs() -> tuple[MetrizedGraph, ...]:
    """Mostly degree-two vertices, as the operations build them, with random lengths:
    a 29-edge path, a star centred on vertex 3, a subdivided K4, an immersion and a tower."""
    rng = random.Random(13)
    host = normalize(build_graph(4, [(a, b, families.random_length(rng))
                                     for a in range(4) for b in range(a + 1, 4)]))
    return (
        families.path(*[families.random_length(rng) for _ in range(29)]),
        build_graph(9, [(3, v, families.random_length(rng)) for v in range(9) if v != 3]),
        subdivide_uniform(host, 5),
        immerse(host, [(families.path(Fraction(1, 2), Fraction(1, 2)), 0, 2)] * host.ecount).graph,
        c_tower(host, 0, 2, 2).graph,
    )


@cache
def random_inverse_graphs() -> tuple[MetrizedGraph, ...]:
    """80 random multigraphs of up to 9 vertices and 18 edges and 20 random trees: mixed
    denominators, parallel edges, loops and bridges all occur."""
    rng = random.Random(11)
    graphs = [families.random_connected(rng, 9, 18) for _ in range(80)]
    return tuple(graphs + [families.random_tree(rng, 9) for _ in range(20)])


@cache
def special_inverse_graphs() -> tuple[MetrizedGraph, ...]:
    """One-vertex graphs, a segment, a looped banana, K5, a necklace, a 4-cycle with a loop
    and K4 with 500-digit lengths."""
    rng = random.Random(12)
    big = [Fraction(rng.randrange(10**498, 10**499), rng.randrange(10**498, 10**499)) for _ in range(6)]
    return (
        build_graph(1, []),
        build_graph(1, [(0, 0, Fraction(2, 3))]),
        families.segment(Fraction(5, 7)),
        build_graph(2, [(0, 1, Fraction(1, 3)), (0, 1, Fraction(2, 9)), (1, 1, 4), (1, 0, Fraction(6, 5))]),
        families.complete(5),
        families.necklace(Fraction(1, 3), Fraction(1, 7), 3),
        build_graph(4, [(0, 1, 2), (1, 2, Fraction(3, 4)), (2, 3, Fraction(5, 6)), (3, 1, Fraction(7, 8)),
                        (2, 2, Fraction(1, 9))]),
        build_graph(4, [(a, b, big.pop()) for a in range(4) for b in range(a + 1, 4)]),
    )


def inverse_graphs() -> tuple[MetrizedGraph, ...]:
    """``random_inverse_graphs``, ``special_inverse_graphs`` and ``chain_heavy_graphs``."""
    return random_inverse_graphs() + special_inverse_graphs() + chain_heavy_graphs()


def tau_reducing_sequence(
    g: MetrizedGraph, p: int, q: int, eps: Fraction
) -> tuple[int, OpResult]:
    """Build a normalized graph with tau below tau(g) - r(p,q)(1/4 - tau(g)) + eps.

    The subdivision order m is solved exactly from (A/(m r)) sum L^2/(L+R) <= eps
    rather than searched; the immersion of g into its own m-subdivision then
    realizes the bound, and the result's exact tau is checked against it.
    """
    if p == q:
        raise SamePoint("need two distinct points")
    if total_length(g) != 1:
        raise MgtError("input graph must be normalized")
    eps = Fraction(eps)
    if eps <= 0:
        raise MgtError("eps must be positive")
    r = context(g).r(p, q)
    a_val = apq(g, p, q)
    spread = parallel_sum(g)
    m = max(1, math.ceil(a_val * spread / (r * eps)))
    host = subdivide_uniform(g, m)
    result = immerse(host, [(g, p, q)] * host.ecount)
    achieved = tau_of(result.graph)
    predicted = tau_of(g) - r * (Fraction(1, 4) - tau_of(g)) + a_val * spread / (m * r)
    if achieved != predicted:
        raise AssertionError(f"immersion value mismatch: {achieved} vs {predicted}")
    bound = tau_of(g) - r * (Fraction(1, 4) - tau_of(g)) + eps
    if achieved > bound:
        raise AssertionError(f"tau-reduction bound violated: {achieved} > {bound}")
    return m, result


def necklace_witness() -> tuple[CheckResult, CheckResult]:
    """The normalized necklace instance that separates tau from the cubic sum.

    Uses the closed-form tau (verified against the direct engine on small
    instances) and symmetry classes for the per-edge deleted resistances:
    600 edges fall into three classes whose deleted graphs reduce to five-node
    networks.
    """
    t = 100
    a = Fraction(1, 101)
    b = (1 - a * t) / (5 * t)
    g = families.necklace(a, b, t)
    assert total_length(g) == 1
    tau = families.necklace_tau(a, b, t)
    term = necklace_cubic_sum(a, b, t) / 12
    r1 = CheckResult(
        "necklace-tau-above", f"necklace(a={a},b={b},t={t})",
        tau, Fraction(10, 121),
        "pass" if tau > Fraction(10, 121) else "fail",
    )
    r2 = CheckResult(
        "necklace-cubic-below", f"necklace(a={a},b={b},t={t})",
        term, Fraction(1, 5000),
        "pass" if term < Fraction(1, 5000) else "fail",
    )
    return r1, r2


def necklace_cubic_sum(a, b, t: int) -> Fraction:
    """sum L^3/(L+R)^2 on the necklace via its three edge symmetry classes."""
    a = Fraction(a)
    b = Fraction(b)
    res = necklace_edge_resistances(a, b, t)
    return (
        t * a**3 / (a + res["ring"]) ** 2
        + 4 * t * b**3 / (b + res["side"]) ** 2
        + t * b**3 / (b + res["diagonal"]) ** 2
    )


def necklace_edge_resistances(a, b, t: int) -> dict[str, Fraction]:
    """Deleted-edge resistances per symmetry class of the necklace.

    Each diamond sees the rest of the necklace as a single resistor of value
    t a + (t-1) b between its two ring attachment points, so every class
    reduces to a five-node network.
    """
    a = Fraction(a)
    b = Fraction(b)
    outside = t * a + (t - 1) * b
    # vertices: p=0, corner1=1, q=2, corner2=3; ring closure p-q through outside
    diamond = [(0, 1, b), (1, 2, b), (2, 3, b), (3, 0, b), (1, 3, b)]
    ring = (t - 1) * a + t * b
    side_net = build_graph(4, diamond[1:] + [(0, 2, outside)])
    side = context(side_net).r(0, 1)
    diag_net = build_graph(4, diamond[:4] + [(0, 2, outside)])
    diagonal = context(diag_net).r(1, 3)
    return {"ring": ring, "side": side, "diagonal": diagonal}
