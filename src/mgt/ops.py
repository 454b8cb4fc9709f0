"""Graph operations that transform tau in closed form.

Each operation returns the new graph together with its formula for the tau
of the result; the formula runs when ``predicted_tau`` is first read, so an
operation whose prediction nobody reads costs only its graph. An MgtError the
formula raises reaches the reader.
Verification code checks prediction against direct recomputation, exactly.
Vertex ids of results are renumbered deterministically: the first operand's
ids survive, then the second operand's remaining ids in order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .circuit import context
from .errors import BadN, MgtError, NonPositiveLength, SamePoint
from .graph import (MAX_EDGES, Edge, Frozen, MetrizedGraph, _cached, _scaled, _shift_edges, bridges,
                    check_count, check_size, check_vertices, delete_edge_graph, edge_at,
                    identify_points_graph, normalize, subdivide_uniform, total_length)
from .rational import Scalar, sum_over
from .tau import apq, deleted_apq, tau_of


class OpResult(Frozen):
    """An operation's result graph and its tau formula, evaluated on first read."""

    def __init__(self, graph: MetrizedGraph, formula_id: str, formula: Callable[[], Fraction]):
        self.__dict__.update(graph=graph, formula_id=formula_id, formula=formula)

    def __repr__(self):
        return f"OpResult(graph={self.graph!r}, formula_id={self.formula_id!r})"

    @property
    def predicted_tau(self) -> Fraction:
        return _cached(self.__dict__, "_predicted", self.formula)


def delete_edge(g: MetrizedGraph, edge_id: int) -> OpResult:
    """Remove a non-bridge edge; tau drops by L/12 - R/6 + A/(L+R)."""
    deleted, _ = delete_edge_graph(g, edge_id)  # checks the id; BridgeDeletion on a bridge
    length = g.edges[edge_id].length

    def formula():
        res = context(g).res_deleted(edge_id)
        return tau_of(g) - length / 12 + res / 6 - deleted_apq(g, edge_id) / (length + res)

    return OpResult(deleted, "edge-deletion", formula)


def contract_edge(g: MetrizedGraph, edge_id: int) -> OpResult:
    """Shrink an edge to a point.

    A self-loop contraction is its deletion (tau drops L/12); a bridge
    contraction drops L/4; otherwise tau drops L/12 - L A /(R(L+R)).
    """
    a, b, length = edge_at(g, edge_id)
    if a == b:
        graph, _ = delete_edge_graph(g, edge_id)
        return OpResult(graph, "loop-contraction", lambda: tau_of(g) - length / 12)
    rest = g.edges[:edge_id] + g.edges[edge_id + 1 :]  # glued as identify_points_graph glues
    graph = MetrizedGraph._derived(*_shift_edges(g.vcount, rest, {max(a, b): min(a, b)}, 0))
    if edge_id in bridges(g):
        return OpResult(graph, "bridge-contraction", lambda: tau_of(g) - length / 4)

    def formula():
        res = context(g).res_deleted(edge_id)
        return tau_of(g) - length / 12 + length * deleted_apq(g, edge_id) / (res * (length + res))

    return OpResult(graph, "edge-contraction", formula)


def contract_bridges(g: MetrizedGraph) -> MetrizedGraph:
    """g with every bridge contracted, lowest id first; g itself when it has none.

    Each contraction lowers tau by L/4, and a tree ends as a single point.
    """
    while ids := bridges(g):
        g = contract_edge(g, ids[0]).graph
    return g


def identify_points(g: MetrizedGraph, p: int, q: int) -> OpResult:
    """Glue two distinct vertices; tau moves by -r/6 + A/r."""
    graph = identify_points_graph(g, p, q)

    def formula():
        r = context(g).r(p, q)
        return tau_of(g) - r / 6 + apq(g, p, q) / r

    return OpResult(graph, "point-identification", formula)


def add_edge(g: MetrizedGraph, p: int, q: int, new_length: Scalar) -> OpResult:
    """Attach a fresh edge between two vertices (possibly equal)."""
    check_vertices(g, p, q)
    new_length = Fraction(new_length)
    if new_length <= 0:
        raise NonPositiveLength("new edge length must be positive")
    graph = MetrizedGraph._derived(g.vcount, g.edges + (Edge(p, q, new_length),))

    def formula():
        if p == q:
            return tau_of(g) + new_length / 12
        r = context(g).r(p, q)
        a_val = apq(g, p, q)
        return tau_of(g) + new_length / 12 - r / 6 + a_val / (new_length + r)

    return OpResult(graph, "edge-addition", formula)


def union_one_point(g1: MetrizedGraph, p1: int, g2: MetrizedGraph, p2: int) -> OpResult:
    """One-point union; tau is additive across the wedge point."""
    check_vertices(g1, p1)
    check_vertices(g2, p2)
    vcount, edges2 = _shift_edges(g2.vcount, g2.edges, {p2: p1}, g1.vcount)
    graph = MetrizedGraph._derived(vcount, g1.edges + edges2)
    return OpResult(graph, "wedge-additivity", lambda: tau_of(g1) + tau_of(g2))


def union_two_points(
    g1: MetrizedGraph, g2: MetrizedGraph,
    pq1: tuple[int, int], pq2: tuple[int, int],
) -> OpResult:
    """Union along two glued point pairs.

    tau(union) = tau1 + tau2 - (r1+r2)/6 + (A1+A2)/(r1+r2).
    """
    p1, q1 = pq1
    p2, q2 = pq2
    check_vertices(g1, p1, q1)
    check_vertices(g2, p2, q2)
    if p1 == q1 or p2 == q2:
        raise SamePoint("two-point union needs distinct glue points in each part")
    vcount, edges2 = _shift_edges(g2.vcount, g2.edges, {p2: p1, q2: q1}, g1.vcount)
    graph = MetrizedGraph._derived(vcount, g1.edges + edges2)

    def formula():
        r1 = context(g1).r(p1, q1)
        r2 = context(g2).r(p2, q2)
        a1 = apq(g1, p1, q1)
        a2 = apq(g2, p2, q2)
        return tau_of(g1) + tau_of(g2) - (r1 + r2) / 6 + (a1 + a2) / (r1 + r2)

    return OpResult(graph, "two-point-union", formula)


def parallel_sum(g: MetrizedGraph) -> Fraction:
    """sum L^2/(L+R) = sum (L - r(a,b)) over edges: zero on a bridge, L on a loop."""
    ctx = context(g)
    return sum_over([(gap, ld) for _, _, _, ld, _, gap in ctx.rows], ctx.den)


def marked_edge_sums(g: MetrizedGraph, betas) -> dict:
    """Per distinct marked graph (beta, p, q): (sum L, sum L^2/(L+R)) over the edges it replaces.

    L^2/(L+R) = L - r(a,b) = gap/(ld d): zero on a bridge, L on a loop.
    """
    ctx = context(g)
    groups: dict = {}
    for (_, _, ln, ld, _, gap), marked in zip(ctx.rows, betas):
        groups.setdefault(marked, []).append((ln, ld, gap))
    den = ctx.den
    return {marked: (sum_over([(ln, ld) for ln, ld, _ in rows], 1),
                     sum_over([(gap, ld) for _, ld, gap in rows], den)) for marked, rows in groups.items()}


def parallel_split_tau(g: MetrizedGraph, n: int) -> Fraction:
    """tau of the parallel split by n, from g alone, with no split built:
    tau/n^2 + (L/12)((n-1)/n)^2 + ((n-1)/(6n^2)) sum L^2/(L+R)."""
    check_count(n, BadN, "parallel multiplicity")
    return (tau_of(g) / n**2 + total_length(g) / 12 * Fraction(n - 1, n) ** 2
            + Fraction(n - 1, 6 * n**2) * parallel_sum(g))


def da_n(g: MetrizedGraph, n: int) -> OpResult:
    """Replace every edge by n parallel edges of length L/n (total length fixed);
    tau follows ``parallel_split_tau``."""
    check_count(n, BadN, "parallel multiplicity")
    check_size(g.vcount, n * g.ecount, f"a parallel split by n={n}", g)
    graph = MetrizedGraph._derived(g.vcount, tuple(e for e in _scaled(g.edges, 1, n) for _ in range(n)))
    return OpResult(graph, "parallel-split", lambda: parallel_split_tau(g, n))


def subdivide(g: MetrizedGraph, m: int) -> OpResult:
    """Divide every edge into m equal pieces; valence-2 points leave tau unchanged."""
    return OpResult(subdivide_uniform(g, m), "subdivision-invariance", lambda: tau_of(g))


def _marked_template(beta: MetrizedGraph, p: int, q: int) -> list:
    """A marked graph laid out for copying, as [k, edges]: its k vertices other than p and q,
    then p as label k and q as label k + 1; each edge as (label, label, numerator, denominator)."""
    check_vertices(beta, p, q)
    if p == q:
        raise SamePoint("marked points must be distinct")
    inner = [v for v in range(beta.vcount) if v != p and v != q]
    label = {v: i for i, v in enumerate(inner)} | {p: len(inner), q: len(inner) + 1}
    return [len(inner), [(label[x], label[y], *length.as_integer_ratio()) for x, y, length in beta.edges]]


def immerse(
    g: MetrizedGraph,
    betas: list[tuple[MetrizedGraph, int, int]],
) -> OpResult:
    """Replace each edge of a graph by a scaled marked graph; normalize.

    Host and marked graphs are normalized first (tau(c g) = c tau(g)). Edge i
    then becomes a copy of beta_i scaled so the resistance between its two
    marked vertices equals the edge length; endpoint a of the edge lands on
    the first marked vertex. The copies (each beta_i has length one) add up to
    S = sum L_i/r_i, so only the normalized graph is built, edge e of copy i
    with length L_e L_i/(r_i S). The prediction is its tau. Each distinct
    marking is checked and laid out once.
    """
    g = normalize(g)
    normal = {id(beta): beta for beta, _, _ in betas}  # each marked graph object once
    normal = {key: normalize(beta) for key, beta in normal.items()}
    if len(betas) != g.ecount:
        raise MgtError("need one marked graph per edge")
    betas = [(normal[id(beta)], p, q) for beta, p, q in betas]
    plans, per_edge = {}, []  # each marking's [k, edges, host edge ids, r] and each host edge's plan
    for i, marked in enumerate(betas):  # one lookup per host edge; a non-int mark is checked each time
        if (plan := plans.get(marked)) is None or not type(marked[1]) is type(marked[2]) is int:
            plan = plans.setdefault(marked, _marked_template(*marked) + [[]])
        plan[2].append(i)
        per_edge.append(plan)
    check_size(g.vcount + sum(plan[0] for plan in per_edge),
               sum(len(plan[1]) for plan in per_edge), "an immersion", g)
    for (beta, p, q), plan in plans.items():
        plan.append(context(beta).r(p, q))
    ratios = []  # L_i/r_i
    for (_, _, length), (_, _, _, r) in zip(g.edges, per_edge):
        (ln, ld), (rn, rd) = length.as_integer_ratio(), r.as_integer_ratio()
        ratios.append((ln * rd, ld * rn))
    size = sum_over(ratios, 1)
    edges, nxt = [], g.vcount
    for (a, b, _), (inner, local, _, _), (n, d) in zip(g.edges, per_edge, ratios):
        label = [*range(nxt, nxt + inner), a, b]
        nxt += inner
        num, den = n * size.denominator, d * size.numerator
        edges += [tuple.__new__(Edge, (label[x], label[y], Fraction(ln * num, ld * den)))
                  for x, y, ln, ld in local]
    graph = MetrizedGraph._derived(nxt, tuple(edges))

    def formula():  # each plan's sums of L and of L - r(a, b) over the host edges it replaces
        ctx = context(g)
        size = Fraction(0)
        rhs = tau_of(g) - Fraction(1, 4)
        for (beta, p, q), (_, _, ids, r_beta) in plans.items():
            rows = [ctx.rows[i] for i in ids]
            ell = sum_over([(ln, ld) for _, _, ln, ld, _, _ in rows], 1)
            par = sum_over([(gap, ld) for _, _, _, ld, _, gap in rows], ctx.den)
            size += ell / r_beta
            rhs += (ell * tau_of(beta) + par * apq(beta, p, q) / r_beta) / r_beta
        return rhs / size

    return OpResult(graph, "edge-immersion", formula)


def c_tower(g: MetrizedGraph, p: int, q: int, n: int) -> OpResult:
    """Union of 2^n copies of the normalized graph along p, q, built once and normalized.

    Predicted tau: tau + (1 - 2^-n) A/r + (-1/6 - 1/(6 2^n) + 1/(3 4^n)) r.
    """
    check_vertices(g, p, q)
    if p == q:
        raise SamePoint("tower points must be distinct")
    check_count(n, BadN, "tower exponent")
    g = normalize(g)
    copies = 2 ** min(n, MAX_EDGES.bit_length())  # more copies are over the edge limit too
    check_size(copies * (g.vcount - 2) + 2, copies * g.ecount, f"a tower of 2^{n} copies", g)
    vcount, edges = g.vcount, _scaled(g.edges, 1, 2**n)  # one copy scaled; total length 2^n after
    for _ in range(n):  # the two-point union of the tower so far with a copy of itself
        vcount, shifted = _shift_edges(vcount, edges, {p: p, q: q}, vcount)
        edges += shifted
    graph = MetrizedGraph._derived(vcount, edges)

    def formula():
        r = context(g).r(p, q)
        a_val = apq(g, p, q)
        half = Fraction(1, 2**n)
        coeff = -Fraction(1, 6) - half / 6 + Fraction(1, 3 * 4**n)
        return tau_of(g) + (1 - half) * a_val / r + coeff * r

    return OpResult(graph, "two-point-tower", formula)
