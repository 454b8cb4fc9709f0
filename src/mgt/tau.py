"""tau, the canonical measure, the bound suite, the exact gradient and A.

All of them are closed-form per-edge sums over the one integer Green matrix
of a graph (numerators N over a determinant d, ``GraphContext.num`` and
``den``, and the per-edge rows ``GraphContext.rows``). For an edge e = (a, b)
of length L, with r = r(a,b) and D = r(p,b) - r(p,a) for a base vertex p:

* tau = 1/4 sum_e [D^2/L + (L - r)^2/(3L)], for every base p;
* the deleted resistance is R = L r/(L - r), so 1/(L+R) = (L - r)/L^2 and
  R/(L+R) = r/L; a bridge has r = L (R infinite), a self-loop r = 0;
* d r(y,z)/d L_e = i_e(y,z)^2 (Rayleigh), where i_e(y,z) is the current
  through e for a unit current from y to z; the chain rule through the tau
  sum gives the gradient with no further solve, its sum over edges f being
  one quadratic form per graph in the difference of e's two Green rows;
* the voltage integral A_{p,q} (``apq``) integrates the edge quadratics of
  ``mgt.integration`` in closed form, with the current i_e(p,q) constant
  along each edge.

Sums are accumulated in integers over a common denominator and reduced once,
so each reported value is one Fraction; the canonical measure's total mass is
such a sum over the record's own masses and densities, a check of the record.
tau (``tau_of``, also stored by ``tau_edge_sum``), A (``apq``, per unordered
vertex pair), A of the graph minus one edge (``deleted_apq``, per edge) and
the bound suite's rows are memoized in the graph's ``GraphContext.memo``
through ``graph._cached``.
tau at any base is one sum (``_tau_sum``) and A one sum (``_apq_sum``), over
a diagonal and rows of Green numerators: g's own, or those of a rank-one
update of them (``circuit.GreenUpdate``) for g minus an edge (``deleted_apq``)
or for g with p and q glued, the zero-length limit of an edge p-q, so neither
graph is built. ``apq_identity`` keeps the paper's identification route for
A, r(p,q) (tau(glued) - tau) + r(p,q)^2/6, as a check of ``apq`` by a
different formula; ``apq_checked`` compares the closed form with it and with
the integral.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from operator import mul, sub
from typing import NamedTuple

from .circuit import GreenUpdate, context
from .errors import EmptyGraph, HasBridge, MgtError
from .graph import MetrizedGraph, _cached, bridges, check_vertices, edge_at, genus, total_length
from .rational import ExtScalar, sum_over


class TauReport(NamedTuple):
    tau: Fraction
    total_length: Fraction
    genus: int
    per_edge: tuple[tuple[int, Fraction, ExtScalar], ...]  # (edge, contribution, deleted resistance)
    base_vertex: int


class CanonicalMeasure(NamedTuple):
    vertex_masses: tuple[tuple[int, Fraction], ...]
    edge_densities: tuple[tuple[int, Fraction], ...]

    def total_mass(self, g: MetrizedGraph) -> Fraction:
        """Point masses plus density times length per edge, from this record's values alone."""
        terms = [m.as_integer_ratio() for _, m in self.vertex_masses]
        for edge_id, density in self.edge_densities:
            length = g.edges[edge_id].length
            terms.append((density.numerator * length.numerator,
                          density.denominator * length.denominator))
        return sum_over(terms, 1)


class GradientVector(NamedTuple):
    entries: tuple[Fraction, ...]
    bridge_edges: tuple[int, ...]  # edges reported with the tree-like derivative 1/4


def _potentials(num: list[list[int]], base: int = 0) -> list[int]:
    """N[y][y] - 2 N[p][y] = d r(p,y) - N[p][p] per vertex y at base p. Row 0 of N is zero,
    so at base 0 this is the diagonal, and a diagonal alone (g's or an update's) serves."""
    row_p = num[base]
    return [row[y] - 2 * row_p[y] for y, row in enumerate(num)]


def _base_dns(pot: list[int], rows) -> list[int]:
    """Per edge dn = d (r(p,b) - r(p,a)), from ``_potentials`` at base p."""
    return [pot[b] - pot[a] for a, b, *_ in rows]


def _tau_sum(rows, pot: list[int], den: int) -> tuple[Fraction, list[tuple[int, int]]]:
    """tau, and per edge 12 d^2 times its tau share as (numerator, denominator), from the
    ``GraphContext.rows`` over d and D = r(p,b) - r(p,a), read off ``_potentials`` at p."""
    terms = []
    for a, b, ln, ld, _, gap in rows:
        dl = (pot[b] - pot[a]) * ld  # d D ld
        terms.append((3 * dl * dl + gap * gap, ln * ld))
    return sum_over(terms, 12 * den ** 2), terms


def cubic_sum(g: MetrizedGraph) -> Fraction:
    """sum L^3/(L+R)^2 = sum (L - r)^2/L over edges; zero across a bridge."""
    ctx = context(g)
    return sum_over([(gap * gap, ln * ld) for _, _, ln, ld, _, gap in ctx.rows], ctx.den ** 2)


def weighted_res_sum(g: MetrizedGraph) -> Fraction:
    """sum L R/(L+R) = sum r(a,b) over edges; a bridge gives its limit L = r."""
    ctx = context(g)
    return sum_over([(rn, 1) for _, _, _, _, rn, _ in ctx.rows], ctx.den)


def weighted_res_square_sum(g: MetrizedGraph) -> Fraction:
    """sum L R^2/(L+R)^2 = sum r(a,b)^2/L over edges; a bridge gives its limit L."""
    ctx = context(g)
    return sum_over([(rn * rn * ld, ln) for _, _, ln, ld, rn, _ in ctx.rows], ctx.den ** 2)


def tau_edge_sum(g: MetrizedGraph, base: int = 0) -> TauReport:
    """tau as the per-edge sum relative to a base vertex (value is base-free).

    Each edge reports (edge, contribution, deleted resistance R). The report
    carries its own sum at ``base``; the first sum is kept as the graph's
    memoized tau, so later ``tau_of`` calls read it without a second pass.
    """
    check_vertices(g, base)
    ctx = context(g)
    den = ctx.den
    tau, terms = _tau_sum(ctx.rows, _potentials(ctx.num, base), den)
    scale = 12 * den ** 2
    per_edge = tuple((i, Fraction(n, scale * m), ctx.res_deleted(i)) for i, (n, m) in enumerate(terms))
    _cached(ctx.memo, "tau", lambda: tau)
    return TauReport(tau, total_length(g), genus(g), per_edge, base)


def tau_of(g: MetrizedGraph) -> Fraction:
    """Memoized tau value."""
    ctx = context(g)
    return _cached(ctx.memo, "tau", lambda: _tau_sum(ctx.rows, _potentials(ctx.num), ctx.den)[0])


def canonical_measure(g: MetrizedGraph) -> CanonicalMeasure:
    """Point masses 1 - valence/2 plus density 1/(L+R) = (L-r)/L^2 per edge (0 on bridges)."""
    ctx = context(g)
    den = ctx.den
    valence = [0] * g.vcount
    for a, b, _ in g.edges:
        valence[a] += 1
        valence[b] += 1
    masses = tuple((v, Fraction(2 - n, 2)) for v, n in enumerate(valence))
    densities = tuple((i, Fraction(gap * ld, den * ln * ln))
                      for i, (_, _, ln, ld, _, gap) in enumerate(ctx.rows))
    return CanonicalMeasure(masses, densities)


def genus_identity_check(g: MetrizedGraph) -> tuple[Fraction, Fraction]:
    """(sum L/(L+R), sum R/(L+R)); equals (genus, v-1), bridges giving (0, 1).

    R/(L+R) = r/L, and the two summands of an edge add up to one.
    """
    ctx = context(g)
    right = sum_over([(rn * ld, ln) for _, _, ln, ld, rn, _ in ctx.rows], ctx.den)
    return g.ecount - right, right


def apq(g: MetrizedGraph, p: int, q: int) -> Fraction:
    """The voltage integral A = int j_x(p,q) (d/dx j_p(x,q))^2 dx in closed form.

    The current through an edge is constant along it, so each edge adds
    i_e(p,q)^2 L [(r(p,a) + r(p,b) + r(q,a) + r(q,b))/4 - r(p,q)/2 + (L - r(a,b))/6].
    Over d: with c_e = (N[a][p] - N[b][p]) - (N[a][q] - N[b][q]) (so
    i_e = c_e/(d L)), S_e = d (r(p,a) + r(p,b) + r(q,a) + r(q,b)) and
    R = d r(p,q),

        A = sum_e c_e^2 (3 ld S_e - 6 ld R + 2 gap_e) / (12 ln_e d^3).

    Zero when p = q, where the integrand vanishes identically. A is
    symmetric in p and q (c_e only changes sign), so each graph's context
    memoizes it once per unordered pair.
    """
    check_vertices(g, p, q)
    if p == q:
        return Fraction(0)
    ctx = context(g)
    num = ctx.num
    return _cached(ctx.memo, ("A", min(p, q), max(p, q)),
                   lambda: _apq_sum(num[p], num[q], _potentials(num), ctx.den, ctx.rows, p, q))


def _apq_sum(rp: list[int], rq: list[int], diag: list[int], den: int, rows,
             p: int, q: int) -> Fraction:
    """A_{p,q} from rows p and q and the diagonal of Green numerators N over d, and the edge rows."""
    npp, nqq = diag[p], diag[q]
    big_r = npp + nqq - 2 * rp[q]
    terms = []
    for a, b, ln, ld, _, gap in rows:
        c = rp[a] - rp[b] - rq[a] + rq[b]
        if c:
            s_e = 2 * (npp + nqq + diag[a] + diag[b]) - 2 * (rp[a] + rp[b] + rq[a] + rq[b])
            terms.append((c * c * (3 * ld * (s_e - 2 * big_r) + 2 * gap), ln))
    return sum_over(terms, 12 * den ** 3)


def apq_identity(g: MetrizedGraph, p: int, q: int) -> Fraction:
    """The voltage integral A via two tau values and one resistance.

    A = r(p,q) (tau(glued) - tau) + r(p,q)^2 / 6, where "glued" identifies p
    with q. The paper's identification route, kept as a check of ``apq``: the
    glued graph's Green integers are a rank-one update of g's own
    (``circuit.GreenUpdate``), so no glued graph is built or factorized.
    Zero when p = q, as ``apq`` is.
    """
    check_vertices(g, p, q)
    if p == q:
        return Fraction(0)
    ctx = context(g)
    r = ctx.r(p, q)
    glued = GreenUpdate(ctx.num, ctx.den, p, q, 0, 1)  # the zero-length limit of an edge p-q
    glued_tau = _tau_sum(glued.rows(ctx.rows), glued.diag(), glued.den)[0]
    return r * (glued_tau - tau_of(g)) + r * r / 6


def apq_checked(g: MetrizedGraph, p: int, q: int) -> Fraction:
    """A by three routes (closed form, identification, integral), asserted equal."""
    from .integration import apq_direct

    value = apq(g, p, q)
    routes = (("identity", apq_identity(g, p, q)), ("integral", apq_direct(g, p, q)))
    for name, other in routes:
        if other != value:
            raise MgtError(f"A mismatch at ({p},{q}): closed form {value} vs {name} {other}")
    return value


def deleted_apq(g: MetrizedGraph, edge_id: int) -> Fraction:
    """A between an edge's endpoints in g minus the edge; 0 on a loop, BridgeDeletion on a bridge."""
    a, b, _ = edge_at(g, edge_id)
    ctx = context(g)

    def compute():
        deleted = ctx.deleted(edge_id)  # BridgeDeletion on a bridge
        rows = ctx.rows
        return _apq_sum(deleted.row(a), deleted.row(b), deleted.diag(), deleted.den,
                        deleted.rows(rows[:edge_id] + rows[edge_id + 1:]), a, b)

    return _cached(ctx.memo, ("deleted A", edge_id), compute)


def tau_gradient(g: MetrizedGraph) -> GradientVector:
    """Exact partial derivatives of tau in each edge length.

    Differentiates the tau sum at base p = 0, the ground of the Green matrix
    (row 0 of N is zero). With c_e[y] = N[a_e][y] - N[b_e][y], the current
    through e for a unit current from y to z is (c_e[y] - c_e[z])/(d L_e), and

        4 dtau/dL_e = (L_e^2 - r_e^2)/(3 L_e^2) - D_e^2/L_e^2
                      + sum_f [2 D_f/L_f (i_e(p,b_f)^2 - i_e(p,a_f)^2)
                               - 2 (L_f - r_f)/(3 L_f) i_e(a_f,b_f)^2].

    The weights of the f-sum share the denominator W = 3 d lcm(ln). With
    k_f = lcm(ln)/ln_f, alpha_f = 6 dn_f ld_f k_f, beta_f = 2 gap_f k_f and
    c_e[p] = 0, W times the f-sum is the quadratic form c_e^T Q c_e, where Q
    adds alpha_f - beta_f at (b_f, b_f), -(alpha_f + beta_f) at (a_f, a_f)
    and 2 beta_f to the pair {a_f, b_f} (parallel edges share one entry; a
    loop's three terms cancel). Q is built once per call, so each edge costs
    one product per vertex and per joined pair rather than several per edge.
    Bridges come out as 1/4 and loops as 1/12.
    """
    ctx = context(g)
    num, den, rows = ctx.num, ctx.den, ctx.rows
    dns = _base_dns(_potentials(num), rows)  # D_e = dn/d at base 0
    big_l = lcm(*(row[2] for row in rows))
    w = 3 * den * big_l
    diag = [0] * g.vcount
    joined: dict[tuple[int, int], int] = {}
    for (a, b, ln, ld, _, gap), dn in zip(rows, dns):
        if a != b:
            alpha, beta = 6 * dn * ld * (big_l // ln), 2 * gap * (big_l // ln)
            diag[a] -= alpha + beta
            diag[b] += alpha - beta
            pair = (a, b) if a < b else (b, a)
            joined[pair] = joined.get(pair, 0) + 2 * beta
    # c[0] = 0 (row 0 of N is zero), so a pair at vertex 0 drops out; bridges have beta = 0
    off = [(y, z, q) for (y, z), q in joined.items() if y and q]
    ys, zs, qs = zip(*off) if off else ((), (), ())
    entries = []
    for (a, b, ln, ld, rn, _), dn in zip(rows, dns):
        c = list(map(sub, num[a], num[b]))
        # sum_y Q[y][y] c[y]^2 + sum_pairs Q[y][z] c[y] c[z], as C-level loops
        cross = (sum(map(mul, diag, map(mul, c, c)))
                 + sum(map(mul, qs, map(mul, map(c.__getitem__, ys), map(c.__getitem__, zs)))))
        top = (ln * ln * den * den - rn * rn * ld * ld - 3 * dn * dn * ld * ld) * w
        entries.append(Fraction(top + 3 * cross * ld * ld, 12 * w * den * den * ln * ln))
    bridge_ids = tuple(i for i, row in enumerate(rows) if row[5] == 0)
    return GradientVector(tuple(entries), bridge_ids)


def tau_bridgeless_identity(g: MetrizedGraph) -> tuple[Fraction, Fraction]:
    """(tau, L/12 - sum L_i A_i / (L_i+R_i)^2); the two sides must agree exactly."""
    if bridges(g):
        raise HasBridge("identity requires a bridgeless graph")
    ctx = context(g)
    # L/(L+R)^2 = ld gap^2/(ln^3 d^2); a loop's A is 0
    drop = sum((deleted_apq(g, i) * Fraction(ld * gap * gap, ln**3)
                for i, (a, b, ln, ld, _, gap) in enumerate(ctx.rows) if a != b), Fraction(0))
    return tau_of(g), total_length(g) / 12 - drop / ctx.den ** 2


class BoundCheck(NamedTuple):
    bound: str
    applicable: bool
    reason: str
    lhs: Fraction | None
    rhs: Fraction | None
    relation: str
    holds: bool | None


def lower_bound_suite(g: MetrizedGraph) -> list[BoundCheck]:
    """Evaluate the closed-form tau bounds that apply to this graph, exactly.

    Every bound here is scale-covariant, so each is evaluated at total length
    1: tau, resistances and the sums below scale linearly with the length, so
    they come from g's own Green matrix divided by the total length. Bounds
    whose hypotheses fail are reported as skipped with the reason. The rows
    are memoized in the graph's context; each call returns a fresh list.
    """
    if g.ecount == 0:
        raise EmptyGraph("the tau bounds need a graph with at least one edge")
    ctx = context(g)
    return list(_cached(ctx.memo, "bounds", _bound_checks, g, ctx.rows))


def _bound_checks(g: MetrizedGraph, rows) -> tuple[BoundCheck, ...]:
    e = g.ecount
    ell = total_length(g)
    tau = tau_of(g) / ell
    v = g.vcount
    gen = genus(g)
    bridge_free = all(row[5] for row in rows)
    equal_lengths = len({(ln, ld) for _, _, ln, ld, _, _ in rows}) == 1
    out = [
        BoundCheck("tau-upper-quarter", True, "", tau, Fraction(1, 4), "<=", tau <= Fraction(1, 4)),
        BoundCheck("tau-lower-1-16e", True, "", Fraction(1, 16 * e), tau, "<=", Fraction(1, 16 * e) <= tau),
        BoundCheck("tau-tree-equality", True, "",
                   tau, Fraction(1, 4), "== iff tree",
                   (tau == Fraction(1, 4)) == (gen == 0 and not any(a == b for a, b, _ in g.edges))),
    ]
    if bridge_free:
        out.append(BoundCheck("tau-upper-twelfth-bridgeless", True, "", tau, Fraction(1, 12), "<=",
                              tau <= Fraction(1, 12)))
    else:
        out.append(BoundCheck("tau-upper-twelfth-bridgeless", False, "graph has a bridge",
                              None, None, "<=", None))
    if equal_lengths:
        base = Fraction(gen, e) ** 2 / 12
        out.append(BoundCheck("equal-length", True, "", base, tau, "<=", base <= tau))
        better = base + Fraction(1, 2 * v) * Fraction(v - 1, e) ** 2
        out.append(BoundCheck("equal-length-sharper", True, "", better, tau, "<=", better <= tau))
    else:
        for name in ("equal-length", "equal-length-sharper"):
            out.append(BoundCheck(name, False, "edge lengths not all equal", None, None, "<=", None))
    if bridge_free:
        # sum R over the edges, R = ln rn/gap (``GraphContext.res_deleted``)
        sum_r = sum_over([(ln * rn, gap) for _, _, ln, _, rn, gap in rows], 1) / ell
        bound = 1 / (12 * (1 + sum_r) ** 2)
        out.append(BoundCheck("deleted-resistance-sum", True, "", bound, tau, "<=", bound <= tau))
    else:
        out.append(BoundCheck("deleted-resistance-sum", False,
                              "a bridge makes the deleted-resistance sum infinite",
                              None, None, "<=", None))
    if _every_pair_doubled(g):
        out.append(BoundCheck("doubled-edges-1-48", True, "", Fraction(1, 48), tau, "<=",
                              Fraction(1, 48) <= tau))
    else:
        out.append(BoundCheck("doubled-edges-1-48", False,
                              "some endpoint pair is joined by only one edge",
                              None, None, "<=", None))
    lhs = weighted_res_square_sum(g) / ell
    rhs_inner = weighted_res_sum(g) / ell
    out.append(BoundCheck("weighted-deleted-square", True, "", rhs_inner**2, lhs, "<=",
                          rhs_inner**2 <= lhs))
    return tuple(out)


def _every_pair_doubled(g: MetrizedGraph) -> bool:
    counts = Counter((a, b) if a < b else (b, a) for a, b, _ in g.edges if a != b)
    return bool(counts) and min(counts.values()) >= 2
