"""Randomized verification harness: every supported identity as an exact check.

A check is a plain function ``fn(g, rng)`` that returns the ``(lhs, rhs)`` it
compared exactly. It raises ``_Fail`` when a comparison does not hold, and
``_Skip`` with the reason when the instance cannot serve it, as when a
construction exceeds the desk-scale ``MAX_BUILT_*`` budget (an operation's
``TooLarge`` skips too). ``run_graph_checks`` is the one place that turns a
return or a raise into a ``CheckResult``.

``@_identity(id, description, anchor, *needs)`` registers each entry beside its
check, in ``CHECKS``, so the catalog runs in file order; the checks of a graph
share one rng, so moving a check shifts every later draw. ``needs`` names rows
of ``_HYPOTHESES`` (two vertices; a proper edge, neither bridge nor loop; no
bridge), each a predicate and its skip reason, tested by ``run_graph_checks``
before the check runs or draws. A body assumes its declared hypotheses: called
alone on a graph that fails one, it does not skip. Until each identity draws
from a stream of its own, ``thmtwopunion``, ``thm-twopunion-Apq`` and
``thm-smaller-tau-decrease`` test two vertices in the body (``_distinct_pair``),
after the draw or budget test that comes first.

The six bound entries read ``tau.lower_bound_suite`` through ``_check_bounds``;
``tests/oracles.py`` keeps the deletion-profile route that checks their rows.
``_apq_checked`` compares the closed form ``tau.apq`` with A's oracle routes, the
identification identity and the integral, and ``thmremain-equivalences``
compares the integral with it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from itertools import permutations
from math import gcd
from typing import NamedTuple

from . import families
from .circuit import KirchhoffState, context
from .errors import EmptyGraph, MgtError, TooLarge, UnknownIdentity
from .graph import (MetrizedGraph, _cached, bridges, delete_edge_graph, genus, identify_points_graph,
                    insert_point, normalize, scale, subdivide_uniform, total_length)
from .integration import (
    TAG_J_BASE_P,
    TAG_J_BASE_Q,
    TAG_J_BASE_X,
    TAG_R_FROM_P,
    apq_direct,
    integrate_product,
)
from .ops import (
    add_edge,
    c_tower,
    contract_bridges,
    contract_edge,
    da_n,
    delete_edge,
    identify_points,
    immerse,
    marked_edge_sums,
    parallel_split_tau,
    parallel_sum,
    union_one_point,
    union_two_points,
)
from .rational import INF, sum_over
from .reduction import resistance_via_reduction, voltage_via_reduction
from .tau import (
    _potentials,
    _tau_sum,
    apq,
    apq_identity,
    canonical_measure,
    cubic_sum,
    deleted_apq,
    deleted_apq_of,
    genus_identity_check,
    lower_bound_suite,
    tau_bridgeless_identity,
    tau_of,
    weighted_res_square_sum,
    weighted_res_sum,
)

MAX_BUILT_EDGES = 72
MAX_BUILT_VERTICES = 28


class CheckResult(NamedTuple):
    identity: str
    graph: str
    lhs: object
    rhs: object
    status: str  # pass | fail | skip
    reason: str = ""


class _Skip(Exception):
    """A draw the graph cannot satisfy; ``run_graph_checks`` reports the check as skipped."""


class _Fail(Exception):
    """A comparison that does not hold; ``run_graph_checks`` reports its sides and reason."""

    def __init__(self, lhs, rhs, reason=""):
        super().__init__(reason)
        self.lhs, self.rhs, self.reason = lhs, rhs, reason


def _eq(lhs, rhs, tag=""):
    if lhs != rhs:
        raise _Fail(lhs, rhs, tag)
    return lhs, rhs


def _le(lhs, rhs, tag=""):
    if not lhs <= rhs:
        raise _Fail(lhs, rhs, tag)
    return lhs, rhs


def _all_eq(pairs):
    """``_eq`` on each (tag, lhs, rhs) in turn; the first pair's sides."""
    for tag, lhs, rhs in pairs:
        _eq(lhs, rhs, tag)
    return pairs[0][1:]


def _apq_checked(g: MetrizedGraph, p: int, q: int) -> Fraction:
    """A_{p,q} in closed form, after ``_all_eq`` against the identification route and the integral."""
    value = apq(g, p, q)
    _all_eq([("identification", value, apq_identity(g, p, q)),
             ("integral", value, apq_direct(g, p, q))])
    return value


def _vertex_pair(g: MetrizedGraph, rng: random.Random) -> tuple[int, int]:
    v = g.vcount
    if v < 2:
        return 0, 0
    p = rng.randrange(v)
    q = rng.randrange(v - 1)
    if q >= p:
        q += 1
    return p, q


def _distinct_pair(g: MetrizedGraph, rng: random.Random) -> tuple[int, int]:
    """``_vertex_pair``, skipping the check on a one-vertex graph."""
    if g.vcount < 2:
        raise _Skip(_HYPOTHESES["two vertices"][1])
    return _vertex_pair(g, rng)


def _proper_edges(g: MetrizedGraph) -> tuple[int, ...]:
    """The ids of the edges that are neither a loop nor a bridge, in order, found once per graph."""
    return _cached(g.__dict__, "_proper_edges", lambda: tuple(sorted(
        {i for i, (a, b, _) in enumerate(g.edges) if a != b}.difference(bridges(g)))))


# The hypotheses an entry can declare: name -> (holds on the graph, skip reason).
_HYPOTHESES = {
    "two vertices": (lambda g: g.vcount > 1, "needs two vertices"),
    "proper edge": (lambda g: bool(_proper_edges(g)), "every edge is a bridge or a loop"),
    "bridgeless": (lambda g: not bridges(g), "graph has a bridge"),
}

# The catalog, in run order: (id, description, anchor, needs, fn), one entry per _identity.
CHECKS: list = []


def _identity(cid: str, description: str, anchor: str, *needs: str):
    """Register the decorated check as entry ``cid``; it runs where every hypothesis in ``needs`` holds."""
    def register(fn):
        CHECKS.append((cid, description, anchor, needs, fn))
        return fn
    return register


# Per-edge sums for the identities about arms and deleted resistances, in
# integers over the Green denominator d; tau itself never goes through them.


def _arm_sums(g: MetrizedGraph, base: int) -> tuple[Fraction, Fraction]:
    """sum L (arm_a - arm_b)^2/(L+R)^2 at a base vertex: over all edges, and over those not at it.

    With X_y = d gap r_{g-e}(y, base) (``GraphContext.deleted``), the arms
    differ by (X_a - X_b)/(d gap) and L + R = ln^2 d/(ld gap), so an edge adds
    ld (X_a - X_b)^2/(ln^3 d^4): 0 on a loop, and the limit L on a bridge.
    Each edge's deletion update serves every base, so all bases are summed in
    one pass and memoized together in the graph's context.
    """
    cx = context(g)
    return _cached(cx.memo, "arms", _all_arm_sums, cx, g.vcount)[base]


def _all_arm_sums(cx, vcount: int) -> tuple[tuple[Fraction, Fraction], ...]:
    d4 = cx.den ** 4
    bases = range(vcount)
    terms = [[] for _ in bases]
    off_base = [[] for _ in bases]
    for i, (a, b, ln, ld, _, gap) in enumerate(cx.rows):
        if gap:  # a bridge has no deletion update
            deleted = cx.deleted(i)
        for p in bases:
            if gap:
                x = deleted.res_num(a, p) - deleted.res_num(b, p)
            term = (ld * x * x, ln**3) if gap else (ln * d4, ld)
            terms[p].append(term)
            if p not in (a, b):
                off_base[p].append(term)
    return tuple((sum_over(t, d4), sum_over(o, d4)) for t, o in zip(terms, off_base))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


@_identity("eq1.1-voltage", "Y legs from rewrites equal resistance combinations of j",
           "r(p,x) = j_p(x,q) + j_x(p,q)", "two vertices")
def _check_voltage_circuit(g: MetrizedGraph, rng: random.Random):
    """Y-reduction legs agree with the resistance combination for j."""
    if g.vcount < 3:
        return _eq(resistance_via_reduction(g, 0, 1), context(g).r(0, 1), "two-terminal")
    triples = list(permutations(range(g.vcount), 3))
    rng.shuffle(triples)
    cx = context(g)
    for x, p, q in triples[:6]:
        lhs, rhs = _eq(voltage_via_reduction(g, x, p, q), cx.voltage(x, p, q), f"j_{x}({p},{q})")
        _le(0, lhs, "voltage must be nonnegative")
        _eq(cx.voltage(x, x, q), 0, "grounding")
        _eq(cx.voltage(x, q, q), cx.r(x, q), "collapse to resistance")
    return rhs, rhs


@_identity("genus-identity", "deleted-resistance ratios sum to genus and v-1",
           "sum L/(L+R) = g; sum R/(L+R) = v-1")
def _check_genus_identity(g: MetrizedGraph, rng: random.Random):
    left, right = genus_identity_check(g)
    return _all_eq([
        ("length part", left, Fraction(genus(g))),
        ("resistance part", right, Fraction(g.vcount - 1)),
    ])


@_identity("canonical-measure-mass", "the canonical measure has total mass one",
           "sum (1 - valence/2) + sum length/(L+R) = 1")
def _check_measure_mass(g: MetrizedGraph, rng: random.Random):
    return _eq(canonical_measure(g).total_mass(g), Fraction(1))


@_identity("lem2term", "arm-difference sum decomposes over all base vertices",
           "sum L(Ra-Rb)^2/(L+R)^2 = (2/v) sum LR^2/(L+R)^2 + (1/v) sum_p sum_{e not at p}")
def _check_lem2term(g: MetrizedGraph, rng: random.Random):
    v = g.vcount
    lhs = _arm_sums(g, 0)[0]
    off_base = sum(_arm_sums(g, p)[1] for p in range(v))
    rhs = Fraction(2, v) * weighted_res_square_sum(g) + Fraction(1, v) * off_base
    return _eq(lhs, rhs)


@_identity("rem2term", "arm-difference sum is base independent", "sum L(Ra-Rb)^2/(L+R)^2 same for all bases")
def _check_rem2term(g: MetrizedGraph, rng: random.Random):
    values = [_arm_sums(g, p)[0] for p in range(g.vcount)]
    return _all_eq([(f"base {p}", val, values[0]) for p, val in enumerate(values)])


@_identity("valence-independence", "tau ignores base vertex and valence-2 insertions",
           "tau(g, p) = tau(g, q); tau unchanged by midpoint vertex")
def _check_valence_independence(g: MetrizedGraph, rng: random.Random):
    cx = context(g)
    taus = [_tau_sum(cx.rows, _potentials(cx.num, p), cx.den)[0] for p in range(g.vcount)]
    _all_eq([(f"base {p}", val, taus[0]) for p, val in enumerate(taus)])
    edge = rng.randrange(g.ecount)
    enlarged, _ = insert_point(g, (edge, g.edges[edge].length / 2))
    return _eq(tau_of(enlarged), taus[0], "valence-2 vertex insertion")


@_identity("scale-covariance", "tau scales linearly with all lengths", "tau(c g) = c tau(g)")
def _check_scale_covariance(g: MetrizedGraph, rng: random.Random):
    c = families.random_length(rng)
    return _eq(tau_of(scale(g, c)), c * tau_of(g))


@_identity("thmjpq2njpq-n0..3", "energy-power integrals close in the pair resistance",
           "int (j_p')^2 j_p^n = r^{n+1}/(n+1), n = 0..3", "two vertices")
def _check_power_integrals(g: MetrizedGraph, rng: random.Random):
    p, q = _vertex_pair(g, rng)
    r = context(g).r(p, q)
    pairs = [(f"n={n}", integrate_product(g, p, q, [(TAG_J_BASE_P, True, 2), (TAG_J_BASE_P, False, n)]),
              r ** (n + 1) / (n + 1)) for n in range(4)]
    return _all_eq(pairs)


@_identity("lemorthogonality", "the two voltage gradients are orthogonal", "int j_x' j_p' = 0",
           "two vertices")
def _check_orthogonality(g: MetrizedGraph, rng: random.Random):
    p, q = _vertex_pair(g, rng)
    val = integrate_product(g, p, q, [(TAG_J_BASE_X, True, 1), (TAG_J_BASE_P, True, 1)])
    return _eq(val, Fraction(0))


@_identity("thmbasic", "tau from the moving-base voltage energy", "4 tau = int (j_x')^2 + r(p,q)",
           "two vertices")
def _check_tau_voltage_form(g: MetrizedGraph, rng: random.Random):
    p, q = _vertex_pair(g, rng)
    energy = integrate_product(g, p, q, [(TAG_J_BASE_X, True, 2)])
    return _eq(4 * tau_of(g), energy + context(g).r(p, q))


@_identity("thmremain-equivalences", "four integral forms of the voltage integral and its closed form agree",
           "A = -int j_p j_p' j_x' = int j_q j_p' j_x' = int r (j_p')^2 - r^2/2", "two vertices")
def _check_apq_equivalences(g: MetrizedGraph, rng: random.Random):
    p, q = _vertex_pair(g, rng)
    direct = apq_direct(g, p, q)
    form_iv = -integrate_product(
        g, p, q,
        [(TAG_J_BASE_P, False, 1), (TAG_J_BASE_P, True, 1), (TAG_J_BASE_X, True, 1)],
    )
    form_v = integrate_product(
        g, p, q,
        [(TAG_J_BASE_Q, False, 1), (TAG_J_BASE_P, True, 1), (TAG_J_BASE_X, True, 1)],
    )
    r = context(g).r(p, q)
    form_vi = -r * r / 2 + integrate_product(
        g, p, q, [(TAG_R_FROM_P, False, 1), (TAG_J_BASE_P, True, 2)]
    )
    return _all_eq([
        ("product form", direct, form_iv),
        ("swapped base form", direct, form_v),
        ("resistance form", direct, form_vi),
        ("closed form", direct, apq(g, p, q)),
    ])


def _check_bounds(at_scale: bool, wanted, g: MetrizedGraph, rng: random.Random):
    """One bound entry: its (bound row, fail tag) pairs, read in order off the graph's bound
    suite at total length one (with ``at_scale``, reported at the graph's own). It skips with the
    first row's reason when that row does not apply; a later row counts only where it applies. It
    fails at the first row that does not hold and otherwise passes with the last row that applied.
    """
    rows = {row.bound: row for row in lower_bound_suite(g)}
    first = rows[wanted[0][0]]
    if not first.applicable:
        raise _Skip(first.reason)
    factor = total_length(g) if at_scale else 1
    for name, tag in wanted:
        row = rows[name]
        if row.applicable:
            lhs, rhs = row.lhs * factor, row.rhs * factor
            if not row.holds:
                raise _Fail(lhs, rhs, tag)
    return lhs, rhs


_identity("FMM1-bounds", "global tau bounds with the tree equality case",
          "l/(16e) <= tau <= l/4, upper equality iff tree")(partial(
    _check_bounds, True, (("tau-lower-1-16e", "lower bound"), ("tau-upper-quarter", "upper bound"),
                          ("tau-tree-equality", "tree equality case"))))
_identity("thmeqlength", "equal-length lower bound", "tau >= (1/12)(g/e)^2 at unit length")(
    partial(_check_bounds, False, (("equal-length", ""),)))
_identity("thmeqlength2", "sharper equal-length lower bound", "tau >= (1/12)(g/e)^2 + (1/2v)((v-1)/e)^2")(
    partial(_check_bounds, False, (("equal-length-sharper", ""),)))
_identity("thmcorineqsumR4", "deleted-resistance-sum lower bound",
          "tau >= 1/(12(1+sum R)^2); >= 1/48 with doubled edges")(
    partial(_check_bounds, False, (("deleted-resistance-sum", ""),
                                   ("doubled-edges-1-48", "doubled-edge case"))))
_identity("thm2term", "weighted deleted-resistance square inequality",
          "sum LR^2/(L+R)^2 >= (sum LR/(L+R))^2 at unit length")(
    partial(_check_bounds, False, (("weighted-deleted-square", ""),)))


@_identity("thmdouble", "parallel-split closed form",
           "tau(split n) = tau/n^2 + (l/12)((n-1)/n)^2 + ((n-1)/(6n^2)) sum L^2/(L+R)")
def _check_parallel_split(g: MetrizedGraph, rng: random.Random):
    n = rng.choice((2, 3, 4))
    result = da_n(g, n)
    return _eq(result.predicted_tau, tau_of(result.graph), f"n={n}")


@_identity("thmdoubledivision", "parallel split after subdivision",
           "tau(split n of m-subdivision) closed form")
def _check_split_and_subdivide(g: MetrizedGraph, rng: random.Random):
    m, n = 2, 2
    if m * n * g.ecount > MAX_BUILT_EDGES or g.vcount + (m - 1) * g.ecount > MAX_BUILT_VERTICES:
        raise _Skip(f"built size {m * n * g.ecount} edges exceeds budget")
    built = da_n(subdivide_uniform(g, m), n).graph
    predicted = (
        tau_of(g) / n**2
        + total_length(g) / 12 * Fraction(n - 1, n) ** 2
        + Fraction(n - 1, 6 * m * n**2) * parallel_sum(g)
    )
    return _eq(predicted, tau_of(built))


@_identity("lemdivision1", "subdivision transfer identities",
           "square, cubic and product sums transfer under m-subdivision")
def _check_subdivision_transfer(g: MetrizedGraph, rng: random.Random):
    m = 3 if g.vcount + 2 * g.ecount <= MAX_BUILT_VERTICES else 2
    if g.vcount + (m - 1) * g.ecount > MAX_BUILT_VERTICES:
        raise _Skip("subdivision exceeds vertex budget")
    gm = subdivide_uniform(g, m)
    pairs = [
        ("square sum", parallel_sum(gm), parallel_sum(g) / m),
        ("cubic sum", cubic_sum(gm), cubic_sum(g) / (m * m)),
        ("product sum", weighted_res_sum(gm),
         Fraction(m - 1, m) * total_length(g) + weighted_res_sum(g) / m),
    ]
    return _all_eq(pairs)


@_identity("lemdivisione", "parallel-split deleted resistances",
           "R(split) = L R/(n(nL+(n-1)R)) and square-sum transfer")
def _check_parallel_split_resistances(g: MetrizedGraph, rng: random.Random):
    n = rng.choice((2, 3))
    built = da_n(g, n).graph
    cx, built_cx = context(g), context(built)
    for i, (_, _, length) in enumerate(g.edges):
        res = cx.res_deleted(i)  # 0 on a loop, so a loop's copies expect 0
        if res is INF:
            expected = length / (n * (n - 1))
        else:
            expected = Fraction(1, n) * length * res / (n * length + (n - 1) * res)
        for k in range(n):
            _eq(built_cx.res_deleted(i * n + k), expected, f"edge {i} copy {k}")
    lhs = parallel_sum(built)
    rhs = Fraction(n - 1, n) * total_length(g) + parallel_sum(g) / n
    return _eq(lhs, rhs, "square-sum transfer")


@_identity("thmdoubleimp-implication", "split bound pulls back to the original graph",
           "tau(split n) >= (1/108)((3n-2)/n)^2 implies tau >= 1/108")
def _check_split_implication(g: MetrizedGraph, rng: random.Random):
    gn = normalize(g)
    tau = tau_of(gn)
    for n, threshold in ((2, Fraction(1, 27)), (3, Fraction(49, 972))):
        _eq(threshold, Fraction(1, 108) * Fraction(3 * n - 2, n) ** 2, "constant")
        if parallel_split_tau(gn, n) >= threshold:
            _le(Fraction(1, 108), tau, f"implication broken at n={n}")
    return tau, Fraction(1, 108)


# The immersion menus are built once: a check that reuses the same graph object
# finds its solver context by identity, without comparing lengths.
@cache
def _small_marked_graphs() -> tuple[tuple[MetrizedGraph, int, int], ...]:
    return (
        (families.equal_banana(2), 0, 1),
        (families.equal_banana(3), 0, 1),
        (families.segment(1), 0, 1),
        (families.path(Fraction(1, 2), Fraction(1, 2)), 0, 2),
    )


@cache
def _common_resistance_menu() -> tuple[tuple[MetrizedGraph, int, int], ...]:
    """Two marked graphs with the same resistance 1/4 between their marks."""
    return (_small_marked_graphs()[0], (families.circle(*([Fraction(1, 4)] * 4)), 0, 2))


@cache
def _three_arc_circle() -> MetrizedGraph:
    return families.circle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))


def _skip_if_over_budget(gn: MetrizedGraph, betas) -> None:
    """Skip the check when immersing ``betas`` into gn's edges would exceed the budget."""
    built_edges = sum(beta.ecount for beta, _, _ in betas)
    built_vertices = gn.vcount + sum(beta.vcount - 2 for beta, _, _ in betas)
    if built_edges > MAX_BUILT_EDGES or built_vertices > MAX_BUILT_VERTICES:
        raise _Skip(f"immersion builds {built_edges} edges, over budget")


@_identity("thmmagnificent", "uniform immersion closed form",
           "tau((g*b)^N) = tau(b) - r/4 + r tau(g) + (A/r) sum L^2/(L+R)")
def _check_uniform_immersion(g: MetrizedGraph, rng: random.Random):
    gn = normalize(g)
    beta, p, q = rng.choice(_small_marked_graphs()[:3])
    if beta.ecount * gn.ecount > MAX_BUILT_EDGES:
        raise _Skip("immersion exceeds edge budget")
    r_beta = context(beta).r(p, q)
    predicted = (
        tau_of(beta)
        - r_beta / 4
        + r_beta * tau_of(gn)
        + apq(beta, p, q) / r_beta * parallel_sum(gn)
    )
    built = immerse(gn, [(beta, p, q)] * gn.ecount)
    tau_built = tau_of(built.graph)
    return _all_eq([
        ("closed form", predicted, tau_built),
        ("op prediction", built.predicted_tau, tau_built),
    ])


@_identity("thmmaggen", "per-edge immersion closed form",
           "tau((g*prod b_i)^N) sum L_i/r_i = tau(g) - 1/4 + sum [...]")
def _check_mixed_immersion(g: MetrizedGraph, rng: random.Random):
    gn = normalize(g)
    menu = _small_marked_graphs()
    betas = [menu[i % len(menu)] for i in range(gn.ecount)]
    _skip_if_over_budget(gn, betas)
    result = immerse(gn, betas)
    size = sum(ell / context(beta).r(p, q)  # sum L_i/r_i, the unnormalized product's length
               for (beta, p, q), (ell, _) in marked_edge_sums(gn, betas).items())
    return _eq(tau_of(result.graph) * size, result.predicted_tau * size)


@_identity("cormaggen1", "immersion with a common marked resistance",
           "all r_i = r simplifies the immersion formula")
def _check_common_resistance_immersion(g: MetrizedGraph, rng: random.Random):
    gn = normalize(g)
    menu = _common_resistance_menu()
    r = Fraction(1, 4)
    betas = [menu[i % 2] for i in range(gn.ecount)]
    _skip_if_over_budget(gn, betas)
    result = immerse(gn, betas)
    predicted = r * tau_of(gn) - r / 4
    for (beta, p, q), (ell, par) in marked_edge_sums(gn, betas).items():
        predicted += ell * tau_of(beta) + par * apq(beta, p, q) / r
    return _eq(predicted, tau_of(result.graph))


@_identity("cormaggen2", "one replacement graph, varying marked pairs", "single-graph immersion formula")
def _check_single_graph_immersion(g: MetrizedGraph, rng: random.Random):
    gn = normalize(g)
    beta = _three_arc_circle()
    pairs = [(0, 1), (1, 2), (0, 2)]
    betas = [(beta, *pairs[i % 3]) for i in range(gn.ecount)]
    _skip_if_over_budget(gn, betas)
    result = immerse(gn, betas)
    size = Fraction(0)
    bracket = tau_of(gn) - Fraction(1, 4)
    for (_, p, q), (ell, par) in marked_edge_sums(gn, betas).items():
        r_i = context(beta).r(p, q)
        size += ell / r_i
        bracket += par * apq(beta, p, q) / r_i**2
    predicted = tau_of(beta) + bracket / size
    return _eq(predicted, tau_of(result.graph))


@_identity("thm-smaller-tau-decrease", "self-immersion lowers tau by r(1/4 - tau) up to eps",
           "tau((g^m * g_pq)^N) = tau - r(1/4-tau) + (A/(m r)) sum L^2/(L+R)")
def _check_self_immersion_decrease(g: MetrizedGraph, rng: random.Random):
    gn = normalize(g)
    e, v = gn.ecount, gn.vcount
    if e * e > MAX_BUILT_EDGES or v + e * (v - 2) > MAX_BUILT_VERTICES:
        raise _Skip(f"self-immersion builds {e * e} edges, over budget")
    p, q = _distinct_pair(g, rng)
    r = context(gn).r(p, q)
    eps = apq(gn, p, q) / r * parallel_sum(gn)
    built = immerse(gn, [(gn, p, q)] * gn.ecount)
    predicted = tau_of(gn) - r * (Fraction(1, 4) - tau_of(gn)) + eps
    _eq(predicted, tau_of(built.graph), "exact value")
    return _le(tau_of(built.graph), predicted, "decrease bound")


@_identity("thmtwopunion", "two-point union closed form",
           "tau(union) = tau1 + tau2 - (r1+r2)/6 + (A1+A2)/(r1+r2)")
def _check_two_point_union(g: MetrizedGraph, rng: random.Random):
    other = families.random_connected(rng, 4, 6)  # at least two vertices
    result = union_two_points(g, other, _distinct_pair(g, rng), (0, 1))
    return _eq(result.predicted_tau, tau_of(result.graph))


@_identity("cor1twopunion", "two-point self-union closed form", "tau(g u g) = 2 tau - r/3 + A/r",
           "two vertices")
def _check_self_union(g: MetrizedGraph, rng: random.Random):
    p, q = _vertex_pair(g, rng)
    result = union_two_points(g, g, (p, q), (p, q))
    r = context(g).r(p, q)
    predicted = 2 * tau_of(g) - r / 3 + apq(g, p, q) / r
    tau_union = tau_of(result.graph)
    return _all_eq([
        ("closed form", predicted, tau_union),
        ("op prediction", result.predicted_tau, tau_union),
    ])


@_identity("cor2twopunion", "edge deletion closed form", "tau = tau(g-e) + L/12 - R/6 + A/(L+R)",
           "proper edge")
def _check_edge_deletion(g: MetrizedGraph, rng: random.Random):
    edge = rng.choice(_proper_edges(g))
    result = delete_edge(g, edge)
    return _eq(result.predicted_tau, tau_of(result.graph), f"edge {edge}")


@_identity("cor2twopunion2", "edge deletion energy form",
           "tau = (1/4) int_(g-e) (j_x')^2 + (L+R)/12 + A/(L+R)", "proper edge")
def _check_edge_deletion_energy(g: MetrizedGraph, rng: random.Random):
    edge = rng.choice(_proper_edges(g))
    deleted, (p, q) = delete_edge_graph(g, edge)
    energy = integrate_product(deleted, p, q, [(TAG_J_BASE_X, True, 2)])
    denom = g.edges[edge].length + context(g).res_deleted(edge)
    predicted = energy / 4 + denom / 12 + deleted_apq(g, edge) / denom
    return _eq(predicted, tau_of(g))


def _with_length(g: MetrizedGraph, edge: int, length: Fraction) -> MetrizedGraph:
    """g with one edge's length changed."""
    return MetrizedGraph._derived(g.vcount, g.edges[:edge] + (g.edges[edge]._replace(length=length),)
                                  + g.edges[edge + 1 :])


@_identity("lemedgeext", "single length change", "tau' = tau + x/12 - x A/((L+R)(L+R+x))", "proper edge")
def _check_length_change(g: MetrizedGraph, rng: random.Random):
    edge = rng.choice(_proper_edges(g))
    length = g.edges[edge].length
    x = families.random_length(rng) - length / 2  # may shrink, stays positive
    modified = _with_length(g, edge, length + x)
    denom = length + context(g).res_deleted(edge)
    predicted = tau_of(g) + x / 12 - x * deleted_apq(g, edge) / (denom * (denom + x))
    return _eq(predicted, tau_of(modified), f"x={x}")


@_identity("lemsuccessedgeext", "successive length changes telescope",
           "tau(g_e) = tau + sum x_i/12 - sum x_i A_i/((L_i+R_i')(L_i+R_i'+x_i))", "bridgeless")
def _check_successive_length_changes(g: MetrizedGraph, rng: random.Random):
    """tau(g_e) = tau(g) + sum_i [x_i/12 - x_i A_i/((L_i+R_i)(L_i+R_i+x_i))], where g_i is
    g_(i-1) with edge i's length L_i changed by x_i, and R_i, A_i are of g_i - e_i =
    g_(i-1) - e_i. Those are read off g_(i-1)'s Green integers, carried from g's by one
    length-change update per step (``circuit.KirchhoffState``); only g_e is factorized."""
    state = KirchhoffState.of(g)
    num, den = 0, 1  # the sum so far, tau(g_i) - tau(g), reduced once per step
    for i in range(g.ecount):
        a, b, ln, ld, _, gap = state.rows[i]  # edge i still has g's length L = ln/ld
        pn, pd = families.random_length(rng, 8, 8).as_integer_ratio()
        xn, xd = 2 * ld * pn - ln * pd, 2 * ld * pd  # x = p/q - L/2: may shrink, stays positive
        num, den = num * 12 * xd + xn * den, den * 12 * xd
        if a != b:
            big, small = ln * ln * state.den, ld * gap  # L + R = big/small
            an, ad = deleted_apq_of(state, i).as_integer_ratio()
            q = ad * big * (big * xd + xn * small)
            num, den = num * q - xn * an * small * small * den, den * q
        common = gcd(num, den)
        num, den = num // common, den // common
        state = state.with_length(i, Fraction(ln * pd + 2 * ld * pn, xd))  # L + x
    changed = MetrizedGraph._derived(g.vcount, tuple(state.edges))
    return _eq(tau_of(g) + Fraction(num, den), tau_of(changed))


@_identity("thmbasic2", "bridgeless tau identity", "tau = l/12 - sum L A/(L+R)^2", "bridgeless")
def _check_bridgeless_identity(g: MetrizedGraph, rng: random.Random):
    return _eq(*tau_bridgeless_identity(g))


_identity("corbasic2", "bridgeless upper bound", "tau <= l/12", "bridgeless")(
    partial(_check_bounds, True, (("tau-upper-twelfth-bridgeless", ""),)))


def _contract_setup(g: MetrizedGraph, rng: random.Random):
    """A proper edge's length, R and A of g - e, then g - e, g / e and g with its ends glued."""
    edge = rng.choice(_proper_edges(g))
    deleted, (p, q) = delete_edge_graph(g, edge)
    res, a_del = context(g).res_deleted(edge), deleted_apq(g, edge)
    return (g.edges[edge].length, res, a_del, deleted, contract_edge(g, edge).graph,
            identify_points_graph(g, p, q))


@_identity("lemcontract1", "contraction values from the deleted graph",
           "tau(contract) = tau(g-e) - R/6 + A/R", "proper edge")
def _check_contraction_values(g: MetrizedGraph, rng: random.Random):
    length, res, a_del, deleted, shrunk, looped = _contract_setup(g, rng)
    return _all_eq([
        ("contracted", tau_of(shrunk), tau_of(deleted) - res / 6 + a_del / res),
        ("looped", tau_of(looped), tau_of(deleted) + length / 12 - res / 6 + a_del / res),
    ])


@_identity("lemcontract2", "contraction deltas from the original graph",
           "tau = tau(contract) + L/12 - L A/(R(L+R))", "proper edge")
def _check_contraction_deltas(g: MetrizedGraph, rng: random.Random):
    length, res, a_del, _, shrunk, looped = _contract_setup(g, rng)
    drop = length * a_del / (res * (length + res))
    return _all_eq([
        ("contracted", tau_of(g), tau_of(shrunk) + length / 12 - drop),
        ("looped", tau_of(g), tau_of(looped) - drop),
    ])


@_identity("coradding1", "edge addition closed form", "tau(g+(p,q,L)) = tau + L/12 - r/6 + A/(L+r)")
def _check_edge_addition(g: MetrizedGraph, rng: random.Random):
    p, q = _vertex_pair(g, rng)
    result = add_edge(g, p, q, families.random_length(rng))
    return _eq(result.predicted_tau, tau_of(result.graph))


@_identity("coradding2", "point identification closed form", "tau(g_pq) = tau - r/6 + A/r", "two vertices")
def _check_point_identification(g: MetrizedGraph, rng: random.Random):
    p, q = _vertex_pair(g, rng)
    result = identify_points(g, p, q)
    return _eq(result.predicted_tau, tau_of(result.graph))


@_identity("thm-twopunion-Apq", "voltage integral of a two-point union",
           "A(union) = (r2^2 A1 + r1^2 A2)/(r1+r2)^2 + (1/6)(r1 r2/(r1+r2))^2")
def _check_union_apq(g: MetrizedGraph, rng: random.Random):
    other = families.random_connected(rng, 4, 6)  # at least two vertices
    p1, q1 = _distinct_pair(g, rng)
    union = union_two_points(g, other, (p1, q1), (0, 1)).graph
    keep_p, keep_q = min(p1, q1), max(p1, q1)
    r1 = context(g).r(p1, q1)
    r2 = context(other).r(0, 1)
    a1 = apq(g, p1, q1)
    a2 = apq(other, 0, 1)
    predicted = (r2**2 * a1 + r1**2 * a2) / (r1 + r2) ** 2 + Fraction(1, 6) * (
        r1 * r2 / (r1 + r2)
    ) ** 2
    return _eq(apq(union, keep_p, keep_q), predicted)


@_identity("corlem-twopunion-Apq", "voltage integral of a self-union", "2 A(g u g) = r^2/12 + A",
           "two vertices")
def _check_self_union_apq(g: MetrizedGraph, rng: random.Random):
    p, q = _vertex_pair(g, rng)
    union = union_two_points(g, g, (p, q), (p, q)).graph
    lhs = 2 * apq(union, min(p, q), max(p, q))
    rhs = context(g).r(p, q) ** 2 / 12 + apq(g, p, q)
    return _eq(lhs, rhs)


@_identity("thm-twopunion2-tower", "tower of two-point self-unions",
           "tau(tower n) = tau + (1-2^-n) A/r + (-1/6 - 1/(6 2^n) + 1/(3 4^n)) r", "two vertices")
def _check_tower(g: MetrizedGraph, rng: random.Random):
    gn = normalize(g)
    p, q = _vertex_pair(g, rng)
    result = c_tower(gn, p, q, 2)
    r = context(gn).r(p, q)
    explicit = (
        tau_of(gn)
        + Fraction(3, 4) * apq(gn, p, q) / r
        - Fraction(3, 16) * r
    )
    return _all_eq([
        ("op prediction", result.predicted_tau, tau_of(result.graph)),
        ("n=2 closed form", explicit, tau_of(result.graph)),
    ])


@_identity("corpropAcircle", "two-arc circle voltage integral", "A = a^2 b^2/(6(a+b)^2)")
def _check_circle_apq(g: MetrizedGraph, rng: random.Random):
    a = families.random_length(rng)
    b = families.random_length(rng)
    circle = families.circle(a, b)
    return _eq(_apq_checked(circle, 0, 1), a**2 * b**2 / (6 * (a + b) ** 2))


@_identity("lemApq", "voltage integral across an attached edge", "A = L^2 A(g-e)/(L+R)^2 + r^2/6",
           "proper edge")
def _check_apq_edge_split(g: MetrizedGraph, rng: random.Random):
    edge = rng.choice(_proper_edges(g))
    p, q, length = g.edges[edge]
    cx = context(g)
    res = cx.res_deleted(edge)
    predicted = length**2 * deleted_apq(g, edge) / (length + res) ** 2 + cx.r(p, q) ** 2 / 6
    return _eq(apq(g, p, q), predicted)


@_identity("propAtree", "trees have zero voltage integral", "A = 0 on a tree")
def _check_tree_apq(g: MetrizedGraph, rng: random.Random):
    tree = families.random_tree(rng, 7)
    return _eq(_apq_checked(tree, 0, tree.vcount - 1), Fraction(0))


@_identity("propAadditive", "voltage integral is additive across a wedge", "A_{p,q} = A_{p,y} + A_{y,q}")
def _check_wedge_apq(g: MetrizedGraph, rng: random.Random):
    g2 = families.random_connected(rng, 4, 6)
    y1 = rng.randrange(g.vcount)
    y2 = rng.randrange(g2.vcount)
    p = rng.randrange(g.vcount)
    q2 = rng.randrange(g2.vcount)
    wedge = union_one_point(g, y1, g2, y2).graph
    # image ids: g keeps ids; g2's vertex v maps to y1 if v == y2 else offset rank
    q = y1 if q2 == y2 else g.vcount + q2 - (q2 > y2)
    if p == q:
        raise _Skip("sampled points coincide at the wedge vertex")
    return _eq(apq(wedge, p, q), apq(g, p, y1) + apq(g2, y2, q2))


def _random_banana(rng: random.Random) -> MetrizedGraph:
    """A banana of 1 to 6 edges of random lengths."""
    return families.banana(*[families.random_length(rng) for _ in range(rng.randint(1, 6))])


@_identity("propAbanana", "parallel-edge voltage integral", "A = (m-1) r^2/6")
def _check_banana_apq(g: MetrizedGraph, rng: random.Random):
    graph = _random_banana(rng)
    m, r = graph.ecount, context(graph).r(0, 1)
    return _eq(_apq_checked(graph, 0, 1), (m - 1) * r * r / 6)


@_identity("proplembanana", "parallel-edge tau with its minimum", "tau = l/12 - ((m-2)/6) r >= l/16 at m=4")
def _check_banana_tau(g: MetrizedGraph, rng: random.Random):
    graph = _random_banana(rng)
    m, r = graph.ecount, context(graph).r(0, 1)
    ell = total_length(graph)
    result = _eq(tau_of(graph), ell / 12 - Fraction(m - 2, 6) * r)
    floor = ell * (Fraction(1, 12) - Fraction(m - 2, 6 * m * m))
    _le(floor, tau_of(graph), "equal-length minimum")
    equal = families.equal_banana(m, ell)
    _eq(tau_of(equal), floor, "equal-length value")
    _le(total_length(equal) / 16, tau_of(equal), "sixteenth bound")
    return result


@_identity("coradd-bridge-contraction", "bridges contribute length/4",
           "tau = tau(bridges contracted) + (l - l')/4")
def _check_bridge_contraction(g: MetrizedGraph, rng: random.Random):
    current = contract_bridges(g)
    drop = (total_length(g) - total_length(current)) / 4
    return _eq(tau_of(g), tau_of(current) + drop)




def identity_catalog() -> list[tuple[str, str, str]]:
    """Machine-readable list of all cataloged checks: (id, description, anchor)."""
    return [entry[:3] for entry in CHECKS]


class GraphGenerator(NamedTuple):
    """Deterministic random connected graphs (<= 8 vertices, <= 16 edges): same seed,
    same sequence."""

    seed: int

    def graphs(self, count: int):
        rng = random.Random(f"mgt-corpus:{self.seed}:random_connected")
        for index in range(count):
            g = families.random_connected(rng, 8, 16)
            yield f"random_connected#{index}(v={g.vcount},e={g.ecount})", g


def _checks_rng(seed: int, index: int) -> random.Random:
    """The rng of the checks on graph ``index`` of a seeded run: the one place it is seeded."""
    return random.Random(f"mgt-checks:{seed}:{index}")


def run_suite(graphs, seed: int, identities: list[str] | None = None) -> list[CheckResult]:
    """Run the catalog over (descriptor, graph) pairs; failures are results, not errors.

    Graph ``index`` gets the rng ``_checks_rng(seed, index)``. ``identities``
    None runs every identity; an empty list names none and raises ``UnknownIdentity``.
    """
    wanted = None if identities is None else set(identities)
    results: list[CheckResult] = []
    for index, (descriptor, g) in enumerate(graphs):
        results.extend(run_graph_checks(descriptor, g, _checks_rng(seed, index), wanted))
    return results


def run_graph_checks(descriptor: str, g: MetrizedGraph, rng: random.Random,
                     wanted: set[str] | None = None) -> list[CheckResult]:
    if wanted is not None:
        if not wanted:
            raise UnknownIdentity("an empty identity list names no identity")
        unknown = sorted(wanted - {entry[0] for entry in CHECKS})
        if unknown:
            raise UnknownIdentity(f"unknown identity id(s): {', '.join(map(repr, unknown))}")
    if g.ecount == 0:
        raise EmptyGraph(f"{descriptor}: the identities need a graph with at least one edge")
    results = []
    for cid, _desc, _anchor, needs, fn in CHECKS:
        if wanted is not None and cid not in wanted:
            continue
        try:
            for need in needs:
                if not _HYPOTHESES[need][0](g):
                    raise _Skip(_HYPOTHESES[need][1])
            result = CheckResult(cid, descriptor, *fn(g, rng), "pass")
        except _Fail as exc:
            result = CheckResult(cid, descriptor, exc.lhs, exc.rhs, "fail", exc.reason)
        except (_Skip, TooLarge) as exc:
            result = CheckResult(cid, descriptor, None, None, "skip", str(exc))
        except MgtError as exc:
            result = CheckResult(cid, descriptor, None, None, "fail", f"error: {exc}")
        results.append(result)
    return results
