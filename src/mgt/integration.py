"""Closed-form integration over a metrized graph.

Every integrand handled here is a polynomial in the arclength parameter on
each edge: voltage functions restricted to an edge are quadratics as long as
their reference points are vertices. The four tag functions come in closed
form from the context's Green matrix: at distance t = sL from a on an edge
(a, b) of length L,

    r(y, x) = r(y, a) + (r(y, b) - r(y, a)) s + (L - r(a, b)) s (1 - s),

and the voltages are linear combinations of r(p, x), r(q, x) and r(p, q).
Scaled by 2 d ld (d the Green denominator, L = ln/ld) every tag has integer
coefficients in s, so ``integrate_product`` builds the rows of the tags its
terms name, multiplies them, integrates them with int_0^1 s^k ds = 1/(k+1)
and builds one Fraction per integral.
``edge_tag_polynomials`` reads the same rows as ``EdgePolynomial`` values in
t, and ``fit_edge_function`` fits an arbitrary integrand from sampled
interior points with a guard sample. An ``EdgePolynomial`` is a value that
can be evaluated; the Fraction products and integrals that check
``integrate_product`` are in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Sequence

from .errors import BadN, BadPoint, NonPolynomialIntegrand
from .graph import Frozen, MetrizedGraph, PointOnGraph, check_vertices, edge_at
from .circuit import context
from .rational import sum_over

# Function tags usable in integrate_product. x is the moving point; p, q are
# fixed vertices.
TAG_J_BASE_P = "j_p(x,q)"
TAG_J_BASE_Q = "j_q(x,p)"
TAG_J_BASE_X = "j_x(p,q)"
TAG_R_FROM_P = "r(p,x)"
ALL_TAGS = (TAG_J_BASE_P, TAG_J_BASE_Q, TAG_J_BASE_X, TAG_R_FROM_P)


class EdgePolynomial(Frozen):
    """Polynomial in the arclength x from endpoint a of one edge."""

    __slots__ = ("edge", "coeffs")

    def __init__(self, edge: int, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "coeffs", coeffs)

    def __repr__(self):
        return f"EdgePolynomial(edge={self.edge!r}, coeffs={self.coeffs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.edge == other.edge and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.edge, self.coeffs))

    def __reduce__(self):
        return EdgePolynomial, (self.edge, self.coeffs)

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def interpolate(edge: int, samples: Sequence[tuple[Fraction, Fraction]]) -> EdgePolynomial:
    """Newton-form interpolation through the given (x, value) samples."""
    xs = [s[0] for s in samples]
    table = [s[1] for s in samples]
    n = len(samples)
    newton = [table[0]]
    for level in range(1, n):
        table = [
            (table[i + 1] - table[i]) / (xs[i + level] - xs[i])
            for i in range(n - level)
        ]
        newton.append(table[0])
    coeffs = [Fraction(0)] * n
    coeffs[0] = newton[-1]
    for level in range(n - 2, -1, -1):
        # multiply by (x - xs[level]) and add newton[level]
        for k in range(n - 1, 0, -1):
            coeffs[k] = coeffs[k - 1] - xs[level] * coeffs[k]
        coeffs[0] = newton[level] - xs[level] * coeffs[0]
    return _trimmed(edge, coeffs)


def _trimmed(edge: int, coeffs: list[Fraction]) -> EdgePolynomial:
    """The polynomial with its trailing zero coefficients dropped."""
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return EdgePolynomial(edge, tuple(coeffs))


def fit_edge_function(
    g: MetrizedGraph,
    edge: int,
    f: Callable[[PointOnGraph], Fraction],
    degree: int,
) -> EdgePolynomial:
    """Fit an exact polynomial to f along one edge.

    Samples degree+2 equally spaced interior points: degree+1 fix the
    polynomial and the last one is a guard that must match exactly, otherwise
    the integrand was not a polynomial of the declared degree on this edge.
    """
    length = edge_at(g, edge).length
    if not isinstance(degree, int) or degree < 0:
        raise BadN(f"polynomial degree must be an integer >= 0, got {degree!r}")
    offsets = [length * k / (degree + 3) for k in range(1, degree + 3)]  # strictly interior
    values = [f((edge, t)) for t in offsets]
    poly = interpolate(edge, list(zip(offsets[: degree + 1], values[: degree + 1])))
    if poly(offsets[-1]) != values[-1]:
        raise NonPolynomialIntegrand(
            f"guard sample mismatch on edge {edge}: declared degree {degree} too low "
            "or a reference point lies inside this edge"
        )
    return poly


# Polynomial degree of each tag along an edge.
_DEGREE = {TAG_R_FROM_P: 2, TAG_J_BASE_P: 1, TAG_J_BASE_Q: 1, TAG_J_BASE_X: 2}


def _tag_rows(rp: list[int], rq: list[int], diag: list[int], p: int, q: int, row,
              tags: Sequence[str]) -> list[list[int]]:
    """The named tags on one edge as integers: coefficients in s = t/L, times 2 d ld.

    ``rp``, ``rq`` and ``diag`` are N's rows p and q and its diagonal (``GraphContext.row``,
    ``potentials()``), read once for all edges; ``row`` is the edge's ``GraphContext.rows`` entry.
    One row per tag comes back, in the order of ``tags``, and no other tag is built.
    With Pa = d r(p,a) (likewise Pb, Qa, Qb) and R = d r(p,q), r(p,x) is
    [2 ld Pa, 2 (ld (Pb - Pa) + gap), -2 gap]; the voltages are half-sums of
    r(p,x), r(q,x) and r(p,q), so their quadratic parts are -2 gap or cancel.
    """
    a, b, _, ld, _, gap = row
    naa, nbb = diag[a], diag[b]
    pa = rp[p] + naa - 2 * rp[a]
    qa = rq[q] + naa - 2 * rq[a]
    dp = nbb - naa - 2 * (rp[b] - rp[a])  # Pb - Pa
    dq = nbb - naa - 2 * (rq[b] - rq[a])  # Qb - Qa
    big_r = rp[p] + rq[q] - 2 * rp[q]
    rows = []
    for tag in tags:
        if tag == TAG_J_BASE_P:
            rows.append([ld * (pa + big_r - qa), ld * (dp - dq)])
        elif tag == TAG_J_BASE_X:
            rows.append([ld * (pa + qa - big_r), ld * (dp + dq) + 2 * gap, -2 * gap])
        elif tag == TAG_J_BASE_Q:
            rows.append([ld * (qa + big_r - pa), ld * (dq - dp)])
        else:
            rows.append([2 * ld * pa, 2 * (ld * dp + gap), -2 * gap])
    return rows


def edge_tag_polynomials(g: MetrizedGraph, p: int, q: int, edge: int) -> dict[str, EdgePolynomial]:
    """The four tag functions on one edge, in closed form.

    The integer coefficient c_k of s^k = (t/L)^k becomes c_k ld^k/(2 d ld ln^k)
    in the arclength t from endpoint a.
    """
    check_vertices(g, p, q)
    edge_at(g, edge)
    ctx = context(g)
    row = ctx.rows[edge]
    ln, ld = row[2], row[3]
    scale = 2 * ctx.den * ld
    tag_rows = _tag_rows(ctx.row(p), ctx.row(q), ctx.potentials(), p, q, row, ALL_TAGS)
    return {
        tag: _trimmed(edge, [Fraction(c * ld**k, scale * ln**k) for k, c in enumerate(coeffs)])
        for tag, coeffs in zip(ALL_TAGS, tag_rows)
    }


def integrate_product(
    g: MetrizedGraph,
    p: int,
    q: int,
    terms: Sequence[tuple[str, bool, int]],
) -> Fraction:
    """Integrate a product of tagged voltage/resistance factors over the graph.

    Each term is (tag, differentiate, power) with an int power >= 0.
    Derivatives are taken on open edges; endpoint kinks have measure zero.
    Per edge, only the tags that terms name with a positive power are built
    (``_tag_rows``) and their integer rows in s = t/L multiplied out inline,
    a linear tag's constant slope as a scalar power: a factor is F(s)/(2 d ld),
    its t-derivative F'(s)/(2 d ln), dt = L ds and int_0^1 s^k ds = 1/(k+1).
    The edge sums share one denominator.
    """
    check_vertices(g, p, q)
    for tag, _, power in terms:
        if tag not in ALL_TAGS:
            raise BadPoint(f"unknown integrand tag {tag!r}")
        if not isinstance(power, int) or power < 0:
            raise BadPoint(f"power {power!r} is not a non-negative int")
    plain = sum(power for _, deriv, power in terms if not deriv)
    slopes = sum(power for _, deriv, power in terms if deriv)
    top = sum(power * (_DEGREE[tag] - bool(deriv)) for tag, deriv, power in terms)
    m = lcm(*range(1, top + 2))
    weights = [m // (k + 1) for k in range(top + 1)]
    tags = list(dict.fromkeys(tag for tag, _, power in terms if power))
    factors = [(tags.index(tag), deriv, power) for tag, deriv, power in terms if power]
    ctx = context(g)
    rp, rq, diag, den = ctx.row(p), ctx.row(q), ctx.potentials(), ctx.den
    parts = []
    for row in ctx.rows:
        rows = _tag_rows(rp, rq, diag, p, q, row, tags)
        product, scalar = [1], 1
        for index, deriv, power in factors:
            factor = rows[index]
            if deriv:
                if len(factor) == 2:  # a linear tag's slope
                    scalar *= factor[1] ** power
                    continue
                factor = [factor[1], 2 * factor[2]]
            for _ in range(power):
                if len(product) == 1:  # still [1]: every factor here has two or more terms
                    product = factor
                    continue
                out = [0] * (len(product) + len(factor) - 1)
                for i, x in enumerate(product):
                    for j, y in enumerate(factor):
                        out[i + j] += x * y
                product = out
        ln, ld = row[2], row[3]
        total = sum(map(mul, product, weights))
        parts.append((ln * scalar * total, ld ** (plain + 1) * ln**slopes))
    return sum_over(parts, m * (2 * den) ** (plain + slopes))


def apq_direct(g: MetrizedGraph, p: int, q: int) -> Fraction:
    """The voltage integral A = int j_x(p,q) (d/dx j_p(x,q))^2 dx, exactly.

    Defined as zero when p = q, where the integrand vanishes identically.
    """
    check_vertices(g, p, q)
    if p == q:
        return Fraction(0)
    return integrate_product(
        g, p, q, [(TAG_J_BASE_X, False, 1), (TAG_J_BASE_P, True, 2)]
    )
