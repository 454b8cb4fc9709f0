"""Closed-form integration over a metrized graph.

Every integrand handled here is a polynomial in the arclength parameter on
each edge: voltage functions restricted to an edge are quadratics as long as
their reference points are vertices. The four tag functions come in closed
form from the context's resistances: at distance t from a on an edge (a, b)
of length L,

    r(y, x) = r(y, a) + (r(y, b) - r(y, a)) t/L + t (L - t)(L - r(a, b))/L^2,

and the voltages are linear combinations of r(p, x), r(q, x) and r(p, q).
Products of them are integrated algebraically. ``fit_edge_function`` still
fits an arbitrary integrand from sampled interior points with a guard sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import BadPoint, NonPolynomialIntegrand
from .graph import MetrizedGraph, PointOnGraph, normalize_point
from .circuit import context

# Function tags usable in integrate_product. x is the moving point; p, q are
# fixed vertices.
TAG_J_BASE_P = "j_p(x,q)"
TAG_J_BASE_Q = "j_q(x,p)"
TAG_J_BASE_X = "j_x(p,q)"
TAG_R_FROM_P = "r(p,x)"
ALL_TAGS = (TAG_J_BASE_P, TAG_J_BASE_Q, TAG_J_BASE_X, TAG_R_FROM_P)


@dataclass(frozen=True)
class EdgePolynomial:
    """Polynomial in the arclength x from endpoint a of one edge."""

    edge: int
    coeffs: tuple[Fraction, ...]

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "EdgePolynomial":
        d = tuple(k * c for k, c in enumerate(self.coeffs) if k > 0)
        return EdgePolynomial(self.edge, d or (Fraction(0),))

    def __mul__(self, other: "EdgePolynomial") -> "EdgePolynomial":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return EdgePolynomial(self.edge, tuple(out))

    def power(self, n: int) -> "EdgePolynomial":
        result = EdgePolynomial(self.edge, (Fraction(1),))
        for _ in range(n):
            result = result * self
        return result

    def integral(self, upper: Fraction) -> Fraction:
        """Definite integral over [0, upper]."""
        acc = Fraction(0)
        for k in range(len(self.coeffs) - 1, -1, -1):
            acc = (acc + self.coeffs[k] / (k + 1)) * upper
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
    if not 0 <= edge < g.ecount:
        raise BadPoint(f"edge {edge} out of range")
    length = g.edges[edge].length
    offsets = [length * k / (degree + 3) for k in range(1, degree + 3)]  # strictly interior
    values = [f((edge, t)) for t in offsets]
    poly = interpolate(edge, list(zip(offsets[: degree + 1], values[: degree + 1])))
    if poly(offsets[-1]) != values[-1]:
        raise NonPolynomialIntegrand(
            f"guard sample mismatch on edge {edge}: declared degree {degree} too low "
            "or a reference point lies inside this edge"
        )
    return poly


def edge_tag_polynomials(g: MetrizedGraph, p: int, q: int, edge: int) -> dict[str, EdgePolynomial]:
    """The four tag functions on one edge, in closed form.

    With gamma = (L - r(a,b))/L, r(y, x) has coefficients r(y,a),
    (r(y,b) - r(y,a))/L + gamma and -gamma/L in the arclength from a.
    """
    ctx = context(g)
    a, b, length = g.edges[edge]
    gamma = (length - ctx.r(a, b)) / length
    rpq = ctx.r(p, q)
    rp0, rq0 = ctx.r(p, a), ctx.r(q, a)
    sp, sq = (ctx.r(p, b) - rp0) / length, (ctx.r(q, b) - rq0) / length
    c2 = -gamma / length
    return {
        TAG_R_FROM_P: _trimmed(edge, [rp0, sp + gamma, c2]),
        TAG_J_BASE_P: _trimmed(edge, [(rp0 + rpq - rq0) / 2, (sp - sq) / 2]),
        TAG_J_BASE_Q: _trimmed(edge, [(rq0 + rpq - rp0) / 2, (sq - sp) / 2]),
        TAG_J_BASE_X: _trimmed(edge, [(rp0 + rq0 - rpq) / 2, (sp + sq) / 2 + gamma, c2]),
    }


def integrate_product(
    g: MetrizedGraph,
    p: int,
    q: int,
    terms: Sequence[tuple[str, bool, int]],
) -> Fraction:
    """Integrate a product of tagged voltage/resistance factors over the graph.

    Each term is (tag, differentiate, power) with integer power >= 0.
    Derivatives are taken coefficient-wise on the fitted polynomials, which is
    valid on open edges; endpoint kinks have measure zero.
    """
    for tag, _, power in terms:
        if tag not in ALL_TAGS:
            raise BadPoint(f"unknown integrand tag {tag!r}")
        if power < 0:
            raise BadPoint("powers must be nonnegative")
    total = Fraction(0)
    for edge in range(g.ecount):
        polys = edge_tag_polynomials(g, p, q, edge)
        product = EdgePolynomial(edge, (Fraction(1),))
        for tag, deriv, power in terms:
            factor = polys[tag].derivative() if deriv else polys[tag]
            product = product * factor.power(power)
        total += product.integral(g.edges[edge].length)
    return total


def tau_via_integral(g: MetrizedGraph, p: int = 0) -> Fraction:
    """The tau invariant as a quarter of the energy of x -> r(p, x)."""
    p = normalize_point(g, p)
    if not isinstance(p, int):
        raise BadPoint("base point must be a vertex")
    return integrate_product(g, p, p, [(TAG_R_FROM_P, True, 2)]) / 4


def apq_direct(g: MetrizedGraph, p: int, q: int) -> Fraction:
    """The voltage integral A = int j_x(p,q) (d/dx j_p(x,q))^2 dx, exactly.

    Defined as zero when p = q, where the integrand vanishes identically.
    """
    for v in (p, q):
        if not isinstance(v, int) or not 0 <= v < g.vcount:
            raise BadPoint("p and q must be vertices")
    if p == q:
        return Fraction(0)
    return integrate_product(
        g, p, q, [(TAG_J_BASE_X, False, 1), (TAG_J_BASE_P, True, 2)]
    )
