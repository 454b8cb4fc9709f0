"""Conjecture exploration: minimize tau over edge lengths.

The search loop runs in floating point: each point is one numpy inverse and
a few matrix products, which give tau and its gradient together. tau is the
per-edge sum ``tau.py`` evaluates exactly (1/4 sum_e [D^2/L + (L - r)^2/(3L)])
and the gradient is the float form of ``tau.tau_gradient``'s quadratic form
(Rayleigh's rule). Every reported minimum is re-evaluated exactly at nearby
rational coordinates, found by continued fractions on integers and scaled
over one common denominator, so the evidence trail stays rational end to end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import MgtError, NotBridgeless
from .graph import MetrizedGraph
from .ops import contract_bridges
from .tau import tau_of

POSITIVITY_FLOOR = 1e-9
ROUND_CAP = 10**6  # largest denominator of a rounded minimum's coordinate


class OptState(NamedTuple):
    lengths: tuple[float, ...]
    tau: float
    gradient: tuple[float, ...]
    iteration: int
    converged: bool
    pinned: tuple[int, ...]  # coordinates stuck at the positivity floor
    exact_lengths: tuple[Fraction, ...]
    exact_tau: Fraction


class FloatTopology:
    """Float tau/gradient evaluator for a fixed graph shape.

    B is the edge-vertex incidence without the grounded vertex 0 (a loop's row
    is zero). Each point costs one inverse G = (B^T diag(1/L) B)^-1 and the
    products C = B G, whose row c_e holds the potentials of a unit current
    from a_e to b_e, and P = C B^T, with P[f, e] = c_f[a_e] - c_f[b_e]. Then
    r = diag(P) is r(a_e, b_e) and d = B diag(G) = -D, and tau and its
    gradient are sums over these arrays, with no deleted or glued sub-graph
    and no bridge or loop branch (those edges give 1/4 and 1/12 on their own).
    Both are computed together, and the last point's tau and gradient are
    kept, so ``tau(x)`` followed by ``gradient(x)`` inverts once.
    """

    def __init__(self, vcount: int, ends: list[tuple[int, int]]):
        rows = np.arange(len(ends))
        incidence = np.zeros((len(ends), vcount))
        incidence[rows, [a for a, _ in ends]] += 1.0
        incidence[rows, [b for _, b in ends]] -= 1.0
        self.incidence = np.ascontiguousarray(incidence[:, 1:])
        self.incidence_t = np.ascontiguousarray(self.incidence.T)
        # (bytes of L, tau, gradient) of the last point, replaced as one tuple
        # so a concurrent reader never pairs one point's key with another's values
        self._last: tuple | None = None

    def _edge_terms(self, lengths) -> tuple:
        """(bytes of L, tau, gradient), with h = d/L and w = (L - r)/(3L) per edge.

        tau = 1/4 sum_e [d^2/L + (L - r)^2/(3L)] = 1/4 sum_e [d h + (L - r) w].
        The gradient is Rayleigh's rule through that sum, as ``tau.tau_gradient``
        takes it exactly: 4 L_e^2 dtau/dL_e = (L_e^2 - r_e^2)/3 - d_e^2 + c_e^T Q c_e,
        with Q = -diag(B^T alpha) - B^T diag(beta) B, alpha = -2h and beta = 2w,
        so the sum over edges f is 2 [(C o C) B^T h - (P o P) w].
        """
        L = np.asarray(lengths, dtype=float)
        key = L.tobytes()  # a copy, so an in-place change to the caller's array misses
        last = self._last
        if last is None or last[0] != key:
            inc, inc_t = self.incidence, self.incidence_t
            green = np.linalg.inv((inc_t / L) @ inc)
            c = inc @ green
            p = c @ inc_t
            r = p.diagonal()
            d = inc @ green.diagonal()
            slack, square = L - r, L * L
            h, w = d / L, slack / (3 * L)
            cross = (c * c) @ (inc_t @ h) - (p * p) @ w
            last = self._last = (key, float((d * h + slack * w).sum() / 4),
                                 ((square - r * r) / 3 - d * d + 2 * cross) / (4 * square))
        return last

    def tau(self, lengths) -> float:
        """tau at these edge lengths."""
        return self._edge_terms(lengths)[1]

    def gradient(self, lengths) -> np.ndarray:
        """dtau/dL_e for each edge e; a copy, so the caller may change it."""
        return self._edge_terms(lengths)[2].copy()


def project_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= POSITIVITY_FLOOR, sum x = 1}: a scan down the sorted
    coordinates, summed in ``cumsum``'s order. k = 1 always counts: true in exact
    arithmetic, and rounding can lose it when |x| dwarfs 1."""
    if not x.size:
        raise ValueError("cannot project an empty vector onto the simplex")
    budget = 1.0 - x.size * POSITIVITY_FLOOR
    y = x - POSITIVITY_FLOOR
    total = 0.0
    for k, u in enumerate(sorted(y.tolist(), reverse=True), 1):
        total += u
        css = total - budget
        if k == 1 or u - css / k > 0:
            theta = css / k
    return np.maximum(y - theta, 0.0) + POSITIVITY_FLOOR


def search_topology(g: MetrizedGraph) -> MetrizedGraph:
    """The bridge-free topology the optimizer actually searches over."""
    g = contract_bridges(g)
    if g.ecount == 0:
        raise NotBridgeless("topology is a point once bridges are contracted")
    return g


def minimize_tau(
    topology: MetrizedGraph,
    start: list[float] | None = None,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> OptState:
    """Projected gradient descent for tau on the unit simplex of edge lengths.

    Bridges are contracted away first (each contributes a fixed 1/4 slope, so
    the minimum pushes their length to zero). Candidate minima are re-evaluated
    in exact arithmetic at rounded rational coordinates.
    """
    g = search_topology(topology)
    topo = FloatTopology(g.vcount, [(a, b) for a, b, _ in g.edges])
    n = g.ecount
    if start is not None:
        if len(start) != n:
            raise MgtError(
                f"start has {len(start)} lengths but the bridge-free topology has {n} edges"
            )
        x = np.asarray(start, dtype=float)
        if not (np.isfinite(x).all() and math.isfinite(sum(abs(v) for v in x.tolist()))):
            raise MgtError("start lengths must be finite numbers with a finite sum")
        x = project_simplex(x)
        if not abs(x.sum() - 1) <= 1e-6:
            raise MgtError("start lengths are too large to project onto the unit simplex "
                           "in floating point")
    else:
        x = np.full(n, 1.0 / n)
    value = topo.tau(x)
    grad = topo.gradient(x)
    best = (value, x, grad)  # x is always a fresh array, and gradient() returns a copy
    iteration = 0
    converged = False
    for iteration in range(1, max_iters + 1):
        step = 0.1
        moved = False
        for _ in range(50):
            candidate = project_simplex(x - step * grad)
            cand_value = topo.tau(candidate)
            step_vec = candidate - x
            if cand_value <= value + 1e-4 * float(grad @ step_vec) + 1e-15:
                moved = True
                break
            step *= 0.5
        if not moved:
            converged = True
            break
        if cand_value > value + 1e-12:
            converged = True
            break
        move = math.sqrt(step_vec @ step_vec)  # np.linalg.norm's own formula, without its dispatch
        x, value = candidate, cand_value
        grad = topo.gradient(x)
        if value < best[0]:
            best = (value, x, grad)
        if move < tol:
            converged = True
            break
    value, x, grad = best
    exact_lengths = _round_to_simplex(x)
    exact_graph = MetrizedGraph._derived(
        g.vcount,
        tuple(e._replace(length=L) for e, L in zip(g.edges, exact_lengths)),
    )
    exact = tau_of(exact_graph)
    pinned = tuple(i for i, L in enumerate(x) if L <= 10 * POSITIVITY_FLOOR)
    return OptState(
        lengths=tuple(float(v) for v in x),
        tau=float(value),
        gradient=tuple(float(v) for v in grad),
        iteration=iteration,
        converged=converged,
        pinned=pinned,
        exact_lengths=exact_lengths,
        exact_tau=exact,
    )


def _round_to_simplex(x: np.ndarray) -> tuple[Fraction, ...]:
    """Each coordinate's best rational with denominator <= ROUND_CAP, raised to at
    least 1/(10 ROUND_CAP), then scaled to sum 1: on integer pairs over one lcm."""
    pairs = []
    for v in x.tolist():
        n, d = _best_rational(v, ROUND_CAP)
        pairs.append((1, 10 * ROUND_CAP) if n * 10 * ROUND_CAP < d else (n, d))
    common = math.lcm(*(d for _, d in pairs))
    nums = [n * (common // d) for n, d in pairs]
    total = sum(nums)
    return tuple(Fraction(n, total) for n in nums)


def _best_rational(v: float, cap: int) -> tuple[int, int]:
    """``Fraction(v).limit_denominator(cap)`` as a reduced pair: its continued-fraction
    walk on integers, then the nearer of the convergent p1/q1 and the semiconvergent
    (p0 + k p1)/(q0 + k q1), the convergent on a tie, by Python 3.12's integer test."""
    num, den = v.as_integer_ratio()  # already in lowest terms
    if den <= cap:
        return num, den
    p0, q0, p1, q1, n, d = 0, 1, 1, 0, num, den
    while (q2 := q0 + (a := n // d) * q1) <= cap:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (cap - q0) // q1
    return (p1, q1) if 2 * d * (q0 + k * q1) <= den else (p0 + k * p1, q0 + k * q1)
