"""Effective resistance and voltage functions via exact Laplacian solves.

A per-graph :class:`GraphContext` holds the Green matrix (inverse reduced
Laplacian) as integer numerators over one denominator d (``num``, ``den``),
together with one integer row per edge (``rows``), so that all pairwise
resistances, voltage values and per-edge deletion resistances come out of a
single factorization, made when the context is. ``context(g)`` stores it on
the graph itself through ``graph._cached``, like the graph's other derived
values, so it lives exactly as long as the graph; it keeps the graph's edges,
not the graph, so no reference cycle holds either. Each graph is factorized
once, by its first reader, and the integers are never mutated.

Deleting an edge and gluing two vertices are read off the same integers,
with no new graph built: each is one rank-one update that adds an edge
(:class:`GreenUpdate`), read by ``r_deleted``, the deletion profiles
(:class:`EdgeProfile`, which only the tests read), the suite's arm sums,
``tau.deleted_apq`` and ``tau.apq_identity``. Their reference, each deleted
graph built and solved anew, lives in ``tests/oracles.py``.

:func:`solve_pair_resistances` (the sampled edge-polynomial oracle's solver)
exists only to check the matrix: it calls ``green_numden`` directly and
stores nothing.

``GraphContext.memo`` holds what higher layers compute once per graph (tau,
A, the deletion profiles), each read through ``graph._cached``; it goes with
the context when the graph goes.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import NamedTuple

from .errors import BridgeDeletion
from .graph import MetrizedGraph, PointOnGraph, _cached, insert_points
from .linalg import green_numden
from .rational import INF, ExtScalar


class EdgeProfile(NamedTuple):
    """Resistances seen by one edge after its own deletion.

    ``res_deleted`` is the resistance between the edge's endpoints in the
    deleted graph (INF across a bridge). Relative to a base vertex, the deleted
    graph reduces to a Y whose arms are ``arm_a`` (toward endpoint a), ``arm_b``
    (toward endpoint b) and ``arm_base`` (toward the base point). For a finite
    deletion resistance, arm_a + arm_b = res_deleted.
    """

    edge: int
    length: Fraction
    res_deleted: ExtScalar
    arm_a: ExtScalar
    arm_b: ExtScalar
    arm_base: Fraction
    bridge: bool
    loop: bool


def _edge_rows(edges, num: list[list[int]], den: int) -> tuple[tuple[int, ...], ...]:
    """The ``GraphContext.rows`` of ``edges`` over Green numerators num / den."""
    rows = []
    for a, b, length in edges:
        ln, ld = length.as_integer_ratio()
        rn = num[a][a] + num[b][b] - 2 * num[a][b]
        rows.append((a, b, ln, ld, rn, ln * den - rn * ld))
    return tuple(rows)


class GreenUpdate:
    """g's Green integers after adding an edge of length m/n between a and b.

    With c = N[a] - N[b] and s = m d + n rn(a,b), Sherman-Morrison gives
    N' = N s - n c c^T over d' = d s (s and n negated when s < 0, so d' > 0).
    Deletion is m/n = -L; gluing is m = 0, n = 1, where an edge a-b becomes a
    loop and a bridge closed into a cycle gets gap' > 0, with no branch. c is
    built with the update; an entry, the diagonal, a row and the edge rows
    are each worked out only when read.
    """

    def __init__(self, num: list[list[int]], den: int, a: int, b: int, m: int, n: int):
        self._c = c = list(map(sub, num[a], num[b]))
        s = m * den + n * (c[a] - c[b])
        if s < 0:
            s, n = -s, -n
        self._num, self._s, self._n = num, s, n
        self.den = den * s

    def res_num(self, y: int, z: int) -> int:
        """d' r'(y,z) in O(1), from three entries of N and two of c."""
        num, c = self._num, self._c
        cross = c[y] - c[z]
        return (num[y][y] + num[z][z] - 2 * num[y][z]) * self._s - self._n * cross * cross

    def diag(self) -> list[int]:
        s, n = self._s, self._n
        return [row[y] * s - n * cy * cy for y, (row, cy) in enumerate(zip(self._num, self._c))]

    def row(self, y: int) -> list[int]:
        s, c = self._s, self._c
        ncy = self._n * c[y]
        return [x * s - ncy * cz for x, cz in zip(self._num[y], c)]

    def rows(self, rows) -> list[tuple[int, int, int, int, int, int]]:
        """g's own ``GraphContext.rows`` updated to d': rn' = rn s - n (c[a] - c[b])^2."""
        c, s, n, den = self._c, self._s, self._n, self.den
        out = []
        for a, b, ln, ld, rn, _ in rows:
            cross = c[a] - c[b]
            rn = rn * s - n * cross * cross
            out.append((a, b, ln, ld, rn, ln * den - rn * ld))
        return out


class GraphContext:
    """Exact solver state for one immutable graph (its edges, not the graph), factorized when made.

    ``num`` and ``den`` are the Green matrix as integer numerators over one
    denominator d, so a resistance costs a single Fraction construction;
    readers share ``num`` and must not mutate it. ``rows`` holds one integer
    row (a, b, ln, ld, rn, gap) per edge: L = ln/ld, r(a,b) = rn/d and
    L - r(a,b) = gap/(ld d), so gap = ln d - rn ld, zero exactly on bridges,
    and rn is zero on self-loops.
    """

    def __init__(self, g: MetrizedGraph):
        self.edges = g.edges
        self.num, self.den = green_numden(g.vcount, g.edges)
        self.rows = _edge_rows(g.edges, self.num, self.den)
        self.memo: dict = {}  # per-graph values of higher layers, read through ``_cached``

    def res_deleted(self, edge_id: int) -> ExtScalar:
        """R = L r(a,b)/(L - r(a,b)) = ln rn/gap between an edge's ends after its deletion.

        Read off the edge's row, with no profile built: 0 on a self-loop
        (rn = 0), INF across a bridge (gap = 0).
        """
        _, _, ln, _, rn, gap = self.rows[edge_id]
        return INF if gap == 0 else Fraction(ln * rn, gap)

    def r(self, y: int, z: int) -> Fraction:
        num = self.num
        return Fraction(num[y][y] + num[z][z] - 2 * num[y][z], self.den)

    def voltage(self, x: int, y: int, z: int) -> Fraction:
        """j_x(y,z) = (r(x,y) + r(x,z) - r(y,z))/2, whose diagonal terms at y and z cancel."""
        num = self.num
        return Fraction(num[x][x] - num[x][y] - num[x][z] + num[y][z], self.den)

    def deleted(self, edge_id: int) -> GreenUpdate:
        """g - e's integers: e in parallel with length -L, so d' = d gap; BridgeDeletion if gap = 0."""
        a, b, ln, ld, _, gap = self.rows[edge_id]
        if gap == 0:
            raise BridgeDeletion(f"deleting edge {edge_id} disconnects the graph")
        return GreenUpdate(self.num, self.den, a, b, -ln, ld)

    def r_deleted(self, edge_id: int, y: int, z: int) -> Fraction:
        """Resistance between y and z after deleting one edge; a loop (c = 0) leaves r unchanged."""
        update = self.deleted(edge_id)
        return Fraction(update.res_num(y, z), update.den)

    def edge_profiles(self, base: int) -> tuple[EdgeProfile, ...]:
        return _cached(self.memo, ("profiles", base), lambda: tuple(
            self._profile(i, base) for i in range(len(self.edges))))

    def _profile(self, edge_id: int, base: int) -> EdgeProfile:
        """One edge's deletion profile from integers over 2 d gap.

        With X_y = d gap r_deleted(y, base) and M = ln rn d = d gap R, the arms
        are (X_a + M - X_b), (M + X_b - X_a) and (X_a + X_b - M) over 2 d gap.
        A loop (rn = 0, c = 0) comes out with zero arms and arm_base r(base, a).
        """
        a, b, ln, _, rn, gap = self.rows[edge_id]
        if gap == 0:  # bridge: the rest of the circuit carries no alternative path
            return self._bridge_profile(edge_id, base)
        update = self.deleted(edge_id)
        x_a = update.res_num(a, base)
        x_b = update.res_num(b, base)
        mid = ln * rn * self.den
        over = 2 * update.den
        return EdgeProfile(edge_id, self.edges[edge_id].length, self.res_deleted(edge_id),
                           Fraction(x_a + mid - x_b, over), Fraction(mid + x_b - x_a, over),
                           Fraction(x_a + x_b - mid, over), bridge=False, loop=(a == b))

    def _bridge_profile(self, edge_id: int, base: int) -> EdgeProfile:
        # Across a bridge r(base, b) = r(base, a) + L when base is on a's side,
        # so the nearer endpoint is base's side and its resistance is the arm.
        a, b, length = self.edges[edge_id]
        r_a, r_b = self.r(base, a), self.r(base, b)
        if r_a < r_b:
            arm_a: ExtScalar = Fraction(0)
            arm_b: ExtScalar = INF
        else:
            arm_a = INF
            arm_b = Fraction(0)
        return EdgeProfile(edge_id, length, INF, arm_a, arm_b, min(r_a, r_b),
                           bridge=True, loop=False)


def context(g: MetrizedGraph) -> GraphContext:
    """The graph's solver context, stored on g by its first reader and freed with it."""
    return _cached(g.__dict__, "_context", GraphContext, g)


def resistance(g: MetrizedGraph, x: PointOnGraph, y: PointOnGraph) -> Fraction:
    """Effective resistance r(x, y), inserting interior points as needed."""
    gx, (vx, vy) = insert_points(g, [x, y])
    if vx == vy:
        return Fraction(0)
    return context(gx).r(vx, vy)


def voltage(g: MetrizedGraph, x: PointOnGraph, y: PointOnGraph, z: PointOnGraph) -> Fraction:
    """Voltage j_x(y, z): potential at y when unit current runs y -> z, grounded at x."""
    gx, (vx, vy, vz) = insert_points(g, [x, y, z])
    return context(gx).voltage(vx, vy, vz)


def solve_pair_resistances(g: MetrizedGraph, pairs: list[tuple[int, int]]) -> list[Fraction]:
    """Resistances for selected vertex pairs of a graph solved anew.

    The solver of the sampled edge-polynomial oracle in the tests: each sample
    point is inserted as a vertex and its graph solved here, apart from the
    cached contexts that ``mgt.integration`` reads.
    """
    num, den = green_numden(g.vcount, g.edges)
    return [Fraction(num[y][y] + num[z][z] - 2 * num[y][z], den) for y, z in pairs]
