"""Effective resistance and voltage functions via exact Laplacian solves.

A :class:`GraphContext` holds the Green matrix (inverse reduced Laplacian) of
a list of edges as integer numerators N over one denominator d (``den``),
together with one integer row per edge (``rows``), so that all pairwise
resistances, voltage values and per-edge deletion resistances come out of a
single factorization. Only this module knows how N is stored; the others read
it through ``row``, ``potentials``, ``glued`` and ``deleted``.
``GraphContext.of(g)`` factorizes g, and ``context(g)`` stores that context
on the graph itself through ``graph._cached``, like the graph's other derived
values, so it lives exactly as long as the graph; it keeps the graph's edges,
not the graph, so no reference cycle holds either. Each graph is factorized
once, by its first reader, and the integers are never mutated.

Deleting an edge and gluing two vertices are read off the same integers,
with no new graph built: each is one rank-one update that adds an edge
(:class:`GreenUpdate`), read by ``r_deleted``, the deletion profiles
(:class:`EdgeProfile`, which only the tests read), the suite's arm sums,
``tau.deleted_apq`` and ``tau.apq_identity``. Their reference, each deleted
graph built and solved anew, lives in ``tests/oracles.py``.

A change of one edge's length is the same update, an edge added in parallel.
:class:`KirchhoffState` is a ``GraphContext`` over the changed graph's
Kirchhoff number, so that every division is exact, carried through a
sequence of such changes without factorizing; it reads everything else, the
bridge-checked deletion included, as a context. The suite's successive
length-change check reads it, and ``tests/oracles.py`` builds and factorizes
each step's graph as its reference.

:func:`solve_pair_resistances` (the sampled edge-polynomial oracle's solver)
exists only to check the matrix: it factorizes through ``GraphContext.of``
and stores nothing.

``GraphContext.memo`` holds what higher layers compute once per graph (tau,
A, the deletion profiles), each read through ``graph._cached``; it goes with
the context when the graph goes.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import NamedTuple

from .errors import BridgeDeletion, MgtError
from .graph import Edge, MetrizedGraph, PointOnGraph, _cached, check_vertices, edge_at, insert_points
from .linalg import green_numden, kirchhoff_ratio
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


class GreenUpdate:
    """g's Green integers after adding an edge of length m/n between a and b.

    With c = N[a] - N[b] and s = m d + n rn(a,b), Sherman-Morrison gives
    N' = N s - n c c^T over d' = d s (s and n negated when s < 0, so d' > 0).
    Deletion is m/n = -L; gluing is m = 0, n = 1, where an edge a-b becomes a
    loop and a bridge closed into a cycle gets gap' > 0, with no branch. c is
    built with the update from a context's N; an entry, the diagonal, a row
    and the edge rows are each worked out only when read. The constructor,
    ``res_num`` and ``row`` refuse a vertex id outside the graph, where -1
    would wrap; the constructor refuses s = 0 (a vertex glued to itself).
    """

    def __init__(self, ctx: GraphContext, a: int, b: int, m: int, n: int):
        check_vertices(ctx, a, b)
        self._c = c = list(map(sub, ctx._num[a], ctx._num[b]))
        s = m * ctx.den + n * (c[a] - c[b])
        if not s:
            raise MgtError(f"an edge of length {m}/{n} between {a} and {b} leaves no Green matrix")
        if s < 0:
            s, n = -s, -n
        self._num, self._s, self._n = ctx._num, s, n
        self.den = ctx.den * s
        self.vcount = len(c)

    def res_num(self, y: int, z: int) -> int:
        """d' r'(y,z) in O(1), from three entries of N and two of c."""
        num, c, v = self._num, self._c, self.vcount
        try:  # a float id in range fails the index, a str id the comparison: refused below
            if 0 <= y < v and 0 <= z < v:
                cross = c[y] - c[z]
                return (num[y][y] + num[z][z] - 2 * num[y][z]) * self._s - self._n * cross * cross
        except TypeError:
            pass
        check_vertices(self, y, z)

    def diag(self) -> list[int]:
        s, n = self._s, self._n
        return [row[y] * s - n * cy * cy for y, (row, cy) in enumerate(zip(self._num, self._c))]

    def row(self, y: int) -> list[int]:
        s, c = self._s, self._c
        try:  # as in res_num
            if 0 <= y < self.vcount:
                ncy = self._n * c[y]
                return [x * s - ncy * cz for x, cz in zip(self._num[y], c)]
        except TypeError:
            pass
        check_vertices(self, y)

    def rows(self, rows) -> list[tuple[int, int, int, int, int, int]]:
        """g's own ``GraphContext.rows`` updated to d': rn' = rn s - n (c[a] - c[b])^2."""
        c, s, n, den = self._c, self._s, self._n, self.den
        out = []
        for a, b, ln, ld, rn, _ in rows:
            cross = c[a] - c[b]
            rn = rn * s - n * cross * cross
            out.append((a, b, ln, ld, rn, ln * den - rn * ld))
        return out

    def divided(self, h: int) -> list[list[int]]:
        """N' / h, for an h that divides every entry of N' = N s - n c c^T.

        Only the upper triangle is worked out, each entry shared with its
        mirror; row and column 0, the ground, stay zero.
        """
        num, c, s, n = self._num, self._c, self._s, self._n
        out = [[0] * len(c)]
        for y in range(1, len(c)):
            ncy = n * c[y]
            out.append([0] + [row[y] for row in out[1:]]
                       + [(x * s - ncy * cz) // h for x, cz in zip(num[y][y:], c[y:])])
        return out


class GraphContext:
    """Exact solver state for one immutable graph (its edges, not the graph).

    N and ``den`` are the Green matrix as integer numerators over one
    denominator d, so a resistance costs a single Fraction construction. N is
    read through ``row`` (shared: the reader must not mutate it) and
    ``potentials``. ``rows`` holds one integer row (a, b, ln, ld, rn, gap)
    per edge: L = ln/ld, r(a,b) = rn/d and L - r(a,b) = gap/(ld d), so
    gap = ln d - rn ld, zero exactly on bridges, and rn is zero on
    self-loops. ``of`` factorizes a graph into one. Its readers refuse a
    vertex or edge id outside the graph, where -1 would wrap.
    """

    def __init__(self, edges, num: list[list[int]], den: int):
        self.edges, self._num, self.den = edges, num, den
        self.vcount = len(num)
        rows = []
        for a, b, length in edges:
            ln, ld = length.as_integer_ratio()
            rn = num[a][a] + num[b][b] - 2 * num[a][b]
            rows.append((a, b, ln, ld, rn, ln * den - rn * ld))
        self.rows = tuple(rows)
        self.memo: dict = {}  # per-graph values of higher layers, read through ``_cached``

    @classmethod
    def of(cls, g: MetrizedGraph) -> GraphContext:
        """g's context, factorized here."""
        return cls(g.edges, *green_numden(g.vcount, g.edges))

    def res_deleted(self, edge_id: int) -> ExtScalar:
        """R = L r(a,b)/(L - r(a,b)) = ln rn/gap between an edge's ends after its deletion.

        Read off the edge's row, with no profile built: 0 on a self-loop
        (rn = 0), INF across a bridge (gap = 0).
        """
        try:  # a float id in range fails the index, a str id the comparison: refused below
            if 0 <= edge_id < len(self.rows):
                _, _, ln, _, rn, gap = self.rows[edge_id]
                return INF if gap == 0 else Fraction(ln * rn, gap)
        except TypeError:
            pass
        edge_at(self, edge_id)

    def row(self, y: int) -> list[int]:
        """Row y of N, shared: the reader must not mutate it."""
        check_vertices(self, y)
        return self._num[y]

    def potentials(self, base: int = 0) -> list[int]:
        """d r(base, y) - N[base][base] per vertex y; the diagonal at base 0, whose row of N is zero."""
        check_vertices(self, base)
        row_p = self._num[base]
        return [row[y] - 2 * row_p[y] for y, row in enumerate(self._num)]

    def r(self, y: int, z: int) -> Fraction:
        num, n = self._num, self.vcount
        try:  # a float id in range fails the index, a str id the comparison: refused below
            if 0 <= y < n and 0 <= z < n:
                return Fraction(num[y][y] + num[z][z] - 2 * num[y][z], self.den)
        except TypeError:
            pass
        check_vertices(self, y, z)

    def voltage(self, x: int, y: int, z: int) -> Fraction:
        """j_x(y,z) = (r(x,y) + r(x,z) - r(y,z))/2, whose diagonal terms at y and z cancel."""
        num, n = self._num, self.vcount
        try:  # a float id in range fails the index, a str id the comparison: refused below
            if 0 <= x < n and 0 <= y < n and 0 <= z < n:
                return Fraction(num[x][x] - num[x][y] - num[x][z] + num[y][z], self.den)
        except TypeError:
            pass
        check_vertices(self, x, y, z)

    def deleted(self, edge_id: int) -> GreenUpdate:
        """g - e's integers: e in parallel with length -L, so d' = d gap; BridgeDeletion if gap = 0."""
        edge_at(self, edge_id)  # BadPoint unless an edge id, where rows[-1] would wrap
        a, b, ln, ld, _, gap = self.rows[edge_id]
        if gap == 0:
            raise BridgeDeletion(f"deleting edge {edge_id} disconnects the graph")
        return GreenUpdate(self, a, b, -ln, ld)

    def glued(self, p: int, q: int) -> GreenUpdate:
        """g with p and q glued: the zero-length limit of an edge p-q; MgtError if p = q."""
        return GreenUpdate(self, p, q, 0, 1)

    def r_deleted(self, edge_id: int, y: int, z: int) -> Fraction:
        """Resistance between y and z after deleting one edge; a loop (c = 0) leaves r unchanged."""
        update = self.deleted(edge_id)
        return Fraction(update.res_num(y, z), update.den)

    def edge_profiles(self, base: int) -> tuple[EdgeProfile, ...]:
        check_vertices(self, base)  # before the memo, whose key 1.0 would find base 1's profiles
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


class KirchhoffState(GraphContext):
    """Green integers over the Kirchhoff number, carried through edge-length changes.

    kappa is the sum over spanning trees T of prod(ld_e, e in T)
    prod(ln_e, e not in T) over the non-loop edges (``linalg.kirchhoff_ratio``),
    and its N is kappa G, an integer matrix; ``edges`` are the graph's edges
    at their current lengths and ``rows`` their rows over kappa, so every
    reader of a context (``deleted`` with its bridge check included) reads a
    state too. Changing edge e's length L = ln/ld to
    L' = pn/pd adds in parallel an edge of length -L L'/(L' - L), the
    ``GreenUpdate`` with m/n = -ln pn/(pn ld - ln pd).
    Split kappa = ld alpha + ln beta by the trees with e and those without;
    then rn = ln alpha, so s = m kappa + n rn = -ln^2 (pd alpha + pn beta)
    = -ln^2 kappa'. The update over kappa ln^2 is therefore the new state
    exactly, as each step of fraction-free elimination divides exactly by the
    pivot before it: one rank-one update and one exact division per entry,
    with integers of the changed graph's own size and no factorization. A
    loop and a zero change leave kappa and G as they are; only the edge's
    row takes its new length.
    """

    @classmethod
    def of(cls, g: MetrizedGraph) -> KirchhoffState:
        """g's state, scaled from its own context's (N, d) by kappa/d = p/q."""
        ctx = context(g)
        p, q = kirchhoff_ratio(g.vcount, g.edges).as_integer_ratio()
        return cls(g.edges, [[x * p // q for x in row] for row in ctx._num], ctx.den * p // q)

    def with_length(self, edge_id: int, length: Fraction) -> KirchhoffState:
        """The state after edge ``edge_id``'s length becomes ``length``."""
        edge_at(self, edge_id)  # where rows[-1] would wrap
        a, b, ln, ld, _, _ = self.rows[edge_id]
        pn, pd = length.as_integer_ratio()
        n = pn * ld - ln * pd
        num, den = self._num, self.den
        if a != b and n:
            update = GreenUpdate(self, a, b, -ln * pn, n)
            h = den * ln * ln
            num, den = update.divided(h), update.den // h
        edges = list(self.edges)
        edges[edge_id] = Edge(a, b, length)
        return KirchhoffState(edges, num, den)


def context(g: MetrizedGraph) -> GraphContext:
    """The graph's solver context, stored on g by its first reader and freed with it."""
    return _cached(g.__dict__, "_context", GraphContext.of, g)


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
    r = GraphContext.of(g).r
    return [r(y, z) for y, z in pairs]
