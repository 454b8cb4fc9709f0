"""Effective resistance and voltage functions via exact Laplacian solves.

A per-graph :class:`GraphContext` caches the Green matrix (inverse reduced
Laplacian) so that all pairwise resistances, voltage values and per-edge
deletion resistances come out of a single factorization. The cache is safe for
concurrent readers: the matrix is computed once under a lock and never mutated.

The per-edge deletion profiles (:class:`EdgeProfile`) are the paper's
deletion route, read off the same matrix: a rank-one update for a cycle edge,
the resistance to the nearer endpoint for a bridge. ``mgt.tau`` does not use
them; they serve the arm and deleted-resistance identities.
:func:`edge_profile` (each deleted graph solved anew) and
:func:`solve_pair_resistances` (the sampled edge-polynomial oracle's solver)
exist only to check the matrix.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadPoint, MgtError
from .graph import Edge, MetrizedGraph, PointOnGraph, insert_points, normalize_point
from .linalg import green_matrix, green_numden, laplacian_int, resistance_from_green, solve_spd
from .rational import INF, ExtScalar, Scalar


@dataclass(frozen=True)
class EdgeProfile:
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


class GraphContext:
    """Cached exact solver state for one immutable graph.

    The Green matrix is kept as integer numerators over one denominator so
    resistance lookups cost a single Fraction construction.
    """

    def __init__(self, g: MetrizedGraph):
        self.graph = g
        self._lock = threading.RLock()
        self._num: list[list[int]] | None = None
        self._den: int = 1
        self._profiles: dict[int, tuple[EdgeProfile, ...]] = {}
        self.memo: dict = {}  # scratch space for higher layers (tau, A)

    def _ensure_green(self) -> None:
        if self._num is None:
            with self._lock:
                if self._num is None:
                    num, den = green_numden(self.graph.vcount, self.graph.edges)
                    self._den = den
                    self._num = num

    def green_int(self) -> tuple[list[list[int]], int]:
        """The Green matrix as (N, d): integer numerators over one denominator.

        Shared by every reader of this context; callers must not mutate N.
        """
        self._ensure_green()
        return self._num, self._den

    def r(self, y: int, z: int) -> Fraction:
        self._ensure_green()
        num = self._num
        return Fraction(num[y][y] + num[z][z] - 2 * num[y][z], self._den)

    def voltage(self, x: int, y: int, z: int) -> Fraction:
        self._ensure_green()
        num = self._num
        combined = (
            (num[x][x] + num[y][y] - 2 * num[x][y])
            + (num[x][x] + num[z][z] - 2 * num[x][z])
            - (num[y][y] + num[z][z] - 2 * num[y][z])
        )
        return Fraction(combined, 2 * self._den)

    def r_deleted(self, edge_id: int, y: int, z: int) -> Fraction:
        """Resistance between y and z after deleting one edge (rank-one update).

        Requires the deleted graph to stay connected.
        """
        a, b, length = self.graph.edges[edge_id]
        if a == b:
            return self.r(y, z)
        self._ensure_green()
        num = self._num
        den = self._den
        r_ab_num = num[a][a] + num[b][b] - 2 * num[a][b]
        gap = length * den - r_ab_num  # den * (L - r(a,b))
        if gap == 0:
            raise MgtError("edge is a bridge; deleted resistance is infinite")
        cross = num[y][a] - num[y][b] - num[z][a] + num[z][b]
        base = Fraction(num[y][y] + num[z][z] - 2 * num[y][z], den)
        return base + Fraction(cross * cross, den) / gap

    def edge_profiles(self, base: int) -> tuple[EdgeProfile, ...]:
        if base not in self._profiles:
            with self._lock:
                if base not in self._profiles:
                    self._profiles[base] = tuple(
                        self._profile(i, base) for i in range(self.graph.ecount)
                    )
        return self._profiles[base]

    def _profile(self, edge_id: int, base: int) -> EdgeProfile:
        a, b, length = self.graph.edges[edge_id]
        if a == b:
            return EdgeProfile(
                edge_id, length, Fraction(0), Fraction(0), Fraction(0),
                self.r(base, a), bridge=False, loop=True,
            )
        r_ab = self.r(a, b)
        if r_ab == length:  # bridge: the rest of the circuit carries no alternative path
            return self._bridge_profile(edge_id, base)
        res_del = length * r_ab / (length - r_ab)
        ra_p = self.r_deleted(edge_id, a, base)
        rb_p = self.r_deleted(edge_id, b, base)
        arm_a = (ra_p + res_del - rb_p) / 2
        arm_b = res_del - arm_a
        arm_base = (ra_p + rb_p - res_del) / 2
        return EdgeProfile(edge_id, length, res_del, arm_a, arm_b, arm_base,
                           bridge=False, loop=False)

    def _bridge_profile(self, edge_id: int, base: int) -> EdgeProfile:
        # Across a bridge r(base, b) = r(base, a) + L when base is on a's side,
        # so the nearer endpoint is base's side and its resistance is the arm.
        a, b, length = self.graph.edges[edge_id]
        r_a, r_b = self.r(base, a), self.r(base, b)
        if r_a < r_b:
            arm_a: ExtScalar = Fraction(0)
            arm_b: ExtScalar = INF
        else:
            arm_a = INF
            arm_b = Fraction(0)
        return EdgeProfile(edge_id, length, INF, arm_a, arm_b, min(r_a, r_b),
                           bridge=True, loop=False)


def _component_of(g: MetrizedGraph, skip_edge: int, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for i, (a, b, _) in enumerate(g.edges):
            if i == skip_edge:
                continue
            for w in ((b,) if a == u else (a,) if b == u else ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen


def _component_resistance(g: MetrizedGraph, skip_edge: int, side_a: set[int] | None,
                          y: int, z: int) -> Fraction:
    """Resistance between y and z inside their component of the deleted graph."""
    if y == z:
        return Fraction(0)
    comp = side_a if side_a is not None else _component_of(g, skip_edge, y)
    verts = sorted(comp)
    relabel = {v: i for i, v in enumerate(verts)}
    edges = [Edge(relabel[a], relabel[b], L) for i, (a, b, L) in enumerate(g.edges)
             if i != skip_edge and a in comp and b in comp]
    green = green_matrix(len(verts), edges, ground=0)
    return resistance_from_green(green, relabel[y], relabel[z])


_CACHE_LIMIT = 2048
_context_cache: "OrderedDict[MetrizedGraph, GraphContext]" = OrderedDict()
_context_lock = threading.Lock()


def context(g: MetrizedGraph) -> GraphContext:
    """Shared solver context for a graph (one computation, many readers).

    Bounded LRU keyed by graph value, so identical graphs built independently
    share their solve work.
    """
    with _context_lock:
        ctx = _context_cache.get(g)
        if ctx is not None:
            _context_cache.move_to_end(g)
            return ctx
        ctx = GraphContext(g)
        _context_cache[g] = ctx
        while len(_context_cache) > _CACHE_LIMIT:
            _context_cache.popitem(last=False)
    return ctx


def resistance(g: MetrizedGraph, x: PointOnGraph, y: PointOnGraph) -> Fraction:
    """Effective resistance r(x, y), inserting interior points as needed."""
    gx, (vx, vy) = _with_points(g, x, y)
    if vx == vy:
        return Fraction(0)
    return context(gx).r(vx, vy)


def voltage(g: MetrizedGraph, x: PointOnGraph, y: PointOnGraph, z: PointOnGraph) -> Fraction:
    """Voltage j_x(y, z): potential at y when unit current runs y -> z, grounded at x."""
    gx, (vx, vy, vz) = _with_points(g, x, y, z)
    return context(gx).voltage(vx, vy, vz)


def _with_points(g: MetrizedGraph, *points: PointOnGraph):
    gx, ids = insert_points(g, list(points))
    return gx, ids


def edge_profile(g: MetrizedGraph, edge_id: int, base: int) -> EdgeProfile:
    """Direct recomputation of one edge profile from the deleted graph.

    Unlike the cached fast path this actually builds the deleted graph and
    solves it, so the two routes cross-check each other.
    """
    if not 0 <= edge_id < g.ecount:
        raise BadPoint(f"edge {edge_id} out of range")
    a, b, length = g.edges[edge_id]
    base = normalize_point(g, base)
    if not isinstance(base, int):
        raise BadPoint("base must be a vertex")
    if a == b:
        rest = [e for i, e in enumerate(g.edges) if i != edge_id]
        green = green_matrix(g.vcount, rest)
        r_pa = resistance_from_green(green, base, a)
        return EdgeProfile(edge_id, length, Fraction(0), Fraction(0), Fraction(0),
                           r_pa, bridge=False, loop=True)
    side_a = _component_of(g, edge_id, a)
    if b not in side_a:
        if base in side_a:
            arm_base = _component_resistance(g, edge_id, side_a, base, a)
            return EdgeProfile(edge_id, length, INF, Fraction(0), INF, arm_base,
                               bridge=True, loop=False)
        arm_base = _component_resistance(g, edge_id, None, base, b)
        return EdgeProfile(edge_id, length, INF, INF, Fraction(0), arm_base,
                           bridge=True, loop=False)
    rest = [e for i, e in enumerate(g.edges) if i != edge_id]
    green = green_matrix(g.vcount, rest)
    res_del = resistance_from_green(green, a, b)
    ra_p = resistance_from_green(green, a, base)
    rb_p = resistance_from_green(green, b, base)
    arm_a = (ra_p + res_del - rb_p) / 2
    arm_b = res_del - arm_a
    arm_base = (ra_p + rb_p - res_del) / 2
    return EdgeProfile(edge_id, length, res_del, arm_a, arm_b, arm_base,
                       bridge=False, loop=False)


def resistance_matrix(g: MetrizedGraph) -> list[list[Fraction]]:
    """Symmetric table of pairwise vertex resistances."""
    ctx = context(g)
    return [[ctx.r(y, z) for z in range(g.vcount)] for y in range(g.vcount)]


def solve_pair_resistances(g: MetrizedGraph, pairs: list[tuple[int, int]]) -> list[Fraction]:
    """Resistances for selected vertex pairs from one factorization, no full inverse.

    The solver of the sampled edge-polynomial oracle in the tests: each sample
    point is inserted as a vertex and solved here, independently of the Green
    matrix that ``mgt.integration`` reads.
    """
    if g.vcount == 1:
        return [Fraction(0) for _ in pairs]
    m, scale, index = laplacian_int(g.vcount, g.edges)
    rhs = []
    for y, z in pairs:
        col = [0] * (g.vcount - 1)
        if index[y] >= 0:
            col[index[y]] += scale
        if index[z] >= 0:
            col[index[z]] -= scale
        rhs.append(col)
    sols = solve_spd(m, rhs)
    out = []
    for (y, z), x in zip(pairs, sols):
        val = Fraction(0)
        if index[y] >= 0:
            val += x[index[y]]
        if index[z] >= 0:
            val -= x[index[z]]
        out.append(val)
    return out
