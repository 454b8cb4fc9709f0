"""Circuit reduction by local rewrites: star-mesh elimination.

This engine never touches a Laplacian; it eliminates nodes one at a time with
the star-mesh rule (series reduction is its n=2 case, wye-delta its n=3 case),
merges parallel resistors and drops self-loops between steps, and keeps a
trace of every rewrite. It serves as an independent oracle for the
linear-algebra engine: both must produce identical terminal resistances.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import PatternMismatch, ReductionStuck, TerminalElimination
from .graph import MetrizedGraph


class ReductionNetwork(NamedTuple):
    """Working multigraph of resistors plus up to three marked terminals."""

    nodes: frozenset[int]
    edges: tuple[tuple[int, int, Fraction], ...]
    terminals: tuple[int, ...]
    trace: tuple[str, ...] = ()

    def degree(self, node: int) -> int:
        return sum(1 for a, b, _ in self.edges if node in (a, b) and a != b)

    def has_loop_at(self, node: int) -> bool:
        return any(a == b == node for a, b, _ in self.edges)

    def _replaced(self, nodes=None, edges=None, note: str | None = None) -> "ReductionNetwork":
        return ReductionNetwork(
            nodes if nodes is not None else self.nodes,
            tuple(edges) if edges is not None else self.edges,
            self.terminals,
            self.trace + ((note,) if note else ()),
        )


def network_from_graph(g: MetrizedGraph, terminals: tuple[int, ...]) -> ReductionNetwork:
    if len(set(terminals)) != len(terminals):
        raise PatternMismatch("terminals must be distinct")
    for t in terminals:
        if not 0 <= t < g.vcount:
            raise PatternMismatch(f"terminal {t} not in graph")
    if not 1 <= len(terminals) <= 3:
        raise PatternMismatch("need one to three terminals")
    return ReductionNetwork(
        frozenset(range(g.vcount)),
        tuple((a, b, length) for a, b, length in g.edges),
        tuple(terminals),
    )


def star_mesh(net: ReductionNetwork, center: int) -> ReductionNetwork:
    """Eliminate a node, connecting each pair of its legs with L_i L_j sum(1/L_k).

    Legs to the same neighbor must be parallel-merged first; pairs of legs
    that would produce a self-loop cannot arise after that cleanup.
    """
    if center in net.terminals:
        raise TerminalElimination(f"node {center} is a terminal")
    if net.has_loop_at(center):
        raise PatternMismatch(f"node {center} carries a self-loop")
    legs = []
    keep = []
    for e in net.edges:
        if center in e[:2]:
            other = e[0] if e[1] == center else e[1]
            legs.append((other, e[2]))
        else:
            keep.append(e)
    n = len(legs)
    if n >= 2:
        inv_sum = sum(1 / L for _, L in legs)
        for i in range(n):
            qi, li = legs[i]
            for j in range(i + 1, n):
                qj, lj = legs[j]
                if qi != qj:
                    keep.append((qi, qj, li * lj * inv_sum))
    return net._replaced(net.nodes - {center}, keep, f"star-mesh n={n} at {center}")


def _cleanup(net: ReductionNetwork) -> ReductionNetwork:
    """Drop self-loops and merge every parallel class."""
    edges: dict[frozenset, list[Fraction]] = {}
    order: list[frozenset] = []
    dropped = 0
    for a, b, L in net.edges:
        if a == b:
            dropped += 1
            continue
        key = frozenset((a, b))
        if key not in edges:
            edges[key] = []
            order.append(key)
        edges[key].append(L)
    out = []
    merged = 0
    for key in order:
        group = edges[key]
        a, b = sorted(key)
        if len(group) == 1:
            out.append((a, b, group[0]))
        else:
            merged += 1
            out.append((a, b, 1 / sum(1 / L for L in group)))
    if (dropped, merged) == (0, 0):
        return net
    return net._replaced(edges=out, note=f"cleanup loops={dropped} parallel={merged}")


def reduce_to_terminals(g: MetrizedGraph, terminals: tuple[int, ...]) -> ReductionNetwork:
    """Reduce a graph to a canonical 2-terminal edge or 3-terminal Y.

    Non-terminal nodes are eliminated lowest degree first (ties by id) via
    star-mesh, with parallel-merge and loop-discard cleanup between steps.
    """
    net = _cleanup(network_from_graph(g, terminals))
    while True:
        interior = sorted(net.nodes - set(net.terminals))
        if not interior:
            break
        node = min(interior, key=lambda u: (net.degree(u), u))
        before = len(net.nodes)
        net = _cleanup(star_mesh(net, node))
        if len(net.nodes) >= before:
            raise ReductionStuck(f"failed to eliminate node {node}")
    if len(net.terminals) == 2:
        return net
    if len(net.terminals) == 3:
        return _canonical_y(net)
    return net


def _canonical_y(net: ReductionNetwork) -> ReductionNetwork:
    """Rebuild a three-terminal mesh as a star whose legs are the j-values."""
    p, q, s = net.terminals
    r = {key: None for key in (frozenset((p, q)), frozenset((q, s)), frozenset((p, s)))}
    for a, b, L in net.edges:
        r[frozenset((a, b))] = L
    r_pq = _mesh_resistance(r[frozenset((p, q))], r[frozenset((p, s))], r[frozenset((q, s))])
    r_ps = _mesh_resistance(r[frozenset((p, s))], r[frozenset((p, q))], r[frozenset((q, s))])
    r_qs = _mesh_resistance(r[frozenset((q, s))], r[frozenset((p, q))], r[frozenset((p, s))])
    center = max(net.nodes) + 1
    legs = [
        (p, center, (r_pq + r_ps - r_qs) / 2),
        (q, center, (r_pq + r_qs - r_ps) / 2),
        (s, center, (r_ps + r_qs - r_pq) / 2),
    ]
    return net._replaced(net.nodes | {center}, tuple(legs), "canonical Y")


def _mesh_resistance(direct, side1, side2) -> Fraction:
    """Two-terminal resistance of a triangle that may be missing edges."""
    through = side1 + side2 if side1 is not None and side2 is not None else None
    if direct is None and through is None:
        raise ReductionStuck("terminal pair disconnected in reduced mesh")
    if direct is None:
        return through
    if through is None:
        return direct
    return direct * through / (direct + through)


def resistance_via_reduction(g: MetrizedGraph, x: int, y: int) -> Fraction:
    """Two-terminal resistance computed purely by rewrites."""
    if x == y:
        return Fraction(0)
    net = reduce_to_terminals(g, (x, y))
    if len(net.edges) != 1:
        raise ReductionStuck("two-terminal reduction did not end in a single edge")
    return net.edges[0][2]


def voltage_via_reduction(g: MetrizedGraph, x: int, p: int, q: int) -> Fraction:
    """j_x(p,q) read off the canonical Y leg at x."""
    if x == p:
        return Fraction(0)
    if p == q:
        return resistance_via_reduction(g, x, p)
    if x == q:
        return Fraction(0)
    net = reduce_to_terminals(g, (x, p, q))
    for a, b, L in net.edges:
        if a == x or b == x:
            return L
    raise ReductionStuck("terminal missing from canonical Y")
