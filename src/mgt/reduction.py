"""Circuit reduction by local rewrites: star-mesh elimination in conductance form.

This engine never touches a Laplacian or the Green integers. The network is
one dict per vertex, mapping each neighbour to the conductance (1/length)
between them: parallel edges add up as the graph is read, and self-loops,
which carry no current, are never stored. The graph's network is built once
and kept on the graph through ``graph._cached``; each reduction copies it
before it eliminates. Interior vertices are eliminated one at a time by the
star-mesh rule (Kron reduction; series reduction is its n=2 case, wye-delta
its n=3 case). It is the second route of the suite's eq1.1-voltage check: its
resistances and voltages must equal the Green kernel's exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import MetrizedGraph, _cached, check_vertices

# vertex -> {neighbour: conductance}, kept symmetric
Network = dict[int, dict[int, Fraction]]


def _join(net: Network, a: int, b: int, c: Fraction) -> None:
    """Add a conductance c between a and b, in parallel with any already there."""
    old = net[a].get(b)
    net[a][b] = net[b][a] = c if old is None else old + c  # the maps are symmetric


def star_mesh(net: Network, center: int) -> None:
    """Eliminate center in place: legs c_i and c_j join with c_i c_j / sum(c_k)."""
    legs = list(net.pop(center).items())
    total = None
    for a, c in legs:
        total = c if total is None else total + c
        del net[a][center]
    for i, (a, ca) in enumerate(legs):
        share = ca / total
        for b, cb in legs[i + 1:]:
            _join(net, a, b, share * cb)


def _network(g: MetrizedGraph) -> Network:
    """The graph's own network, before any elimination."""
    net: Network = {v: {} for v in range(g.vcount)}
    for a, b, length in g.edges:
        if a != b:
            _join(net, a, b, Fraction(length.denominator, length.numerator))
    return net


def reduce_to_terminals(g: MetrizedGraph, terminals: tuple[int, ...]) -> Network:
    """The conductance maps left once every non-terminal vertex is eliminated.

    Vertices go fewest neighbours first, ties by id. The result is the
    caller's own: it shares no dict with the graph's stored network.
    """
    check_vertices(g, *terminals)
    net = {v: dict(legs) for v, legs in _cached(g.__dict__, "_network", _network, g).items()}
    interior = set(net) - set(terminals)
    while interior:
        node = min(interior, key=lambda v: (len(net[v]), v))
        interior.remove(node)
        star_mesh(net, node)
    return net


def resistance_via_reduction(g: MetrizedGraph, x: int, y: int) -> Fraction:
    """Two-terminal resistance computed purely by rewrites."""
    check_vertices(g, x, y)
    if x == y:
        return Fraction(0)
    return 1 / reduce_to_terminals(g, (x, y))[x][y]


def voltage_via_reduction(g: MetrizedGraph, x: int, p: int, q: int) -> Fraction:
    """j_x(p,q): the leg at x of the Y equivalent to the reduced triangle x, p, q.

    An edge missing from the triangle has conductance 0.
    """
    check_vertices(g, x, p, q)
    if x == p:
        return Fraction(0)
    if p == q:
        return resistance_via_reduction(g, x, p)
    if x == q:
        return Fraction(0)
    net = reduce_to_terminals(g, (x, p, q))
    c_xp, c_xq, c_pq = net[x].get(p, 0), net[x].get(q, 0), net[p].get(q, 0)
    return c_pq / (c_xp * c_xq + c_xp * c_pq + c_xq * c_pq)
