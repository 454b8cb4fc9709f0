"""Circuit reduction by local rewrites: star-mesh elimination in conductance form.

This engine never touches a Laplacian or the Green integers. The network is
one dict per vertex, mapping each neighbour to the conductance (1/length)
between them: parallel edges add up as the graph is read, and self-loops,
which carry no current, are never stored. Interior vertices are eliminated one
at a time by the star-mesh rule (Kron reduction; series reduction is its n=2
case, wye-delta its n=3 case). It is the second route of the suite's
eq1.1-voltage check: its resistances and voltages must equal the Green
kernel's exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import MetrizedGraph, check_vertices

# vertex -> {neighbour: conductance}, kept symmetric
Network = dict[int, dict[int, Fraction]]


def _join(net: Network, a: int, b: int, c: Fraction) -> None:
    """Add a conductance c between a and b, in parallel with any already there."""
    net[a][b] = net[b][a] = net[a].get(b, 0) + c  # the maps are symmetric


def star_mesh(net: Network, center: int) -> None:
    """Eliminate center in place: legs c_i and c_j join with c_i c_j / sum(c_k)."""
    legs = list(net.pop(center).items())
    total = sum(c for _, c in legs)
    for a, _ in legs:
        del net[a][center]
    for i, (a, ca) in enumerate(legs):
        share = ca / total
        for b, cb in legs[i + 1:]:
            _join(net, a, b, share * cb)


def reduce_to_terminals(g: MetrizedGraph, terminals: tuple[int, ...]) -> Network:
    """The conductance maps left once every non-terminal vertex is eliminated.

    Vertices go fewest neighbours first, ties by id.
    """
    check_vertices(g, *terminals)
    net: Network = {v: {} for v in range(g.vcount)}
    for a, b, length in g.edges:
        if a != b:
            _join(net, a, b, 1 / length)
    interior = set(net) - set(terminals)
    while interior:
        node = min(interior, key=lambda v: (len(net[v]), v))
        interior.remove(node)
        star_mesh(net, node)
    return net


def resistance_via_reduction(g: MetrizedGraph, x: int, y: int) -> Fraction:
    """Two-terminal resistance computed purely by rewrites."""
    if x == y:
        return Fraction(0)
    return 1 / reduce_to_terminals(g, (x, y))[x][y]


def voltage_via_reduction(g: MetrizedGraph, x: int, p: int, q: int) -> Fraction:
    """j_x(p,q): the leg at x of the Y equivalent to the reduced triangle x, p, q.

    An edge missing from the triangle has conductance 0.
    """
    if x == p:
        return Fraction(0)
    if p == q:
        return resistance_via_reduction(g, x, p)
    if x == q:
        return Fraction(0)
    net = reduce_to_terminals(g, (x, p, q))
    c_xp, c_xq, c_pq = net[x].get(p, 0), net[x].get(q, 0), net[p].get(q, 0)
    return c_pq / (c_xp * c_xq + c_xp * c_pq + c_xq * c_pq)
