import random
from fractions import Fraction as F

from mgt import families
from mgt.circuit import context
from mgt.graph import build_graph
from mgt.reduction import (
    network_from_graph,
    reduce_to_terminals,
    resistance_via_reduction,
    star_mesh,
    voltage_via_reduction,
)


def _net(g, terminals):
    return network_from_graph(g, terminals)


def test_star_mesh_n2_is_series():
    chain = _net(families.path(F(3, 2), F(5, 2)), (0, 2))
    assert star_mesh(chain, 1).edges == ((0, 2, F(4)),)


def test_star_mesh_formula():
    # four legs from a center: new edge lengths L_i L_j sum(1/L_k)
    g = build_graph(5, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 4)])
    net = _net(g, (1, 2))
    out = star_mesh(net, 0)
    inv = 1 + F(1, 2) + F(1, 3) + F(1, 4)
    lengths = {frozenset(e[:2]): e[2] for e in out.edges}
    assert lengths[frozenset((1, 2))] == 1 * 2 * inv
    assert lengths[frozenset((3, 4))] == 3 * 4 * inv
    assert len(out.edges) == 6


def test_reduce_triangle_to_y():
    tri = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    net = reduce_to_terminals(tri, (0, 1, 2))
    assert sorted(L for _, _, L in net.edges) == [F(1, 3)] * 3


def test_reduce_tree_two_terminals():
    tree = build_graph(5, [(0, 1, 1), (1, 2, 2), (1, 3, 4), (3, 4, 8)])
    assert resistance_via_reduction(tree, 0, 4) == 13
    assert resistance_via_reduction(tree, 2, 4) == 14


def test_reduce_k4():
    k4 = families.complete(4, 6)
    assert resistance_via_reduction(k4, 0, 1) == F(1, 2)


def test_oracle_equivalence_random():
    rng = random.Random(31)
    for _ in range(25):
        g = families.random_connected(rng, 7, 12)
        cx = context(g)
        for _ in range(4):
            y = rng.randrange(g.vcount)
            z = rng.randrange(g.vcount)
            assert resistance_via_reduction(g, y, z) == cx.r(y, z)


def test_three_terminal_legs_are_voltages():
    rng = random.Random(37)
    for _ in range(12):
        g = families.random_connected(rng, 6, 10)
        if g.vcount < 3:
            continue
        x, p, q = rng.sample(range(g.vcount), 3)
        assert voltage_via_reduction(g, x, p, q) == context(g).voltage(x, p, q)


def test_every_rewrite_preserves_terminal_resistance():
    g = families.complete(5)
    expected = context(g).r(0, 1)
    net = network_from_graph(g, (0, 1))
    from mgt.reduction import _cleanup

    # after each single star-mesh step, finishing the reduction still gives
    # the same two-terminal resistance
    for node in (4, 3, 2):
        net = _cleanup(star_mesh(net, node))
        assert reduce_to_terminals_from_net(net) == expected


def reduce_to_terminals_from_net(net):
    # finish the reduction by hand: eliminate interior, merge parallels
    from mgt.reduction import _cleanup, star_mesh as sm

    while True:
        interior = sorted(net.nodes - set(net.terminals))
        if not interior:
            break
        net = _cleanup(sm(net, interior[0]))
    net = _cleanup(net)
    assert len(net.edges) == 1
    return net.edges[0][2]


def test_trace_records_rewrites():
    tri = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    net = reduce_to_terminals(tri, (0, 1))
    assert any("star-mesh" in step for step in net.trace)
