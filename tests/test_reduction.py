import itertools
import random
from fractions import Fraction as F

import pytest

from mgt import families
from mgt.circuit import context
from mgt.errors import BadVertexId
from mgt.graph import MetrizedGraph, build_graph
from mgt.reduction import (
    reduce_to_terminals,
    resistance_via_reduction,
    star_mesh,
    voltage_via_reduction,
)


def _net(g):
    # with every vertex a terminal nothing is eliminated: the graph's own network
    return reduce_to_terminals(g, tuple(range(g.vcount)))


def _matches_context(g):
    cx = context(g)
    for y, z in itertools.product(range(g.vcount), repeat=2):
        assert resistance_via_reduction(g, y, z) == cx.r(y, z)
    for x, p, q in itertools.product(range(g.vcount), repeat=3):
        assert voltage_via_reduction(g, x, p, q) == cx.voltage(x, p, q)


def test_star_mesh_n2_is_series():
    chain = _net(families.path(F(3, 2), F(5, 2)))
    star_mesh(chain, 1)
    assert chain == {0: {2: F(1, 4)}, 2: {0: F(1, 4)}}


def test_star_mesh_formula():
    # four legs from a center: new edge lengths L_i L_j sum(1/L_k)
    g = build_graph(5, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 4)])
    net = _net(g)
    star_mesh(net, 0)
    inv = 1 + F(1, 2) + F(1, 3) + F(1, 4)
    assert 1 / net[1][2] == 1 * 2 * inv
    assert 1 / net[3][4] == 3 * 4 * inv
    assert all(len(legs) == 3 for legs in net.values())  # six edges, no loops


def test_reduce_triangle_to_y():
    tri = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    for x, p, q in itertools.permutations(range(3)):
        assert voltage_via_reduction(tri, x, p, q) == F(1, 3)


def test_reduce_tree_two_terminals():
    tree = build_graph(5, [(0, 1, 1), (1, 2, 2), (1, 3, 4), (3, 4, 8)])
    assert resistance_via_reduction(tree, 0, 4) == 13
    assert resistance_via_reduction(tree, 2, 4) == 14


def test_reduce_k4():
    k4 = families.complete(4, 6)
    assert resistance_via_reduction(k4, 0, 1) == F(1, 2)


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
    net = _net(g)
    # after each single star-mesh step, finishing the reduction by hand, in
    # id order, still gives the same two-terminal resistance
    for node in (4, 3, 2):
        star_mesh(net, node)
        rest = {v: dict(legs) for v, legs in net.items()}
        for v in sorted(set(rest) - {0, 1}):
            star_mesh(rest, v)
        assert 1 / rest[0][1] == expected


def test_reduced_triangle_missing_edges():
    # on a path the reduced triangle keeps only the edges along the path
    g = families.path(F(1, 2), 3, F(2, 7), 5)
    net = reduce_to_terminals(g, (1, 3, 4))
    assert 1 not in net[4]
    _matches_context(g)


def test_parallel_edges_and_loops():
    # parallel edges and loops at terminal 0 and at interior vertex 2
    g = build_graph(4, [(0, 1, 1), (0, 1, 2), (0, 0, 7), (1, 2, 1), (2, 2, 5), (2, 3, 2),
                        (3, 2, 3), (3, 0, 1)])
    net = reduce_to_terminals(g, (0, 1))
    assert list(net) == [0, 1] and 1 / net[0][1] == context(g).r(0, 1)
    assert _net(g)[0] == {1: F(3, 2), 3: F(1)}
    _matches_context(g)


def test_a_bad_vertex_id_raises_before_any_shortcut():
    # x == y and x == p used to return 0 before the ids were checked
    k4 = families.complete(4)
    for call in (lambda: resistance_via_reduction(k4, 9, 9), lambda: voltage_via_reduction(k4, 9, 9, 1),
                 lambda: voltage_via_reduction(k4, 0, 1, 9), lambda: reduce_to_terminals(k4, (0, -1))):
        with pytest.raises(BadVertexId):
            call()


def test_the_route_reads_no_green_integer(monkeypatch):
    import mgt.circuit

    g = families.complete(5, F(2, 3))
    cx = context(g)
    kernel = ([cx.r(0, y) for y in range(5)], [cx.voltage(x, 1, 2) for x in range(5)])

    def refuse(*args):
        raise AssertionError("the reduction route factorized a Laplacian")

    monkeypatch.setattr(mgt.circuit, "green_numden", refuse)
    fresh = MetrizedGraph(g.vcount, g.edges)  # no context, no network yet
    assert ([resistance_via_reduction(fresh, 0, y) for y in range(5)],
            [voltage_via_reduction(fresh, x, 1, 2) for x in range(5)]) == kernel


def test_a_returned_network_is_the_callers_own():
    g = families.complete(4, F(1, 2))
    net = reduce_to_terminals(g, (0, 1, 2, 3))
    expected = reduce_to_terminals(g, (0, 1))
    net[0][1] += 1
    net[2].clear()
    del net[3]
    assert reduce_to_terminals(g, (0, 1)) == expected
    assert resistance_via_reduction(g, 0, 1) == context(g).r(0, 1)

