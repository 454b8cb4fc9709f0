import copy
import pickle
import random
from fractions import Fraction as F

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgt.errors import (
    BadM,
    BadPoint,
    BadVertexId,
    DisconnectedGraph,
    EmptyGraph,
    NonPositiveLength,
    NonPositiveScale,
)
from mgt.graph import (
    Edge,
    MetrizedGraph,
    bridges,
    build_graph,
    genus,
    insert_point,
    insert_points,
    normalize,
    normalize_point,
    scale,
    subdivide_uniform,
    total_length,
)
from mgt import families
from mgt.circuit import context, resistance, voltage
from mgt.tau import apq, canonical_measure, tau_of


def test_build_single_edge():
    g = build_graph(2, [(0, 1, 1)])
    assert g.vcount == 2 and g.ecount == 1
    assert total_length(g) == 1


def test_build_two_banana():
    g = build_graph(2, [(0, 1, F(1, 2)), (0, 1, F(1, 2))])
    assert total_length(g) == 1
    assert genus(g) == 1


def test_build_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        build_graph(3, [(0, 1, 1), (2, 2, 1)])


@st.composite
def _vertex_count_and_ends(draw):
    """v in 1..12 and up to 20 endpoint pairs: loops, parallel edges, isolated vertices."""
    vcount = draw(st.integers(1, 12))
    vertex = st.integers(0, vcount - 1)
    return vcount, draw(st.lists(st.tuples(vertex, vertex), max_size=20))


@given(_vertex_count_and_ends())
@example((12, []))  # v > e + 1: rejected before any union-find
@example((6, [(0, 1), (1, 2), (2, 2), (3, 4)]))  # v > e + 1 with a loop
@example((5, [(0, 1), (1, 2), (2, 3), (3, 4)]))  # a path: v = e + 1, connected
@example((5, [(0, 1), (1, 0), (2, 3), (3, 4)]))  # v = e + 1, two components
@example((4, [(0, 1), (2, 3), (0, 1), (2, 2), (3, 2)]))  # two components, loop, parallels
@example((4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (3, 3)]))  # connected with loops
@settings(max_examples=400, deadline=None)
def test_connectivity_matches_bfs(case):
    vcount, ends = case
    edges = tuple(Edge(a, b, F(1)) for a, b in ends)
    reference = nx.MultiGraph(ends)
    reference.add_nodes_from(range(vcount))
    if nx.number_connected_components(reference) > 1:
        with pytest.raises(DisconnectedGraph):
            MetrizedGraph(vcount, edges)
    else:
        assert MetrizedGraph(vcount, edges).edges == edges


def test_build_bad_inputs():
    with pytest.raises(NonPositiveLength):
        build_graph(2, [(0, 1, 0)])
    with pytest.raises(NonPositiveLength):
        build_graph(2, [(0, 1, F(-1, 3))])
    with pytest.raises(BadVertexId):
        build_graph(2, [(0, 2, 1)])


@pytest.mark.parametrize("vcount, edges, error, message", [
    (5, [(0, 1, 1), (0, 7, 1)], BadVertexId, "edge 1 endpoint out of range"),  # v > e + 1
    (4, [(0, 1, 1), (2, 3, 1), (2, 9, 1)], BadVertexId, "edge 2 endpoint out of range"),
    (5, [(0, 1, 1), (1, 1, 0)], NonPositiveLength, "edge 1 has non-positive length 0"),
    (4, [(0, 1, 1), (2, 3, 1), (3, 3, F(-1, 2))], NonPositiveLength,
     "edge 2 has non-positive length -1/2"),
    (2, [(0, 1, 1), (1, 0, 0)], NonPositiveLength,  # checked after the ends are joined
     "edge 1 has non-positive length 0"),
    (10**12, [(0, 1, 1)], DisconnectedGraph, f"graph is not connected: {10**12} vertices, 1 edges"),
    (4, [(0, 1, 1), (2, 3, 1), (0, 1, 1)], DisconnectedGraph, "graph is not connected"),
    (2, [(0, 1.0, 1)], BadVertexId, "edge 0 endpoint out of range"),  # ended in TypeError
    (1, [(0, 0.0, 1)], BadVertexId, "edge 0 endpoint out of range"),  # was accepted
    (2, [("0", 1, 1)], BadVertexId, "edge 0 endpoint out of range"),
], ids=["endpoint-v>e+1", "endpoint-v<=e+1", "length-v>e+1", "length-v<=e+1", "length-after-joined",
        "huge-header", "two-parts", "float-endpoint", "float-loop", "str-endpoint"])
def test_a_bad_edge_wins_over_a_disconnected_graph(vcount, edges, error, message):
    # the per-edge errors come first in edge order, whether or not the graph is
    # connected; a header with more vertices than edges + 1 allocates nothing per vertex
    edges = tuple(Edge(a, b, F(length)) for a, b, length in edges)
    with pytest.raises(error) as info:
        MetrizedGraph(vcount, edges)
    assert (type(info.value), str(info.value)) == (error, message)


def test_graph_is_frozen_and_equal_by_value():
    edges = [(0, 1, 1), (1, 2, F(1, 2)), (2, 0, 2), (2, 3, 1)]
    g = build_graph(4, edges)
    with pytest.raises(AttributeError):
        g.vcount = 5
    with pytest.raises(AttributeError):
        del g.edges
    with pytest.raises(AttributeError):
        g.label = "new"
    assert g.vcount == 4 and g.ecount == 4
    twin = build_graph(4, edges)
    assert twin is not g and twin == g and hash(twin) == hash(g)
    assert g != build_graph(4, edges[:3] + [(2, 3, 2)])
    assert g != (g.vcount, g.edges)  # a graph equals graphs only
    assert repr(g).startswith("MetrizedGraph(vcount=4, edges=(Edge(a=0, b=1, length=")
    assert pickle.loads(pickle.dumps(g)) == g
    # values derived from the graph alone are cached on it, past the freeze
    assert normalize(g) is normalize(g)
    assert bridges(g) == [3] and bridges(g) is not bridges(g)
    assert vars(g)["_bridges"] == (3,)
    assert normalize(twin) is not normalize(g) and normalize(twin) == normalize(g)
    # a pickle or copy of a graph with cached values (its solver context included)
    # rebuilds the graph from its vertex count and edges, and carries none of them
    tau = tau_of(g)
    apq(g, 0, 2)
    for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert twin is not g and twin == g and set(vars(twin)) == {"vcount", "edges"}
        assert tau_of(twin) == tau


def test_total_length_examples():
    assert total_length(families.complete(4, 1)) == 1
    assert total_length(families.diamond(F(2, 7))) == F(10, 7)


def test_genus_examples():
    assert genus(families.random_tree(random.Random(0), 5)) == 0
    assert genus(families.circle(F(1))) == 1
    for v in range(2, 8):
        assert genus(families.complete(v)) == (v - 1) * (v - 2) // 2


def test_scale():
    circ = families.circle(F(1))
    assert total_length(scale(circ, 3)) == 3
    g = families.diamond(F(3, 5))
    assert scale(g, 1) == g
    n = scale(g, 1 / total_length(g))
    assert total_length(n) == 1
    with pytest.raises(NonPositiveScale):
        scale(g, 0)


def test_insert_point_midpoint():
    seg = families.segment(1)
    g2, w = insert_point(seg, (0, F(1, 2)))
    assert g2.vcount == 3 and g2.ecount == 2
    assert {e.length for e in g2.edges} == {F(1, 2)}
    assert w == 2


def test_insert_point_boundary_is_identity():
    seg = families.segment(1)
    g2, w = insert_point(seg, (0, F(0)))
    assert g2 == seg and w == 0
    g2, w = insert_point(seg, (0, F(1)))
    assert g2 == seg and w == 1


def test_insert_point_on_self_loop():
    circ = families.circle(F(1))
    g2, w = insert_point(circ, (0, F(1, 3)))
    assert g2.vcount == 2 and g2.ecount == 2
    assert sorted(e.length for e in g2.edges) == [F(1, 3), F(2, 3)]


def test_insert_points_same_edge():
    seg = families.segment(1)
    g2, ids = insert_points(seg, [(0, F(3, 4)), (0, F(1, 4)), 0])
    assert g2.vcount == 4
    assert ids[2] == 0
    assert sorted(e.length for e in g2.edges) == [F(1, 4), F(1, 4), F(1, 2)]
    # offsets measured from endpoint a: ids track their points
    assert {ids[0], ids[1]} == {2, 3}


def test_subdivide_uniform():
    seg = families.segment(1)
    g3 = subdivide_uniform(seg, 3)
    assert g3.ecount == 3 and g3.vcount == 4
    assert {e.length for e in g3.edges} == {F(1, 3)}
    assert subdivide_uniform(seg, 1) == seg
    circ = families.circle(F(1))
    g2 = subdivide_uniform(circ, 2)
    assert g2.vcount == 2 and g2.ecount == 2
    with pytest.raises(BadM):
        subdivide_uniform(seg, 0)


def test_bridges_examples():
    tree = families.path(1, 2, 3)
    assert bridges(tree) == [0, 1, 2]
    assert bridges(families.circle(1, 2)) == []
    dumbbell = build_graph(
        6,
        [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)],
    )
    assert bridges(dumbbell) == [3]


def test_handshake():
    # the canonical measure's vertex masses are 1 - valence/2, and valences sum to 2e
    rng = random.Random(5)
    for _ in range(20):
        g = families.random_connected(rng, 7, 12)
        masses = canonical_measure(g).vertex_masses
        assert sum(mass for _, mass in masses) == g.vcount - g.ecount


def test_insert_preserves_genus_and_length():
    rng = random.Random(9)
    for _ in range(15):
        g = families.random_connected(rng, 6, 9)
        e = rng.randrange(g.ecount)
        g2, _ = insert_point(g, (e, g.edges[e].length / 3))
        assert genus(g2) == genus(g)
        assert total_length(g2) == total_length(g)


def test_subdivide_counts_property():
    rng = random.Random(13)
    for m in (2, 3, 4):
        g = families.random_connected(rng, 5, 8)
        gm = subdivide_uniform(g, m)
        assert gm.ecount == m * g.ecount
        assert gm.vcount == g.vcount + (m - 1) * g.ecount
        assert genus(gm) == genus(g)
        assert total_length(gm) == total_length(g)


@given(st.fractions(min_value=F(1, 50), max_value=50))
@settings(max_examples=40, deadline=None)
def test_scale_total_length_exact(c):
    g = families.diamond(F(2, 3))
    assert total_length(scale(g, c)) == c * total_length(g)


def test_normalize_point_validation():
    g = families.segment(1)
    with pytest.raises(BadPoint):
        normalize_point(g, 5)
    with pytest.raises(BadPoint):
        normalize_point(g, (0, F(3, 2)))
    with pytest.raises(BadPoint):
        normalize_point(g, (1, F(1, 2)))


@pytest.mark.parametrize("x", [2.0, F(1), "0", (0.5, F(0)), (F(0), F(1, 2)), (1.0, 0),
                               (0, None), (0, "x"), (0, float("inf")), (0, F(1, 4), 1)])
def test_a_malformed_point_is_a_bad_point(x):
    # a float vertex or edge id, or an offset that is no number, used to escape the
    # exported resistance and voltage as a TypeError, ValueError or OverflowError
    g = families.circle(F(1, 2), F(1, 2))
    for read in (lambda: normalize_point(g, x), lambda: resistance(g, x, 0),
                 lambda: voltage(g, 0, x, 1)):
        with pytest.raises(BadPoint):
            read()


def test_normalize_keeps_a_unit_length_graph_and_its_context():
    g = families.circle(F(1, 2), F(1, 2))
    ctx = context(g)
    assert normalize(g) is g and context(normalize(g)) is ctx
    assert "_normalized" not in vars(g)  # no entry that points back at the graph
    longer = scale(g, 3)
    assert normalize(longer) == g and normalize(normalize(longer)) is normalize(longer)
    with pytest.raises(EmptyGraph):
        normalize(build_graph(1, []))
