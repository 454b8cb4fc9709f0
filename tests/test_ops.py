import random
from fractions import Fraction as F

import pytest

from mgt import families
from mgt.errors import (BadM, BadN, BadVertexId, BridgeDeletion, EmptyGraph, MgtError, NonPositiveLength,
                        SamePoint, TooLarge)
from mgt.graph import (MAX_EDGES, MAX_VERTICES, Edge, MetrizedGraph, bridges, build_graph,
                       delete_edge_graph, identify_points_graph, insert_point, normalize, scale,
                       subdivide_uniform, total_length)
from mgt.ops import (
    OpResult,
    add_edge,
    c_tower,
    contract_edge,
    da_n,
    delete_edge,
    identify_points,
    contract_bridges,
    immerse,
    parallel_sum,
    subdivide,
    union_one_point,
    union_two_points,
)
from mgt.suite import _with_length
from mgt.tau import apq_identity, tau_of
from oracles import two_step_immersion


def closure(result):
    assert result.predicted_tau == tau_of(result.graph)
    return result


def test_delete_edge_circle():
    circ = families.circle(F(2, 5), F(3, 5))
    result = closure(delete_edge(circ, 0))
    assert result.graph.ecount == 1
    assert tau_of(result.graph) == F(3, 5) / 4


def test_delete_middle_of_diamond():
    dia = families.diamond(1)
    result = closure(delete_edge(dia, 4))
    assert tau_of(result.graph) == F(4, 12)  # a four-cycle


def test_delete_bridge_rejected():
    with pytest.raises(BridgeDeletion):
        delete_edge(families.path(1, 1), 0)


def test_delete_k4_edges():
    k4 = families.complete(4)
    for i in range(6):
        closure(delete_edge(k4, i))


def test_contract_circle_arc():
    circ = families.circle(F(2, 5), F(3, 5))
    result = closure(contract_edge(circ, 0))
    assert result.graph.vcount == 1 and result.graph.ecount == 1
    assert tau_of(result.graph) == F(3, 5) / 12


def test_contract_tree_edge_drops_quarter():
    tree = families.path(1, 2, 4)
    result = contract_edge(tree, 1)
    assert result.formula_id == "bridge-contraction"
    assert result.predicted_tau == tau_of(tree) - F(2, 4)
    closure(result)


def test_contract_self_loop():
    g = build_graph(2, [(0, 1, 1), (0, 1, 1), (1, 1, F(1, 2))])
    result = contract_edge(g, 2)
    assert result.formula_id == "loop-contraction"
    closure(result)


def test_contract_k4_edge():
    closure(contract_edge(families.complete(4), 2))


def test_contraction_predicts_tau_from_deleted_a(monkeypatch):
    # the edge-contraction formula reads A of g - e: a wrong value must show in the prediction
    import mgt.ops

    g = families.complete(4, F(1, 2))
    honest = contract_edge(g, 0)
    assert honest.predicted_tau == tau_of(honest.graph)
    original = mgt.ops.deleted_apq
    monkeypatch.setattr(mgt.ops, "deleted_apq", lambda *args: original(*args) + F(1, 10**9))
    contracted = contract_edge(g, 0)
    assert contracted.predicted_tau != tau_of(contracted.graph)


def test_contract_edge_builds_what_identify_then_delete_builds():
    # a non-loop contraction builds its graph once, with the ids and edge order of
    # gluing the edge's ends and then deleting the loop that the glue made of it
    from mgt.suite import GraphGenerator

    contracted = 0
    for _, g in GraphGenerator(1).graphs(200):
        for i, (a, b, _) in enumerate(g.edges):
            if a != b:
                assert contract_edge(g, i).graph == delete_edge_graph(identify_points_graph(g, a, b), i)[0]
                contracted += 1
    assert contracted > 1000


def test_contract_bridges_lowers_tau_by_a_quarter_of_their_length():
    k4 = families.complete(4)
    assert contract_bridges(k4) is k4
    assert contract_bridges(families.path(1, 2, 4)) == build_graph(1, [])  # a tree ends as a point
    g = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 0, F(1, 2)), (2, 3, F(1, 3)), (3, 3, F(1, 5))])
    core = contract_bridges(g)
    assert (core.vcount, core.ecount) == (3, 4)
    assert tau_of(g) == tau_of(core) + F(1, 3) / 4


def test_identify_banana_becomes_wedge():
    g = families.banana(F(1, 4), F(1, 4), F(1, 2))
    result = closure(identify_points(g, 0, 1))
    assert result.graph.vcount == 1
    assert tau_of(result.graph) == total_length(g) / 12


def test_identify_segment_endpoints_is_circle():
    seg = families.segment(F(5, 3))
    result = closure(identify_points(seg, 0, 1))
    assert tau_of(result.graph) == F(5, 3) / 12
    with pytest.raises(SamePoint):
        identify_points(seg, 1, 1)


def test_identify_random():
    rng = random.Random(79)
    for _ in range(8):
        g = families.random_connected(rng, 6, 9)
        if g.vcount < 2:
            continue
        closure(identify_points(g, 0, g.vcount - 1))


def test_add_edge_examples():
    seg = families.segment(1)
    result = closure(add_edge(seg, 0, 1, 1))
    assert tau_of(result.graph) == F(2, 12)  # a circle of length 2
    circ = families.circle(F(1, 2), F(1, 2))
    closure(add_edge(circ, 0, 1, F(1, 3)))  # theta graph
    banana = families.equal_banana(3, F(3, 4))
    grown = closure(add_edge(banana, 0, 1, F(1, 4)))
    assert tau_of(grown.graph) == F(4 * 4 - 2 * 4 + 4, 12 * 16)  # equal 4-banana, length 1
    with pytest.raises(NonPositiveLength):
        add_edge(seg, 0, 1, 0)


def test_add_self_loop():
    seg = families.segment(1)
    result = closure(add_edge(seg, 0, 0, F(1, 2)))
    assert tau_of(result.graph) == F(1, 4) + F(1, 24)


def test_union_one_point():
    c1 = families.circle(F(1))
    c2 = families.circle(F(1))
    result = closure(union_one_point(c1, 0, c2, 0))
    assert tau_of(result.graph) == F(1, 6)
    mixed = closure(union_one_point(families.circle(F(1)), 0, families.segment(F(1, 2)), 1))
    assert mixed.predicted_tau == F(1, 12) + F(1, 8)


def test_union_one_point_apq_additive():
    c1 = families.circle(F(1, 2), F(1, 2))
    seg = families.segment(F(2, 3))
    wedge = union_one_point(c1, 1, seg, 0).graph
    # p = 0 in the circle part, q = the segment's far end (relabeled to 2)
    assert apq_identity(wedge, 0, 2) == apq_identity(c1, 0, 1) + 0


def test_union_two_points_two_segments_make_circle():
    sa, sb = families.segment(F(2, 5)), families.segment(F(3, 5))
    result = closure(union_two_points(sa, sb, (0, 1), (0, 1)))
    assert tau_of(result.graph) == F(1, 12)


def test_union_two_points_random():
    rng = random.Random(83)
    for _ in range(6):
        g1 = families.random_connected(rng, 5, 7)
        g2 = families.random_connected(rng, 4, 6)
        if g1.vcount < 2 or g2.vcount < 2:
            continue
        closure(union_two_points(g1, g2, (0, g1.vcount - 1), (0, g2.vcount - 1)))


def test_da_n_segment_gives_banana():
    for n in (1, 2, 3, 5):
        seg = families.segment(1)
        result = closure(da_n(seg, n))
        assert result.graph.ecount == n
        assert tau_of(result.graph) == F(1, 4 * n * n) + F(1, 12) * F(n - 1, n) ** 2


def test_da_n_identity_and_counts():
    g = families.diamond(F(1, 5))
    assert da_n(g, 1).graph == g
    split = da_n(g, 3)
    assert split.graph.ecount == 15
    assert total_length(split.graph) == total_length(g)
    closure(split)


def test_da_n_compose_with_subdivision():
    g = families.theta(F(1, 2), F(1, 3), F(1, 6))
    from mgt.ops import parallel_sum

    for m, n in ((2, 2), (3, 2), (2, 3)):
        built = da_n(subdivide_uniform(g, m), n)
        predicted = (
            tau_of(g) / n**2
            + total_length(g) / 12 * F(n - 1, n) ** 2
            + F(n - 1, 6 * m * n**2) * parallel_sum(g)
        )
        assert tau_of(built.graph) == predicted


def test_subdivide_predicts_tau_unchanged_on_the_corpus():
    from mgt.suite import GraphGenerator

    for _, g in GraphGenerator(1).graphs(48):
        for m in (1, 2, 3):
            result = closure(subdivide(g, m))
            assert result.graph == subdivide_uniform(g, m)
            assert result.formula_id == "subdivision-invariance"


def test_immerse_banana_equals_da_n():
    g = normalize(families.diamond(F(1, 5)))
    for n in (2, 3):
        beta = families.equal_banana(n)
        via_immersion = immerse(g, [(beta, 0, 1)] * g.ecount)
        closure(via_immersion)
        assert via_immersion.graph == da_n(g, n).graph


def test_immerse_segments_change_nothing():
    g = normalize(families.complete(4))
    result = closure(immerse(g, [(families.segment(1), 0, 1)] * g.ecount))
    assert result.graph == g


def test_immerse_requires_normalized():
    # an unnormalized host and marked graph give the immersion of their normalized forms
    host, segment = families.complete(4, 2), families.segment(2)
    result = closure(immerse(host, [(segment, 0, 1)] * 6))
    plain = immerse(normalize(host), [(normalize(segment), 0, 1)] * 6)
    assert (result.graph, result.formula_id) == (plain.graph, "edge-immersion")
    assert result.predicted_tau == plain.predicted_tau
    assert result.graph == two_step_immersion(normalize(host), [(normalize(segment), 0, 1)] * 6)


def test_immerse_mixed_markings():
    g = normalize(families.circle(F(1, 2), F(1, 2)))
    beta = families.circle(F(1, 2), F(1, 3), F(1, 6))
    result = closure(immerse(g, [(beta, 0, 1), (beta, 1, 2)]))
    assert result.graph == two_step_immersion(g, [(beta, 0, 1), (beta, 1, 2)])
    assert total_length(result.graph) == 1


_K4 = families.complete(4)
_SEGMENT = families.segment(1)


@pytest.mark.parametrize("betas, error, message", [
    ([(_SEGMENT, 0, 1)] * 5, MgtError, "need one marked graph per edge"),
    ([(_SEGMENT, 0, 1)] * 5 + [(MetrizedGraph(1, ()), 0, 0)], EmptyGraph,
     "a graph with no edges cannot be normalized"),  # every marked graph is normalized first
    ([(_SEGMENT, 0, 1)] * 5 + [(_SEGMENT, 1, 1)], SamePoint, "marked points must be distinct"),
    ([(_SEGMENT, 0, 1)] * 5 + [(_SEGMENT, 0, 2)], BadVertexId, "vertex 2 out of range 0..1"),
    ([(_SEGMENT, 0, 1)] * 5 + [(_SEGMENT, 0.0, 1)], BadVertexId, "vertex 0.0 out of range 0..1"),
    ([(families.path(*[1] * 99), 0, 99)] * 6, TooLarge,
     f"an immersion exceeds the limit of {MAX_VERTICES} vertices and {MAX_EDGES} edges"),
    ([(families.path(*[1] * 99), 0, 99)] * 5 + [(_SEGMENT, 0, 3)], BadVertexId,
     "vertex 3 out of range 0..1"),  # the marks before the size
], ids=["count", "empty", "same-point", "out-of-range", "float-mark", "over-limit", "mark-before-size"])
def test_immerse_refusals(betas, error, message):
    # one distinct marking is checked once, yet each refusal keeps its class and text
    with pytest.raises(error) as info:
        immerse(_K4, betas)
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("count", [1.5, F(3, 2), True], ids=["float", "fraction", "bool"])
@pytest.mark.parametrize("make, error", [
    (lambda n: da_n(_K4, n), BadN),
    (lambda n: subdivide(_K4, n), BadM),
    (lambda n: c_tower(_K4, 0, 1, n), BadN),
], ids=["da_n", "subdivide", "c_tower"])
def test_counts_must_be_ints(make, error, count):
    # a fractional count used to end in TypeError, and True ran as 1
    with pytest.raises(error, match="must be an int"):
        make(count)


def test_lengths_match_fraction_arithmetic():
    from mgt.suite import GraphGenerator

    for _, g in GraphGenerator(1).graphs(40):
        for graph in (g, normalize(g)):
            lengths = [ln for _, _, ln in graph.edges]
            for c in (F(3, 7), 5, F(22, 4)):
                assert [ln for _, _, ln in scale(graph, c).edges] == [ln * F(c) for ln in lengths]
            total = sum(lengths)
            assert [ln for _, _, ln in normalize(graph).edges] == [ln * (1 / total) for ln in lengths]
            for n in (1, 2, 3):
                split = [ln for _, _, ln in da_n(graph, n).graph.edges]
                assert split == [ln / n for ln in lengths for _ in range(n)]
                pieces = [ln for _, _, ln in subdivide_uniform(graph, n).edges]
                assert pieces == [ln / n for ln in lengths for _ in range(n)]


def _first_cycle_edge(g):
    return next(i for i in range(g.ecount) if i not in bridges(g))


@pytest.mark.parametrize("build", [
    lambda g: build_graph(g.vcount, g.edges),
    lambda g: build_graph(g.vcount, [(a, b, str(ln) if i % 2 else float(ln.numerator))
                                     for i, (a, b, ln) in enumerate(g.edges)]),
    lambda g: scale(g, F(3, 7)),
    normalize,
    lambda g: subdivide_uniform(g, 3),
    lambda g: insert_point(g, (g.ecount - 1, g.edges[-1].length / 3))[0],
    lambda g: da_n(g, 2).graph,
    lambda g: delete_edge(g, _first_cycle_edge(g)).graph,
    lambda g: contract_edge(g, 0).graph,
    lambda g: contract_edge(add_edge(g, 1, 1, F(2, 9)).graph, g.ecount).graph,
    lambda g: add_edge(g, 0, g.vcount - 1, F(5, 3)).graph,
    lambda g: identify_points(g, 0, g.vcount - 1).graph,
    lambda g: union_one_point(g, 0, _K4, 2).graph,
    lambda g: union_two_points(g, _K4, (0, g.vcount - 1), (3, 1)).graph,
    lambda g: immerse(g, [[(_K4, 0, 1), (_SEGMENT, 1, 0)][i % 2] for i in range(g.ecount)]).graph,
    lambda g: c_tower(g, 0, g.vcount - 1, 2).graph,
    lambda g: _with_length(g, g.ecount // 2, F(7, 4)),
], ids=["build_graph", "build_graph-from-scalars", "scale", "normalize", "subdivide_uniform", "insert_point",
        "da_n", "delete_edge", "contract_edge", "contract_edge-loop", "add_edge", "identify_points",
        "union_one_point", "union_two_points", "immerse", "c_tower", "_with_length"])
def test_builders_return_exact_edge_triples(build):
    # the bulk builders make edges with tuple.__new__, which checks no arity, as
    # Edge(a, b, length) does; neither checks that the length is a Fraction. A
    # derived graph is built unchecked, so the checking constructor must accept it.
    from mgt.suite import GraphGenerator

    for _, g in GraphGenerator(1).graphs(10):
        h = build(g)
        for e in h.edges:
            assert type(e) is Edge and e == Edge(*e) and type(e.length) is F
        assert MetrizedGraph(h.vcount, h.edges) == h


def test_immerse_endpoint_swap_keeps_tau():
    g = normalize(families.theta(F(1, 2), F(1, 3), F(1, 6)))
    beta = families.circle(F(1, 2), F(1, 3), F(1, 6))
    base = immerse(g, [(beta, 0, 2)] * g.ecount)
    for flip in range(g.ecount):
        betas = [(beta, 2, 0) if i == flip else (beta, 0, 2) for i in range(g.ecount)]
        assert tau_of(immerse(g, betas).graph) == tau_of(base.graph)


def test_tower():
    circ = families.circle(F(1, 2), F(1, 2))
    n1 = c_tower(circ, 0, 1, 1)
    closure(n1)
    # one union step then normalization agrees
    direct = union_two_points(circ, circ, (0, 1), (0, 1)).graph
    assert n1.graph == normalize(direct)
    n2 = closure(c_tower(circ, 0, 1, 2))
    assert n2.predicted_tau == F(13, 192)
    rng = random.Random(89)
    g = normalize(families.random_connected(rng, 5, 7))
    if g.vcount >= 2:
        closure(c_tower(g, 0, g.vcount - 1, 2))
    # an unnormalized input gives the tower of its normalized form
    scaled = closure(c_tower(scale(circ, F(7, 3)), 0, 1, 2))
    assert (scaled.graph, scaled.predicted_tau) == (n2.graph, n2.predicted_tau)


def test_tower_matches_chained_unions():
    # the tower, built once, equals n two-point unions followed by normalize
    from mgt.suite import GraphGenerator

    for _, g in GraphGenerator(1).graphs(12):
        gn = normalize(g)
        p, q = 0, gn.vcount - 1
        if p == q:
            continue
        current = gn
        for n in (1, 2, 3):
            current = union_two_points(current, current, (p, q), (p, q)).graph
            built = c_tower(gn, p, q, n).graph
            reference = normalize(current)
            assert (built.vcount, built.edges) == (reference.vcount, reference.edges)


def test_op_renumbering_deterministic():
    g1 = families.path(1, 1)
    g2 = families.path(2, 2)
    u = union_two_points(g1, g2, (0, 2), (0, 2)).graph
    # g1 keeps 0,1,2; g2's vertex 1 becomes 3
    assert u.vcount == 4
    assert u.edges[2].a == 0 and u.edges[2].b == 3
    assert u.edges[3].a == 3 and u.edges[3].b == 2


def test_unread_prediction_runs_no_formula(monkeypatch):
    import mgt.ops

    calls = []

    def unavailable(g):
        calls.append(g)
        raise MgtError("no tau here")

    monkeypatch.setattr(mgt.ops, "tau_of", unavailable)
    result = delete_edge(families.complete(4, F(1, 6)), 0)
    assert calls == []  # building the result evaluated no formula
    with pytest.raises(MgtError, match="no tau here"):  # the formula's error reaches the reader
        result.predicted_tau
    assert len(calls) == 1


def test_op_result_is_frozen_and_evaluates_its_formula_once():
    calls = []

    def formula():
        calls.append(1)
        return F(1, 12)

    g = families.circle(1)
    result = OpResult(g, "test-formula", formula)
    assert result.predicted_tau == F(1, 12)
    assert result.predicted_tau == F(1, 12) and calls == [1]
    with pytest.raises(AttributeError):
        result.graph = families.circle(2)
    with pytest.raises(AttributeError):
        del result.formula_id
    assert result.graph is g
    # equality and hashing stay by identity: two results are never merged
    twin = OpResult(g, "test-formula", formula)
    assert twin != result and len({twin, result}) == 2
    assert repr(result) == f"OpResult(graph={g!r}, formula_id='test-formula')"


@pytest.mark.parametrize("edge_id", [-1, 4, 99])
def test_edge_id_outside_the_graph_is_rejected(edge_id):
    # a negative id used to index from the end and build a graph with repeated edges
    from mgt.errors import BadPoint
    from mgt.graph import delete_edge_graph

    g = families.circle(F(1, 2), F(1, 3), F(1, 6), F(1, 4))
    for make in (delete_edge_graph, delete_edge, contract_edge):
        with pytest.raises(BadPoint, match=f"edge {edge_id} out of range"):
            make(g, edge_id)


def test_size_limit_admits_the_largest_result_and_refuses_the_next():
    # each operation counts its result from its arguments: the largest admitted
    # argument builds a graph of exactly the counted size, one more is refused
    k4 = families.complete(4)  # 4 vertices, 6 edges
    m = (MAX_VERTICES - 4) // 6 + 1  # 4 + 6 (m - 1) vertices
    assert subdivide_uniform(k4, m).vcount == 4 + 6 * (m - 1) > MAX_VERTICES - 6
    with pytest.raises(TooLarge, match="exceeds the limit"):
        subdivide_uniform(k4, m + 1)
    n = MAX_EDGES // 6
    assert da_n(k4, n).graph.ecount == 6 * n > MAX_EDGES - 6
    with pytest.raises(TooLarge, match="exceeds the limit"):
        da_n(k4, n + 1)
    circ = normalize(families.circle(1, 2, 3))  # 2^n + 2 vertices after n doublings
    n = (MAX_VERTICES - 2).bit_length() - 1
    assert c_tower(circ, 0, 1, n).graph.vcount == 2**n + 2
    with pytest.raises(TooLarge, match="exceeds the limit"):
        c_tower(circ, 0, 1, n + 1)


def test_size_limit_lets_an_operation_keep_but_not_grow_an_input_count(monkeypatch):
    # an input over the limit was accepted as given: a parallel split keeps its
    # vertex count, while a subdivision or a tower grows it and is refused
    import mgt.graph

    monkeypatch.setattr(mgt.graph, "MAX_VERTICES", 3)
    k4 = normalize(families.complete(4))
    assert da_n(k4, 2).graph.vcount == 4
    with pytest.raises(TooLarge, match="exceeds the limit"):
        subdivide_uniform(k4, 2)
    with pytest.raises(TooLarge, match="exceeds the limit"):
        c_tower(k4, 0, 1, 1)
