"""The graph operations of mgt.ops: each tau formula as rows of one closure table, each refusal
as a row of one refusal table, and the builders' graphs, lengths, ids and size limits."""

import ast
import inspect
import random
from collections import namedtuple
from fractions import Fraction as F
from itertools import product

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
from oracles import corpus_graphs, two_step_immersion


_K4 = families.complete(4)
_SEGMENT = families.segment(1)
_CIRCLE = families.circle(F(2, 5), F(3, 5))
_HALVES = families.circle(F(1, 2), F(1, 2))
_DIAMOND = families.diamond(F(1, 5))
_THREE_ARCS = families.circle(F(1, 2), F(1, 3), F(1, 6))
_MIXED_MARKS = [(_THREE_ARCS, 0, 1), (_THREE_ARCS, 1, 2)]
_SEGMENTS_2 = [(families.segment(2), 0, 1)] * 6
_NORMAL_SEGMENTS_2 = [(normalize(beta), p, q) for beta, p, q in _SEGMENTS_2]


def _drawn(seed, sizes):
    """Random connected graphs drawn in turn from random.Random(seed), one of each (vertices, edges)."""
    rng = random.Random(seed)
    return [families.random_connected(rng, *size) for size in sizes]


def _drawn_pairs():
    """Six seed-83 pairs of a 5-vertex and a 4-vertex graph, those with two vertices in each part."""
    drawn = _drawn(83, [(5, 7), (4, 6)] * 6)
    return [(g1, g2) for g1, g2 in zip(drawn[::2], drawn[1::2]) if g1.vcount >= 2 and g2.vcount >= 2]


# Each row of _CLOSURES is (id, inputs, build, formula, tau, size, same_as). ``inputs`` lists the
# row's inputs, or is a function that draws them when the row runs; ``build(x)`` makes the OpResult
# of input x, which must report ``formula`` and predict the tau of its graph. Where a row gives them,
# ``tau`` is the prediction that the paper's closed form gives, ``size`` the result's (vertices,
# edges) and ``same_as`` the graphs of other constructions that the result's graph must equal; each
# is a value, or a function of x.
Closure = namedtuple("Closure", "id inputs build formula tau size same_as", defaults=(None, None, None))

_CLOSURES = [
    Closure("delete-edge-circle", [_CIRCLE], lambda g: delete_edge(g, 0), "edge-deletion",
            tau=F(3, 5) / 4, size=(2, 1)),
    Closure("delete-edge-diamond-middle", [families.diamond(1)], lambda g: delete_edge(g, 4), "edge-deletion",
            tau=F(4, 12)),  # a four-cycle
    Closure("delete-edge-k4", range(6), lambda i: delete_edge(_K4, i), "edge-deletion"),
    Closure("contract-edge-circle-arc", [_CIRCLE], lambda g: contract_edge(g, 0), "edge-contraction",
            tau=F(3, 5) / 12, size=(1, 1)),
    Closure("contract-edge-k4", [_K4], lambda g: contract_edge(g, 2), "edge-contraction"),
    Closure("contract-bridge-path", [families.path(1, 2, 4)], lambda tree: contract_edge(tree, 1),
            "bridge-contraction", tau=lambda tree: tau_of(tree) - F(2, 4)),
    Closure("contract-loop", [build_graph(2, [(0, 1, 1), (0, 1, 1), (1, 1, F(1, 2))])],
            lambda g: contract_edge(g, 2), "loop-contraction"),
    Closure("identify-banana-ends", [families.banana(F(1, 4), F(1, 4), F(1, 2))],
            lambda g: identify_points(g, 0, 1), "point-identification",
            tau=lambda g: total_length(g) / 12, size=(1, 3)),  # a wedge of three circles
    Closure("identify-segment-ends", [families.segment(F(5, 3))], lambda g: identify_points(g, 0, 1),
            "point-identification", tau=F(5, 3) / 12),  # a circle
    Closure("identify-random", lambda: [g for g in _drawn(79, [(6, 9)] * 8) if g.vcount >= 2],
            lambda g: identify_points(g, 0, g.vcount - 1), "point-identification"),
    Closure("add-edge-segment", [_SEGMENT], lambda g: add_edge(g, 0, 1, 1), "edge-addition",
            tau=F(2, 12)),  # a circle of length 2
    Closure("add-edge-circle", [_HALVES], lambda g: add_edge(g, 0, 1, F(1, 3)), "edge-addition"),  # a theta
    Closure("add-edge-banana", [families.equal_banana(3, F(3, 4))], lambda g: add_edge(g, 0, 1, F(1, 4)),
            "edge-addition", tau=F(4 * 4 - 2 * 4 + 4, 12 * 16)),  # the equal 4-banana of length 1
    Closure("add-edge-loop", [_SEGMENT], lambda g: add_edge(g, 0, 0, F(1, 2)), "edge-addition",
            tau=F(1, 4) + F(1, 24)),
    Closure("union-one-point-circles", [(families.circle(F(1)), families.circle(F(1)))],
            lambda gs: union_one_point(gs[0], 0, gs[1], 0), "wedge-additivity", tau=F(1, 6)),
    Closure("union-one-point-circle-segment", [(families.circle(F(1)), families.segment(F(1, 2)))],
            lambda gs: union_one_point(gs[0], 0, gs[1], 1), "wedge-additivity", tau=F(1, 12) + F(1, 8)),
    Closure("union-two-points-segments", [(families.segment(F(2, 5)), families.segment(F(3, 5)))],
            lambda gs: union_two_points(*gs, (0, 1), (0, 1)), "two-point-union", tau=F(1, 12)),  # a circle
    Closure("union-two-points-random", _drawn_pairs,
            lambda gs: union_two_points(*gs, (0, gs[0].vcount - 1), (0, gs[1].vcount - 1)), "two-point-union"),
    Closure("da-n-segment", (1, 2, 3, 5), lambda n: da_n(_SEGMENT, n), "parallel-split",
            tau=lambda n: F(1, 4 * n * n) + F(1, 12) * F(n - 1, n) ** 2, size=lambda n: (2, n)),  # a banana
    Closure("da-n-diamond", (1, 3), lambda n: da_n(_DIAMOND, n), "parallel-split", size=lambda n: (4, 5 * n),
            same_as=lambda n: [build_graph(4, [(a, b, ln / n) for a, b, ln in _DIAMOND.edges for _ in range(n)])]),
    Closure("subdivide-corpus", lambda: list(product(corpus_graphs(48), (1, 2, 3))), lambda gm: subdivide(*gm),
            "subdivision-invariance", same_as=lambda gm: [subdivide_uniform(*gm)]),
    Closure("immerse-banana", [(normalize(_DIAMOND), n) for n in (2, 3)],
            lambda gn: immerse(gn[0], [(families.equal_banana(gn[1]), 0, 1)] * gn[0].ecount), "edge-immersion",
            same_as=lambda gn: [da_n(*gn).graph]),
    Closure("immerse-segments", [normalize(_K4)], lambda g: immerse(g, [(_SEGMENT, 0, 1)] * 6), "edge-immersion",
            same_as=lambda g: [g]),
    # an unnormalized host and marked graph give the immersion of their normalized forms
    Closure("immerse-unnormalized", [families.complete(4, 2)], lambda host: immerse(host, _SEGMENTS_2),
            "edge-immersion", tau=lambda host: immerse(normalize(host), _NORMAL_SEGMENTS_2).predicted_tau,
            same_as=lambda host: [immerse(normalize(host), _NORMAL_SEGMENTS_2).graph,
                                  two_step_immersion(normalize(host), _NORMAL_SEGMENTS_2)]),
    Closure("immerse-mixed", [normalize(_HALVES)], lambda g: immerse(g, _MIXED_MARKS), "edge-immersion",
            same_as=lambda g: [two_step_immersion(g, _MIXED_MARKS)]),
    Closure("c-tower-one-step", [_HALVES], lambda c: c_tower(c, 0, 1, 1), "two-point-tower",
            same_as=lambda c: [normalize(union_two_points(c, c, (0, 1), (0, 1)).graph)]),
    # an unnormalized input gives the tower of its normalized form
    Closure("c-tower-circle", [_HALVES, scale(_HALVES, F(7, 3))], lambda c: c_tower(c, 0, 1, 2), "two-point-tower",
            tau=F(13, 192), same_as=lambda c: [c_tower(_HALVES, 0, 1, 2).graph]),
    Closure("c-tower-random", lambda: [normalize(g) for g in _drawn(89, [(5, 7)]) if g.vcount >= 2],
            lambda g: c_tower(g, 0, g.vcount - 1, 2), "two-point-tower"),
]


def _column(value, x):
    """A column's value for input x: the value itself, or what a function of x returns."""
    return value(x) if callable(value) else value


@pytest.mark.parametrize("row", _CLOSURES, ids=lambda row: row.id)
def test_op_closure(row):
    results = 0
    for x in row.inputs() if callable(row.inputs) else row.inputs:
        result = row.build(x)
        assert (result.formula_id, result.predicted_tau) == (row.formula, tau_of(result.graph))
        if row.tau is not None:
            assert result.predicted_tau == _column(row.tau, x)
        if row.size is not None:
            assert (result.graph.vcount, result.graph.ecount) == _column(row.size, x)
        for other in _column(row.same_as, x) or ():
            assert result.graph == other
        results += 1
    assert results  # a row whose draws all fall short of two vertices would check nothing


def test_closure_table_names_every_formula_of_ops():
    # each formula id that mgt.ops hands to an OpResult has a row, and each row's id is one of them
    import mgt.ops

    calls = [node for node in ast.walk(ast.parse(inspect.getsource(mgt.ops)))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "OpResult"]
    assert {row.formula for row in _CLOSURES} == {call.args[1].value for call in calls}


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


def test_union_one_point_apq_additive():
    c1 = families.circle(F(1, 2), F(1, 2))
    seg = families.segment(F(2, 3))
    wedge = union_one_point(c1, 1, seg, 0).graph
    # p = 0 in the circle part, q = the segment's far end (relabeled to 2)
    assert apq_identity(wedge, 0, 2) == apq_identity(c1, 0, 1) + 0


def test_da_n_compose_with_subdivision():
    g = families.theta(F(1, 2), F(1, 3), F(1, 6))
    for m, n in ((2, 2), (3, 2), (2, 3)):
        built = da_n(subdivide_uniform(g, m), n)
        predicted = (
            tau_of(g) / n**2
            + total_length(g) / 12 * F(n - 1, n) ** 2
            + F(n - 1, 6 * m * n**2) * parallel_sum(g)
        )
        assert tau_of(built.graph) == predicted


@pytest.mark.parametrize("op, args, error, message", [
    (delete_edge, (families.path(1, 1), 0), BridgeDeletion, "deleting edge 0 disconnects the graph"),
    (identify_points, (families.segment(F(5, 3)), 1, 1), SamePoint, "identify needs two distinct vertices"),
    (add_edge, (_SEGMENT, 0, 1, 0), NonPositiveLength, "new edge length must be positive"),
    # one distinct marking is checked once, yet each refusal of immerse keeps its class and text
    (immerse, (_K4, [(_SEGMENT, 0, 1)] * 5), MgtError, "need one marked graph per edge"),
    (immerse, (_K4, [(_SEGMENT, 0, 1)] * 5 + [(MetrizedGraph(1, ()), 0, 0)]), EmptyGraph,
     "a graph with no edges cannot be normalized"),  # every marked graph is normalized first
    (immerse, (_K4, [(_SEGMENT, 0, 1)] * 5 + [(_SEGMENT, 1, 1)]), SamePoint, "marked points must be distinct"),
    (immerse, (_K4, [(_SEGMENT, 0, 1)] * 5 + [(_SEGMENT, 0, 2)]), BadVertexId, "vertex 2 out of range 0..1"),
    (immerse, (_K4, [(_SEGMENT, 0, 1)] * 5 + [(_SEGMENT, 0.0, 1)]), BadVertexId, "vertex 0.0 out of range 0..1"),
    (immerse, (_K4, [(families.path(*[1] * 99), 0, 99)] * 6), TooLarge,
     f"an immersion exceeds the limit of {MAX_VERTICES} vertices and {MAX_EDGES} edges"),
    (immerse, (_K4, [(families.path(*[1] * 99), 0, 99)] * 5 + [(_SEGMENT, 0, 3)]), BadVertexId,
     "vertex 3 out of range 0..1"),  # the marks before the size
], ids=["delete-bridge", "identify-same-point", "add-edge-zero-length", "immerse-count", "immerse-empty",
        "immerse-same-point", "immerse-out-of-range", "immerse-float-mark", "immerse-over-limit",
        "immerse-mark-before-size"])
def test_op_refusals(op, args, error, message):
    with pytest.raises(error) as info:
        op(*args)
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
