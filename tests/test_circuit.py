import gc
import random
import sys
import threading
import time
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest

from mgt import families
from mgt.circuit import KirchhoffState, context, resistance, voltage
from mgt.errors import BadPoint, BadVertexId, BridgeDeletion
from mgt.graph import bridges, build_graph, normalize, total_length
from mgt.ops import OpResult, add_edge
from mgt.rational import INF
from mgt.tau import apq, deleted_apq, deleted_apq_of, lower_bound_suite, tau_of
from oracles import edge_profile, successive_length_steps
from test_linalg import _spy_on_factorizations
from test_oracles import agrees


def test_resistance_examples():
    assert resistance(families.segment(1), 0, 1) == 1
    # triangle: series 1+1 = 2 in parallel with 1
    tri = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert resistance(tri, 0, 1) == F(2, 3)
    # diamond: the middle edge carries no current between the far corners
    dia = families.diamond(1)
    assert resistance(dia, 0, 2) == 1


def test_resistance_at_interior_points():
    circ = families.circle(2, 2)
    x = (0, F(1))  # midpoint of one arc
    assert resistance(circ, x, 0) == F(3, 4)
    assert resistance(circ, x, x) == 0


def test_voltage_identities():
    dia = families.diamond(F(2, 3))
    for p in range(4):
        for q in range(4):
            assert voltage(dia, p, p, q) == 0
            assert voltage(dia, p, q, q) == resistance(dia, p, q)
    circ = families.circle(2, 2)
    assert voltage(circ, (0, F(1)), 0, 1) == F(1, 4)


def test_voltage_symmetry_and_positivity():
    rng = random.Random(21)
    for _ in range(10):
        g = families.random_connected(rng, 5, 8)
        cx = context(g)
        for _ in range(10):
            x, y, z = (rng.randrange(g.vcount) for _ in range(3))
            assert cx.voltage(x, y, z) == cx.voltage(x, z, y)
            assert cx.voltage(x, y, z) >= 0


def test_resistance_matrix_properties():
    rng = random.Random(6)
    g = families.random_connected(rng, 6, 10)
    mat = [[context(g).r(y, z) for z in range(g.vcount)] for y in range(g.vcount)]
    for y in range(g.vcount):
        assert mat[y][y] == 0
        for z in range(g.vcount):
            assert mat[y][z] == mat[z][y]
            assert mat[y][z] >= 0
            for w in range(g.vcount):
                assert mat[y][w] <= mat[y][z] + mat[z][w]


def test_edge_profile_circle():
    circ = families.circle(F(2, 3), F(5, 7))
    prof = edge_profile(circ, 0, 0)
    assert prof.res_deleted == F(5, 7)
    assert {prof.arm_a, prof.arm_b} == {F(0), F(5, 7)}
    assert prof.arm_base == 0


def test_edge_profile_k4():
    k4 = families.complete(4, 6)  # unit edges
    for i in range(6):
        prof = edge_profile(k4, i, k4.edges[i].a)
        assert prof.res_deleted == 1  # 2L/(v-2)
        assert prof.arm_a + prof.arm_b == prof.res_deleted


def test_edge_profile_bridge_convention():
    g = build_graph(
        6, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, F(1, 2)), (3, 4, 1), (4, 5, 1), (5, 3, 1)]
    )
    prof = edge_profile(g, 3, 0)  # base on the first-endpoint side
    assert prof.bridge and prof.res_deleted is INF
    assert prof.arm_a == 0 and prof.arm_b is INF
    assert prof.arm_base == resistance(g, 0, 2)
    prof = edge_profile(g, 3, 4)  # base on the other side
    assert prof.arm_a is INF and prof.arm_b == 0
    assert prof.arm_base == resistance(g, 4, 3)


def test_edge_profile_self_loop():
    g = build_graph(2, [(0, 1, 1), (1, 1, F(1, 2))])
    prof = edge_profile(g, 1, 0)
    assert prof.loop
    assert prof.res_deleted == 0 and prof.arm_a == 0 and prof.arm_b == 0
    assert prof.arm_base == 1


def test_parallel_consistency():
    # r(a,b) in the graph equals L R/(L+R) when the deletion stays connected
    rng = random.Random(23)
    for _ in range(15):
        g = families.random_connected(rng, 6, 10)
        cx = context(g)
        for prof in cx.edge_profiles(0):
            a, b, L = g.edges[prof.edge]
            if prof.bridge:
                assert cx.r(a, b) == L
            elif not prof.loop:
                R = prof.res_deleted
                assert cx.r(a, b) == L * R / (L + R)


def test_rayleigh_monotonicity():
    rng = random.Random(29)
    for _ in range(8):
        g = families.random_connected(rng, 5, 8)
        i = rng.randrange(g.ecount)
        bigger = build_graph(
            g.vcount,
            [
                (a, b, L + (F(1, 2) if j == i else 0))
                for j, (a, b, L) in enumerate(g.edges)
            ],
        )
        for y in range(g.vcount):
            for z in range(g.vcount):
                assert resistance(bigger, y, z) >= resistance(g, y, z)


def test_off_path_edge_deletion_keeps_resistance():
    # a dangling triangle is not on any simple 0-1 path
    g = build_graph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 1, 1)])
    smaller = build_graph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 1)])
    assert resistance(g, 0, 1) == 2
    assert resistance(smaller, 0, 1) == 2


def test_context_concurrent_reads():
    g = families.complete(5)
    cx = context(g)
    values = []

    def reader():
        values.append(cx.r(0, 1))

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(values)) == 1


def test_context_concurrent_first_touch(monkeypatch):
    # graphs no other test builds, so their caches start empty: each graph's first
    # context() call and its one factorization happen inside the racing threads
    dets = _spy_on_factorizations(monkeypatch)
    g = build_graph(4, [(0, 1, F(3, 7)), (1, 2, F(5, 11)), (2, 0, F(2, 13)),
                        (2, 3, F(7, 17)), (3, 3, F(1, 19))])
    h = build_graph(3, [(0, 1, F(4, 23)), (1, 2, F(6, 29)), (2, 0, F(8, 31))])
    op = add_edge(h, 0, 2, F(5, 37))  # its prediction is evaluated on first read
    start = threading.Barrier(8)
    results = []

    def writer():
        start.wait()
        hx = context(h)
        cx = context(g)
        results.append(((cx.row(1), cx.den), cx.edge_profiles(0), tau_of(g), normalize(g),
                        total_length(g), bridges(g), apq(g, 1, 3), op.predicted_tau,
                        cx, hx, hx.row(1)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert len(dets) == 2  # g and h, once each
    first = results[0]
    assert first[5] == [3] and first[7] == tau_of(op.graph)
    assert first[8] is context(g) and first[9] is context(h)
    for row in results:
        assert row[0][0] is first[0][0]
        assert row[:3] == first[:3] and row[5] == first[5]
        # the first stored value wins, so every thread holds the same object
        assert all(row[i] is first[i] for i in (3, 4, 6, 7, 8, 9, 10))


def test_racing_first_readers_compute_each_value_once(monkeypatch):
    # each computation is slowed, so the other readers arrive while it runs: they
    # must wait for its value, not compute their own
    import mgt.graph
    import mgt.tau

    calls = Counter()

    def slowed(name, compute):
        def spy(*args):
            calls[name] += 1
            time.sleep(0.01)
            return compute(*args)
        return spy

    for module, name in ((mgt.graph, "_bridge_search"), (mgt.tau, "_tau_sum"),
                         (mgt.tau, "_bound_checks")):
        monkeypatch.setattr(module, name, slowed(name, getattr(module, name)))
    # a graph no other test builds, so its caches start empty
    g = build_graph(4, [(0, 1, F(5, 53)), (1, 2, F(7, 59)), (2, 0, F(3, 61)), (2, 3, F(2, 67))])
    op = OpResult(g, "spied", slowed("prediction", lambda: tau_of(g) / 2))
    start = threading.Barrier(8)
    results = []

    def reader():
        start.wait()
        results.append((bridges(g), tau_of(g), lower_bound_suite(g), op.predicted_tau))

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(results) == 8 and all(row == results[0] for row in results)
    assert results[0][0] == [3]
    assert calls == {"_bridge_search": 1, "_tau_sum": 1, "_bound_checks": 1, "prediction": 1}


def test_context_is_freed_with_its_graph():
    # the context keeps the graph's edges, not the graph, so no reference cycle
    # holds it: refcounting alone frees it when the graph goes
    gc.disable()
    try:
        g = build_graph(3, [(0, 1, F(2, 41)), (1, 2, F(3, 43)), (2, 0, F(5, 47))])
        assert tau_of(g) and apq(g, 0, 1)
        ref = weakref.ref(context(g))
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_length_chain_takes_shrinks_unchanged_lengths_and_loops():
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, F(3, 2)), (3, 0, 1), (0, 2, 2), (1, 3, 1),
                        (2, 2, F(1, 3)), (0, 1, F(2, 5))])
    # edges 0 and 4 shrink, edges 1 and 5 keep their length (x = 0), edge 6 is a loop
    lengths = (F(1, 3), F(1), F(7, 2), F(5), F(2, 9), F(1), F(4), F(3, 7))
    assert all(agrees("length-chain-steps", g, lengths, i) for i in range(g.ecount))
    assert agrees("length-chain-state", g, lengths)
    steps = successive_length_steps(g, lengths)
    assert steps[6] is None and steps[0] is not None


def test_a_context_refuses_an_edge_id_out_of_range():
    # -1 used to wrap: deleted A read 11 edge rows and gave 1/144, r_deleted read edge 5.
    # deleted_apq checks before its memo, where 1.0 would find edge 1's value
    k4 = families.complete(4)
    assert deleted_apq(k4, 1) == F(1, 288)
    for green in (context(k4), KirchhoffState.of(k4)):
        for edge in (-1, 6, 1.0):
            with pytest.raises(BadPoint, match=f"edge {edge} out of range 0..5"):
                deleted_apq_of(green, edge)
            with pytest.raises(BadPoint, match=f"edge {edge} out of range 0..5"):
                green.r_deleted(edge, 0, 1)
    for edge in (-1, 1.0, [1]):
        with pytest.raises(BadPoint, match="out of range 0..5"):
            deleted_apq(k4, edge)


def test_context_readers_refuse_ids_outside_the_graph():
    # -1 used to wrap: r(-1, 0) read vertex 3's 1/12, voltage(-1, 0, 1) read 1/24 and
    # res_deleted(-1) edge 5's 1/6; r(9, 0) ended in IndexError
    k4 = families.complete(4)
    for green in (context(k4), KirchhoffState.of(k4)):
        assert green.r(3, 0) == F(1, 12)
        calls = [(lambda: green.r(-1, 0), BadVertexId, "vertex -1 out of range 0..3"),
                 (lambda: green.voltage(-1, 0, 1), BadVertexId, "vertex -1 out of range 0..3"),
                 (lambda: green.res_deleted(-1), BadPoint, "edge -1 out of range 0..5"),
                 (lambda: green.r(9, 0), BadVertexId, "vertex 9 out of range 0..3"),
                 # a float id in range ended in TypeError
                 (lambda: green.r(1.0, 0), BadVertexId, "vertex 1.0 out of range 0..3"),
                 (lambda: green.voltage(0, 1, 2.0), BadVertexId, "vertex 2.0 out of range 0..3"),
                 (lambda: green.res_deleted(1.0), BadPoint, "edge 1.0 out of range 0..5"),
                 (lambda: green.r(0, "1"), BadVertexId, "vertex 1 out of range 0..3"),
                 # r_deleted(0, -1, 1) read vertex 3's row, r_deleted(0, 0, 9) ended in IndexError
                 (lambda: green.r_deleted(0, -1, 1), BadVertexId, "vertex -1 out of range 0..3"),
                 (lambda: green.r_deleted(0, 0, 9), BadVertexId, "vertex 9 out of range 0..3")]
        if green is not context(k4):  # with_length(-1, ...) changed edge 5; 6 ended in IndexError
            calls += [(lambda edge=edge: green.with_length(edge, F(1)), BadPoint,
                       f"edge {edge} out of range 0..5") for edge in (-1, 6, 1.0)]
        for call, error, message in calls:
            with pytest.raises(error) as info:
                call()
            assert (type(info.value), str(info.value)) == (error, message)


def test_a_carried_state_refuses_to_delete_a_bridge():
    # a KirchhoffState is a context, so its deletion keeps the context's bridge
    # check, before and after a length change, where 0/0 used to come out
    g = build_graph(3, [(0, 1, 1), (1, 2, F(1, 2)), (2, 1, F(1, 3))])  # edge 0 is a bridge
    state = KirchhoffState.of(g)
    for green in (context(g), state, state.with_length(1, F(2)), state.with_length(0, F(3))):
        with pytest.raises(BridgeDeletion):
            deleted_apq_of(green, 0)
    assert deleted_apq_of(state, 1) == deleted_apq_of(context(g), 1)
