import math
import random
import sys
import threading
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgt import families
from mgt.errors import BadN, EmptyGrid, MgtError, NotBridgeless, SamePoint
from mgt.families import family_scan, scan_violations
from mgt.graph import MetrizedGraph, build_graph
from mgt.optimize import (
    FloatTopology,
    _best_rational,
    _round_to_simplex,
    minimize_tau,
    project_simplex,
    search_topology,
)
from mgt.suite import GraphGenerator
from mgt.tau import tau_of
from oracles import (exact_gradient_matches_float, float_tau_gradient, random_bridgeless,
                     sort_projection, tau_reducing_sequence)


def _corpus_graphs():
    # the first 60 GraphGenerator(1) graphs include bridges, loops and parallel edges
    return [g for _, g in GraphGenerator(1).graphs(60)]


def _at_lengths(g, lengths):
    return MetrizedGraph(g.vcount, tuple(e._replace(length=L) for e, L in zip(g.edges, lengths)))


def _with_interior_points(graphs, seed):
    """graphs, then each at two seeded rational points inside the unit simplex."""
    rng = random.Random(seed)
    out = list(graphs)
    for g in graphs:
        for _ in range(2):
            weights = [rng.randint(1, 100) for _ in g.edges]
            out.append(_at_lengths(g, [F(w, sum(weights)) for w in weights]))
    return out


def _catalog_with_interior_points():
    rng = random.Random(43)
    graphs = [families.complete(4), families.diamond(F(1, 5)),
              families.equal_banana(4), families.theta(F(1, 2), F(1, 3), F(1, 6))]
    graphs += [random_bridgeless(rng, 7, 12) for _ in range(5)] + _corpus_graphs()
    return _with_interior_points(graphs, 44)


def test_float_tau_matches_exact():
    for g in _catalog_with_interior_points():
        topo = FloatTopology(g.vcount, [(a, b) for a, b, _ in g.edges])
        approx = topo.tau([float(e.length) for e in g.edges])
        assert math.isclose(approx, float(tau_of(g)), rel_tol=1e-11)


def test_fused_tau_and_gradient_bit_equal_separate_expressions():
    for g in _catalog_with_interior_points():
        topo = _topology(g)
        x = [float(e.length) for e in g.edges]
        tau, grad = float_tau_gradient(topo, x)
        assert topo.tau(x) == tau
        assert np.array_equal(topo.gradient(x), grad)


def test_gradient_is_a_copy_of_the_memo():
    g = families.complete(4)
    topo = _topology(g)
    x = np.full(6, 1 / 6)
    grad = topo.gradient(x)
    grad[:] = 0.0
    assert np.array_equal(topo.gradient(x), float_tau_gradient(topo, x)[1])


def test_float_gradient_matches_exact_within_1e9():
    rng = random.Random(97)
    graphs = [families.complete(4), families.diamond(F(1, 5)),
              families.circle(F(1, 3), F(2, 3))]
    graphs += [random_bridgeless(rng, 5, 9) for _ in range(5)]
    graphs += _corpus_graphs()
    for g in _with_interior_points(graphs, 98):
        assert exact_gradient_matches_float(g, 1e-9)


def _topology(g):
    return FloatTopology(g.vcount, [(a, b) for a, b, _ in g.edges])


def _test_points(g, rng, count=3):
    points = [np.array([float(e.length) for e in g.edges])]
    for _ in range(count):
        x = np.array([rng.random() + 0.01 for _ in g.edges])
        points.append(x / x.sum())
    return points


def test_memoized_tau_and_gradient_bit_equal_fresh():
    rng = random.Random(5)
    graphs = [families.complete(4), families.diamond(F(1, 5)), families.cube()]
    graphs += [random_bridgeless(rng, 5, 9) for _ in range(3)] + _corpus_graphs()[:20]
    for g in graphs:
        topo = _topology(g)
        for x in _test_points(g, rng):
            value, grad = topo.tau(x), topo.gradient(x)
            assert value == _topology(g).tau(x)
            assert np.array_equal(grad, _topology(g).gradient(x))
            # and in the other order, and again at the same point
            assert np.array_equal(topo.gradient(x), grad) and topo.tau(x) == value


def test_in_place_change_between_tau_and_gradient_is_not_stale():
    g = families.complete(4)
    topo = _topology(g)
    x = np.array([0.1, 0.2, 0.15, 0.25, 0.2, 0.1])
    old = x.copy()
    topo.tau(x)
    x[0], x[3] = 0.3, 0.05
    assert np.array_equal(topo.gradient(x), _topology(g).gradient(x.copy()))
    # the memo holds old's point; old then changes in place while y keeps its values
    topo.tau(old)
    y = old.copy()
    old[:] = 1 / 6
    assert np.array_equal(topo.gradient(y), _topology(g).gradient(y))
    assert topo.tau(old) == _topology(g).tau(np.full(6, 1 / 6))


def test_minimize_inverts_once_per_point(monkeypatch):
    inverses = []
    points = []
    real_inv = np.linalg.inv
    real_tau, real_gradient = FloatTopology.tau, FloatTopology.gradient

    def counting_inv(m):
        inverses.append(1)
        return real_inv(m)

    def tau(self, lengths):
        points.append(("tau", np.asarray(lengths, dtype=float).tobytes()))
        return real_tau(self, lengths)

    def gradient(self, lengths):
        points.append(("gradient", np.asarray(lengths, dtype=float).tobytes()))
        return real_gradient(self, lengths)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(FloatTopology, "tau", tau)
    monkeypatch.setattr(FloatTopology, "gradient", gradient)
    rng = random.Random(11)
    for g in (families.complete(4), families.cube(), families.necklace(1, 1, 2)):
        for _ in range(2):
            start = [rng.random() + 0.01 for _ in g.edges]
            del inverses[:], points[:]
            minimize_tau(g, start, max_iters=30)
            taus = sum(1 for kind, _ in points if kind == "tau")
            distinct = sum(1 for k, p in enumerate(points) if k == 0 or p[1] != points[k - 1][1])
            # every gradient is taken at the point whose tau was just computed
            assert all(k > 0 and p == points[k - 1][1]
                       for k, (kind, p) in enumerate(points) if kind == "gradient")
            assert len(inverses) == distinct == taus < len(points)


def test_float_topology_shared_across_threads():
    rng = random.Random(3)
    g = families.complete(5)
    points = _test_points(g, rng, count=8)
    fresh = [(_topology(g).tau(x), _topology(g).gradient(x)) for x in points]
    topo = _topology(g)
    failures = []

    def worker(k):
        for i in range(200):
            j = (k + i) % len(points)
            value, grad = topo.tau(points[j]), topo.gradient(points[j])
            if value != fresh[j][0] or not np.array_equal(grad, fresh[j][1]):
                failures.append((k, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_minimize_rejects_unusable_start():
    triangle = families.circle(F(1, 3), F(1, 3), F(1, 3))
    for start in ([math.nan, 1, 1], [math.inf, 1, 1], [1, -math.inf, 1],
                  [1e308] * 3, [1e300] * 3, [1e17] * 3, [1e300, -1e300, 1]):
        with pytest.raises(MgtError):
            minimize_tau(triangle, start, max_iters=5)
    state = minimize_tau(triangle, [1e6, 2e6, 3e6], max_iters=5)
    assert abs(sum(state.lengths) - 1) < 1e-12


def _reference_round(x, cap=10**6):
    """The rounding as Fraction arithmetic: each coordinate's best rational
    with denominator <= cap, raised to 1/(10 cap), divided by their sum."""
    approx = [F(float(v)).limit_denominator(cap) for v in x]
    approx = [max(q, F(1, 10 * cap)) for q in approx]
    total = sum(approx)
    return tuple(q / total for q in approx)


def test_round_to_simplex_matches_fraction_formula():
    rng = np.random.default_rng(17)
    vectors = [rng.normal(size=n) for n in range(1, 13)]  # negatives round up to the floor
    vectors += [project_simplex(rng.random(n) * 3 - 1) for n in range(2, 13) for _ in range(20)]
    vectors += [project_simplex(rng.random(n) * 10**k) for n in (3, 9) for k in range(-3, 4)]
    below = 1 / (10 * 10**6)
    vectors += [np.array([0.5, 0.0, 0.5]), np.zeros(4), np.array([below / 3, below, 2 * below, 1.0]),
                np.array([1e-9, 1e-12, 1 - 1e-9]), np.array([below * 0.999, below * 1.001, 0.6])]
    for x in vectors:
        rounded = _round_to_simplex(x)
        assert rounded == _reference_round(x), x
        assert sum(rounded) == 1


def test_best_rational_is_limit_denominator_exhaustively():
    for d in range(1, 61):
        for n in range(d + 1):
            q = F(n, d)  # a Fraction gives its reduced pair through as_integer_ratio, as a float does
            for cap in range(1, 21):
                best = q.limit_denominator(cap)
                assert _best_rational(q, cap) == (best.numerator, best.denominator), (n, d, cap)


def test_minimize_exact_tau_is_tau_of_exact_lengths():
    bridged = build_graph(5, [(0, 1, 1), (1, 2, 2), (2, 0, 1), (2, 3, 3), (3, 4, 1), (4, 3, 2)])
    runs = [(g, None, 40) for g in (families.complete(4), families.cube(), bridged)]
    runs.append((families.complete(4), [0.1, 0.2, 0.15, 0.05, 0.3, 0.2], 1))  # stopped off the minimum
    for g, start, iters in runs:
        state = minimize_tau(g, start, max_iters=iters)
        assert sum(state.exact_lengths) == 1
        assert state.exact_tau == tau_of(_at_lengths(search_topology(g), state.exact_lengths))


def test_project_simplex_basics():
    x = project_simplex(np.array([0.5, 0.5, 0.5]))
    assert abs(x.sum() - 1) < 1e-12
    assert np.allclose(x, [1 / 3, 1 / 3, 1 / 3])
    y = project_simplex(np.array([10.0, -5.0]))
    assert abs(y.sum() - 1) < 1e-12
    assert y.min() >= 1e-9


@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_project_simplex_properties(values):
    x = np.asarray(values)
    p = project_simplex(x)
    assert abs(p.sum() - 1) < 1e-9
    assert p.min() >= 1e-9 - 1e-15


_SIGNED_MAGNITUDE = st.builds(lambda sign, m, e: sign * m * 10.0**e, st.sampled_from((-1.0, 1.0)),
                              st.floats(min_value=1, max_value=10), st.integers(-6, 5))


@given(st.lists(st.one_of(_SIGNED_MAGNITUDE, st.sampled_from((0.0, -0.0, 1e-9, 0.5, -0.25, 1e-6))),
                min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_project_simplex_bit_equal_sort_and_cumsum(values):
    # the sampled constants repeat, so ties are common
    x = np.asarray(values)
    assert np.array_equal(project_simplex(x), sort_projection(x))


def test_project_simplex_rejects_empty_vector():
    with pytest.raises(ValueError):
        project_simplex(np.zeros(0))


def test_minimize_four_banana():
    state = minimize_tau(families.banana(F(1, 2), F(1, 5), F(1, 5), F(1, 10)),
                         start=[0.55, 0.2, 0.15, 0.1], max_iters=2000, tol=1e-14)
    assert abs(state.tau - 1 / 16) < 1e-8
    assert max(abs(L - 0.25) for L in state.lengths) < 1e-4
    assert state.exact_tau >= F(1, 16)
    assert tau_of(families.equal_banana(4)) == F(1, 16)  # equality exactly at equal lengths
    # state invariants: simplex coordinates and the global tau window
    assert all(L > 0 for L in state.lengths)
    assert abs(sum(state.lengths) - 1) < 1e-12
    e = len(state.lengths)
    assert 1 / (16 * e) <= state.tau <= 1 / 4
    # exact re-evaluation lands inside the global window and, since the
    # 4-banana is bridgeless, under one twelfth
    total = sum(state.exact_lengths)
    assert F(1, 16 * e) * total <= state.exact_tau <= total / 4
    assert state.exact_tau <= total / 12


def test_minimize_circle_is_flat():
    circ = families.circle(F(1, 4), F(1, 4), F(1, 2))
    state = minimize_tau(circ, max_iters=50)
    assert abs(state.tau - 1 / 12) < 1e-12
    assert all(abs(gd - 1 / 12) < 1e-12 for gd in state.gradient)


def test_minimize_contracts_bridges_first():
    # dumbbell: two triangles and a bridge; the bridge is contracted away
    g = build_graph(6, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1),
                        (3, 4, 1), (4, 5, 1), (5, 3, 1)])
    state = minimize_tau(g, max_iters=200)
    assert len(state.lengths) == 6
    with pytest.raises(NotBridgeless):
        minimize_tau(families.path(1, 2, 3))


def test_minimize_descent_property():
    topo = families.banana(F(2, 5), F(1, 5), F(1, 5), F(1, 5))
    trace = []
    ft = FloatTopology(topo.vcount, [(a, b) for a, b, _ in topo.edges])
    x = np.array([0.4, 0.2, 0.2, 0.2])
    value = ft.tau(x)
    for _ in range(60):
        grad = ft.gradient(x)
        step = 0.1
        while True:
            cand = project_simplex(x - step * grad)
            cv = ft.tau(cand)
            if cv <= value + 1e-4 * float(np.dot(grad, cand - x)) + 1e-15 or step < 1e-12:
                break
            step /= 2
        trace.append(cv)
        assert cv <= value + 1e-12
        x, value = cand, cv


def test_family_scan_complete():
    rows = family_scan("complete", {"v": range(2, 13)})
    best = min(rows, key=lambda r: r.ratio)
    assert best.params == "v=5" and best.ratio == F(23, 500)
    assert not scan_violations(rows)


def test_family_scan_banana():
    rows = family_scan("banana", {"m": range(1, 13)})
    best = min(rows, key=lambda r: r.ratio)
    assert best.params == "m=4" and best.ratio == F(1, 16)
    assert not scan_violations(rows)
    # an empty grid would check nothing, so it is refused rather than passed
    for grid in ([], range(3, 1)):
        with pytest.raises(EmptyGrid, match="no value of m"):
            family_scan("banana", {"m": grid})


@pytest.mark.parametrize("family, key, value", [
    ("complete", "v", F(5, 2)), ("banana", "m", F(5, 2)), ("circle", "k", 2.5), ("necklace", "t", F(3, 2)),
])
def test_family_scan_refuses_a_fraction_for_a_count(family, key, value):
    # each used to end in a TypeError from range() or a builder
    with pytest.raises(BadN, match=f"scan family '{family}': {key} takes integers, got {value}"):
        family_scan(family, {key: [value]})


def test_family_scan_necklace():
    rows = family_scan("necklace", {"a": [F(1, 12), F(1, 40)], "t": (2, 3, 4)})
    assert rows
    assert all(row.ratio < F(1, 12) for row in rows)
    assert not scan_violations(rows)
    # in the designed regime (t a near 1, tiny b) the ratio climbs toward 1/12
    ladder = [
        families.necklace_tau(F(1, t + 1), (1 - F(t, t + 1)) / (5 * t), t)
        for t in (10, 50, 200)
    ]
    assert ladder[0] < ladder[1] < ladder[2] < F(1, 12)
    assert ladder[2] > F(10, 122)


def test_family_scan_circle():
    rows = family_scan("circle", {"k": range(1, 6)})
    assert all(row.ratio == F(1, 12) for row in rows)


def test_tau_reducing_sequence_circle():
    circ = families.circle(F(1, 2), F(1, 2))
    m, result = tau_reducing_sequence(circ, 0, 1, F(1, 100))
    assert m == 3
    bound = F(1, 12) - F(1, 4) * (F(1, 4) - F(1, 12)) + F(1, 100)
    assert tau_of(result.graph) <= bound
    assert tau_of(result.graph) == F(7, 144)


def test_tau_reducing_sequence_m_from_inequality():
    circ = families.circle(F(1, 2), F(1, 2))
    m_small, _ = tau_reducing_sequence(circ, 0, 1, F(1, 10))
    m_large, _ = tau_reducing_sequence(circ, 0, 1, F(1, 1000))
    assert m_small <= 3 <= m_large
    # smallest m with (A/(m r)) sum L^2/(L+R) <= eps, solved not searched
    assert m_small == 1 and m_large == 21


def test_reducing_iteration_strictly_decreases():
    circ = families.circle(F(1, 2), F(1, 2))
    values = [tau_of(circ)]
    current = circ
    for _ in range(2):
        _, result = tau_reducing_sequence(current, 0, 1, F(1, 100))
        current = result.graph
        values.append(tau_of(current))
    assert all(x > y for x, y in zip(values, values[1:]))
    with pytest.raises(SamePoint):
        tau_reducing_sequence(circ, 0, 0, F(1, 10))
