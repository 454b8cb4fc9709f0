import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgt import families
from mgt.errors import NotBridgeless, SamePoint
from mgt.graph import build_graph
from mgt.optimize import (
    FloatTopology,
    exact_gradient_matches_float,
    family_scan,
    minimize_tau,
    project_simplex,
    scan_violations,
    tau_reducing_sequence,
)
from mgt.suite import GraphGenerator
from mgt.tau import tau_of


def _corpus_graphs():
    # the first 60 GraphGenerator(1) graphs include bridges, loops and parallel edges
    return [g for _, g in GraphGenerator(1).graphs(60)]


def test_float_tau_matches_exact():
    for g in [families.complete(4), families.diamond(F(1, 5)),
              families.equal_banana(4), families.theta(F(1, 2), F(1, 3), F(1, 6))] + _corpus_graphs():
        topo = FloatTopology(g.vcount, [(a, b) for a, b, _ in g.edges])
        approx = topo.tau([float(e.length) for e in g.edges])
        assert math.isclose(approx, float(tau_of(g)), rel_tol=1e-11)


def test_float_gradient_matches_exact_within_1e9():
    rng = random.Random(97)
    graphs = [families.complete(4), families.diamond(F(1, 5)),
              families.circle(F(1, 3), F(2, 3))]
    graphs += [families.random_bridgeless(rng, 5, 9) for _ in range(5)]
    graphs += _corpus_graphs()
    for g in graphs:
        assert exact_gradient_matches_float(g, 1e-9)


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


def test_all_scan_ratios_respect_conjecture_floor():
    all_rows = []
    all_rows += family_scan("complete", {"v": range(2, 10)})
    all_rows += family_scan("banana", {"m": range(1, 11)})
    all_rows += family_scan("necklace", {"a": [F(1, 10), F(1, 30)], "t": (2, 3)})
    all_rows += family_scan("circle", {"k": range(1, 5)})
    assert not scan_violations(all_rows)
    assert min(r.ratio for r in all_rows) >= F(1, 108)
