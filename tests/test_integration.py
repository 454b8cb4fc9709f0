import copy
import pickle
from fractions import Fraction as F

import pytest

from mgt import families
from mgt.circuit import resistance, voltage
from mgt.errors import BadN, BadPoint, BadVertexId, NonPolynomialIntegrand
from mgt.graph import build_graph
from mgt.integration import (
    TAG_J_BASE_P,
    EdgePolynomial,
    edge_tag_polynomials,
    fit_edge_function,
    integrate_product,
    interpolate,
)
from oracles import tau_via_integral


def test_edge_polynomial_algebra():
    p = EdgePolynomial(0, (F(1), F(2), F(3)))  # 1 + 2x + 3x^2
    assert p(F(2)) == 1 + 4 + 12


def test_edge_polynomial_is_a_frozen_value():
    p = EdgePolynomial(0, (F(1), F(2)))
    assert p == EdgePolynomial(0, (F(1), F(2))) and hash(p) == hash(EdgePolynomial(0, (F(1), F(2))))
    assert p != EdgePolynomial(1, (F(1), F(2))) and p != (0, (F(1), F(2)))
    assert repr(p) == "EdgePolynomial(edge=0, coeffs=(Fraction(1, 1), Fraction(2, 1)))"
    assert pickle.loads(pickle.dumps(p)) == p and copy.copy(p) == p
    with pytest.raises(AttributeError):
        p.coeffs = ()
    with pytest.raises(AttributeError):
        del p.edge


def test_interpolate_quadratic():
    pts = [(F(1), F(2)), (F(2), F(5)), (F(3), F(10))]  # x^2 + 1
    poly = interpolate(0, pts)
    assert poly.coeffs == (F(1), F(0), F(1))


def test_fit_constant_on_off_path_edge():
    # on the path 0-1-2, j_0(x, 1) is r(0, 1) on the edge 1-2 that hangs off the 0-1 path,
    # and x's distance from 0 on the path edge, where a constant fit fails its guard
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    poly = fit_edge_function(g, 1, lambda x: voltage(g, 0, x, 1), 0)
    assert poly.coeffs == (resistance(g, 0, 1),) == (1,)
    with pytest.raises(NonPolynomialIntegrand):
        fit_edge_function(g, 0, lambda x: voltage(g, 0, x, 1), 0)


def test_fit_guard_detects_degree_undershoot():
    circ = families.circle(F(1, 2), F(1, 2))
    with pytest.raises(NonPolynomialIntegrand):
        fit_edge_function(circ, 0, lambda x: resistance(circ, x, 0), 1)


@pytest.mark.parametrize("edge", [0.5, F(0), -1, 2])
def test_fit_edge_id_must_be_an_edge(edge):
    # a float id used to pass the range check and fail as a TypeError
    circ = families.circle(F(1, 2), F(1, 2))
    with pytest.raises(BadPoint, match="out of range"):
        fit_edge_function(circ, edge, lambda x: F(0), 0)


@pytest.mark.parametrize("degree", [-1, -3, 1.0, F(1)])
def test_fit_degree_must_be_a_non_negative_int(degree):
    # -1 used to end in an IndexError from interpolating no samples, -3 in a ZeroDivisionError
    circ = families.circle(F(1, 2), F(1, 2))
    with pytest.raises(BadN, match="degree must be an integer >= 0"):
        fit_edge_function(circ, 0, lambda x: F(0), degree)


def test_fit_quadratic_voltage_on_circle():
    circ = families.circle(F(1, 2), F(1, 2))
    poly = fit_edge_function(circ, 0, lambda x: voltage(circ, x, 0, 1), 2)
    assert len(poly.coeffs) == 3
    # the voltage vanishes at both endpoints of the arc
    assert poly(F(0)) == 0 and poly(F(1, 2)) == 0


def test_diamond_middle_edge_flat():
    dia = families.diamond(1)
    polys = edge_tag_polynomials(dia, 0, 2, 4)  # middle edge id 4
    flat = polys[TAG_J_BASE_P]
    assert len(flat.coeffs) == 1


def test_integrate_product_checks_its_inputs():
    k4 = families.complete(4)
    for p, q in [(-1, 0), (0, -1), (4, 0), (0, 4), (1.0, 0)]:
        with pytest.raises(BadVertexId):
            integrate_product(k4, p, q, [(TAG_J_BASE_P, True, 2)])
    for n in (-1, 1.0, 1.5, "2", None):
        with pytest.raises(BadPoint):
            integrate_product(k4, 0, 1, [(TAG_J_BASE_P, True, n)])
    with pytest.raises(BadPoint):
        integrate_product(k4, 0, 1, [("r(q,x)", False, 1)])


def test_edge_tag_polynomials_checks_its_inputs():
    k4 = families.complete(4)
    for edge in (-1, k4.ecount, 1.0):
        with pytest.raises(BadPoint):
            edge_tag_polynomials(k4, 0, 1, edge)
    for p, q in [(-1, 0), (0, 4)]:
        with pytest.raises(BadVertexId):
            edge_tag_polynomials(k4, p, q, 0)


def test_tau_via_integral_closed_forms():
    assert tau_via_integral(families.circle(F(1, 2), F(1, 2))) == F(1, 12)
    assert tau_via_integral(families.segment(1)) == F(1, 4)
    assert tau_via_integral(families.complete(4, 1)) == F(5, 96)
