import random
from collections import Counter
from fractions import Fraction as F

import pytest

from mgt import families
from mgt.circuit import EdgeProfile, context
from mgt.errors import HasBridge
from mgt.graph import (
    bridges,
    build_graph,
    insert_point,
    normalize,
    scale,
    subdivide_uniform,
)
from mgt.families import ScanRow
from mgt.optimize import OptState
from mgt.rational import INF
from mgt.suite import CheckResult, GraphGenerator, _apq_checked, _Fail
from mgt.tau import (
    BoundCheck,
    CanonicalMeasure,
    GradientVector,
    TauReport,
    apq,
    apq_identity,
    canonical_measure,
    genus_identity_check,
    lower_bound_suite,
    tau_bridgeless_identity,
    tau_edge_sum,
    tau_gradient,
    tau_of,
)


def test_necklace_normalized_rational_forms():
    # normalized necklace tau and cubic sum as rational functions of (a, t)
    from mgt.tau import cubic_sum

    for t in (2, 3):
        for a in (F(1, 10), F(1, 25)):
            b = (1 - a * t) / (5 * t)
            g = families.necklace(a, b, t)
            tau_form = F(
                24 * t**3 * a**2 + 22 * t**2 * a + 4 * t + 3 - 6 * t * a + 3 * t**2 * a**2,
                120 * t * (4 * t * a + 1),
            )
            assert tau_of(g) == tau_form
            cubic_num = (
                4 - 12 * (a - 1) * t + (12 * a**2 + 24 * a + 13) * t**2
                + a * (1996 * a**2 - 84 * a + 91) * t**3
                + 8 * a**2 * (6 * a + 13) * t**4 - 208 * a**3 * t**5
            )
            assert cubic_sum(g) / 12 == cubic_num / (960 * t**2 * (4 * a * t + 1) ** 2)


def test_circle_subdivide_then_split_closed_form():
    # m-subdivided circle, each edge split into n parallel halves
    from mgt.ops import da_n

    for m in (1, 2, 3):
        for n in (2, 3):
            circ = subdivide_uniform(families.circle(F(1)), m)
            built = da_n(circ, n).graph
            expected = F((n - 1) ** 2 + 1, 12 * n**2) + F(n - 1, 6 * m * n**2)
            assert tau_of(built) == expected
    # the doubled case collapses to l/24 + l/(24 m)
    for m in (1, 2, 5):
        built = da_n(subdivide_uniform(families.circle(F(1)), m), 2).graph
        assert tau_of(built) == F(1, 24) + F(1, 24 * m)


def test_tau_report_fields():
    k5 = families.complete(5)
    report = tau_edge_sum(k5, 2)
    assert report.base_vertex == 2
    assert report.tau == F(23, 500)
    assert report.total_length == 1
    assert report.genus == 6
    assert sum(c for _, c, _ in report.per_edge) == report.tau
    tau, ell, genus, per_edge, base = report  # records unpack like tuples
    assert (tau, base) == (report.tau, 2)
    # every record keeps its fields in order, and its defaults
    assert EdgeProfile._fields == ("edge", "length", "res_deleted", "arm_a", "arm_b",
                                   "arm_base", "bridge", "loop")
    assert TauReport._fields == ("tau", "total_length", "genus", "per_edge", "base_vertex")
    assert CanonicalMeasure._fields == ("vertex_masses", "edge_densities")
    assert GradientVector._fields == ("entries", "bridge_edges")
    assert BoundCheck._fields == ("bound", "applicable", "reason", "lhs", "rhs", "relation",
                                  "holds")
    assert CheckResult._fields == ("identity", "graph", "lhs", "rhs", "status", "reason")
    assert GraphGenerator._fields == ("seed",)
    assert OptState._fields == ("lengths", "tau", "gradient", "iteration", "converged",
                                "pinned", "exact_lengths", "exact_tau")
    assert ScanRow._fields == ("family", "params", "ratio")
    assert CheckResult("id", "g", 1, 1, "pass").reason == ""
    assert GraphGenerator(3) == (3,)


def test_tau_bridge_and_loop_contributions():
    seg = families.segment(F(2, 3))
    report = tau_edge_sum(seg)
    assert report.per_edge[0][1] == F(1, 6)  # length/4
    assert report.per_edge[0][2] is INF
    loop = families.circle(F(3, 5))
    assert tau_edge_sum(loop).per_edge[0][1] == F(1, 20)  # length/12


def test_canonical_measure_examples():
    seg = families.segment(1)
    mu = canonical_measure(seg)
    assert dict(mu.vertex_masses) == {0: F(1, 2), 1: F(1, 2)}
    assert dict(mu.edge_densities) == {0: F(0)}
    loop = families.circle(F(2))
    mu = canonical_measure(loop)
    assert dict(mu.vertex_masses) == {0: F(0)}
    assert dict(mu.edge_densities) == {0: F(1, 2)}
    k4 = families.complete(4, 1)
    mu = canonical_measure(k4)
    assert all(m == F(-1, 2) for _, m in mu.vertex_masses)
    assert all(d == 3 for _, d in mu.edge_densities)
    assert mu.total_mass(k4) == 1


def test_canonical_measure_mass_is_one():
    rng = random.Random(47)
    for _ in range(15):
        g = families.random_connected(rng, 7, 12)
        assert canonical_measure(g).total_mass(g) == 1


def test_genus_identity():
    assert genus_identity_check(families.circle(F(5, 4))) == (1, 0)
    tree = families.path(1, 2, 3, 4)
    assert genus_identity_check(tree) == (0, 4)
    assert genus_identity_check(families.complete(4)) == (3, 3)
    rng = random.Random(53)
    for _ in range(10):
        g = families.random_connected(rng, 6, 10)
        left, right = genus_identity_check(g)
        assert left == g.ecount - g.vcount + 1
        assert right == g.vcount - 1


def test_tau_base_independent_and_insert_invariant():
    rng = random.Random(59)
    for _ in range(8):
        g = families.random_connected(rng, 6, 9)
        tau = tau_of(g)
        assert all(tau_edge_sum(g, p).tau == tau for p in range(g.vcount))
        e = rng.randrange(g.ecount)
        g2, _ = insert_point(g, (e, g.edges[e].length / 3))
        assert tau_of(g2) == tau
        assert tau_of(subdivide_uniform(g, 2)) == tau


def test_tau_scale_covariance():
    g = families.theta(F(1, 2), F(1, 3), F(1, 6))
    for c in (F(2), F(1, 7), F(22, 3)):
        assert tau_of(scale(g, c)) == c * tau_of(g)


def test_apq_identity_matches_direct_and_nonnegative():
    rng = random.Random(61)
    for _ in range(10):
        g = families.random_connected(rng, 5, 8)
        p = rng.randrange(g.vcount)
        q = rng.randrange(g.vcount)
        if p == q:
            continue
        assert _apq_checked(g, p, q) >= 0  # fails on a route mismatch


def test_apq_banana_and_same_point():
    g = families.banana(F(1, 2), F(1, 3), F(1, 4))
    r = context(g).r(0, 1)
    assert _apq_checked(g, 0, 1) == 2 * r * r / 6
    # at p = q every route reads 0, as the integrand vanishes
    assert apq_identity(g, 1, 1) == apq(g, 1, 1) == _apq_checked(g, 1, 1) == 0


def test_gradient_examples():
    circ = families.circle(F(1, 3), F(2, 3))
    grad = tau_gradient(circ)
    assert grad.entries == (F(1, 12), F(1, 12))
    assert grad.bridge_edges == ()
    tree = families.path(1, 2)
    grad = tau_gradient(tree)
    assert grad.entries == (F(1, 4), F(1, 4))
    assert grad.bridge_edges == (0, 1)
    loop = families.circle(F(1))
    assert tau_gradient(loop).entries == (F(1, 12),)


def test_gradient_euler_identity():
    rng = random.Random(67)
    for g in (
        families.complete(4),
        families.diamond(F(2, 5)),
        families.random_connected(rng, 6, 9),
        families.random_connected(rng, 6, 9),
    ):
        grad = tau_gradient(g)
        assert sum(L * d for (_, _, L), d in zip(g.edges, grad.entries)) == tau_of(g)


def test_gradient_finite_perturbation():
    # d tau/d L of each edge from tau alone. By lemedgeext q(x) = (tau(L+x) - tau(L))/x is
    # 1/12 - A/((L+R)(L+R+x)), so h(x) = 1/(1/12 - q(x)) is linear in x, and
    # d tau/d L = q(0) = 1/12 - 1/(2h(x) - h(2x)). Where q(x) = q(2x), d tau/d L is q(x):
    # 1/4 on a bridge, 1/12 on a loop or where A = 0
    from oracles import random_bridgeless

    rng = random.Random(71)
    graphs = [random_bridgeless(rng, 5, 9) for _ in range(10)]
    graphs += [families.random_connected(rng, 6, 10) for _ in range(10)]
    twelfth, seen = F(1, 12), Counter()
    for g in graphs:
        def slope(i, x):
            longer = build_graph(g.vcount, [(a, b, length + x if j == i else length)
                                            for j, (a, b, length) in enumerate(g.edges)])
            return (tau_of(longer) - tau_of(g)) / x

        expected = []
        for i, (_, _, length) in enumerate(g.edges):
            q1, q2 = slope(i, length / 7), slope(i, 2 * length / 7)
            seen[q1 == q2] += 1
            expected.append(q1 if q1 == q2 else twelfth - 1 / (2 / (twelfth - q1) - 1 / (twelfth - q2)))
        assert tau_gradient(g).entries == tuple(expected), g
    assert seen[True] > 30 and seen[False] > 80, seen  # 38 and 91 of 129 edges


def test_bridgeless_identity():
    circ = families.circle(F(1, 2), F(1, 2))
    assert tau_bridgeless_identity(circ) == (F(1, 12), F(1, 12))
    assert tau_bridgeless_identity(families.circle(1)) == (F(1, 12), F(1, 12))  # loops only
    lhs, rhs = tau_bridgeless_identity(families.complete(4))
    assert lhs == rhs
    dia = families.diamond(1)
    assert tau_bridgeless_identity(dia) == (F(1, 3), F(1, 3))
    with pytest.raises(HasBridge):
        tau_bridgeless_identity(families.segment(1))


def test_bounds_suite():
    k4 = families.complete(4)
    checks = {c.bound: c for c in lower_bound_suite(k4)}
    assert checks["equal-length"].applicable
    assert checks["equal-length"].lhs == F(1, 48)
    assert checks["equal-length"].holds
    assert checks["tau-upper-twelfth-bridgeless"].holds
    assert all(c.holds is not False for c in checks.values())
    seg = families.segment(1)
    checks = {c.bound: c for c in lower_bound_suite(seg)}
    assert not checks["tau-upper-twelfth-bridgeless"].applicable
    assert checks["tau-tree-equality"].holds
    circ = families.circle(F(7))
    checks = {c.bound: c for c in lower_bound_suite(circ)}
    assert checks["deleted-resistance-sum"].holds


def test_bounds_random_graphs_never_violate():
    rng = random.Random(73)
    for _ in range(10):
        g = families.random_connected(rng, 6, 10)
        checks = lower_bound_suite(g)
        assert all(c.holds is not False for c in checks)
        # read off g's own Green matrix, the bounds equal those of the normalized copy
        assert checks == lower_bound_suite(normalize(g))


def test_apq_identity_builds_and_factorizes_nothing(monkeypatch):
    import mgt.circuit
    from oracles import glued_graphs, identification_apq

    from mgt.graph import MetrizedGraph

    g = glued_graphs()[-4]  # a 12-vertex cycle with 6 chords
    context(g)
    calls = {"green_numden": 0, "graph": 0}
    factorize, build, derive = mgt.circuit.green_numden, MetrizedGraph.__init__, MetrizedGraph._derived

    def counted_factorize(*args):
        calls["green_numden"] += 1
        return factorize(*args)

    def counted_build(self, *args):
        calls["graph"] += 1
        build(self, *args)

    def counted_derive(cls, *args):  # a derived graph is built past __init__
        calls["graph"] += 1
        return derive(*args)

    monkeypatch.setattr(mgt.circuit, "green_numden", counted_factorize)
    monkeypatch.setattr(MetrizedGraph, "__init__", counted_build)
    monkeypatch.setattr(MetrizedGraph, "_derived", classmethod(counted_derive))
    values = {(p, q): apq_identity(g, p, q) for p in range(4) for q in range(4) if p != q}
    assert calls == {"green_numden": 0, "graph": 0}
    identification_apq(g, 0, 1)
    assert calls["green_numden"] == 1 and calls["graph"] == 1  # the counters do count
    monkeypatch.undo()
    assert all(value == identification_apq(g, p, q) for (p, q), value in values.items())


def test_tau_edge_sum_stores_tau():
    g = families.complete(5, F(4, 9))
    assert tau_edge_sum(g).tau is tau_of(g)
    h = families.cube(F(7, 2))
    value = tau_of(h)
    report = tau_edge_sum(h, 3)
    assert report.tau == value  # its own sum at base 3, not the memo read back
    assert report.tau is not value
    assert sum(c for _, c, _ in report.per_edge) == value
    assert tau_of(h) is value


@pytest.mark.parametrize("g", [families.complete(4, F(2, 3)), families.cube()], ids=["K4", "cube"])
@pytest.mark.parametrize("entry", [(1, 1), (2, 2), (1, 2)])
def test_apq_routes_part_on_a_perturbed_green_matrix(monkeypatch, g, entry):
    # both A routes read one N; a wrong entry must make them disagree, not agree
    ctx = context(g)
    num = [list(row) for row in ctx.num]
    y, z = entry
    num[y][z] += 1
    if y != z:
        num[z][y] += 1
    monkeypatch.setattr(ctx, "num", num)
    ctx.memo.clear()
    assert apq(g, 1, 2) != apq_identity(g, 1, 2)
    with pytest.raises(_Fail) as failed:
        _apq_checked(g, 1, 2)
    assert failed.value.reason == "identification"
    assert (failed.value.lhs, failed.value.rhs) == (apq(g, 1, 2), apq_identity(g, 1, 2))
    monkeypatch.undo()
    ctx.memo.clear()


def test_apq_symmetric_in_its_pair():
    # the memo keys A on the unordered pair, so both orders must give one value
    rng = random.Random(23)
    seen = dict.fromkeys(("loop", "bridge", "parallel"), False)
    for _ in range(40):
        g = families.random_connected(rng, 6, 11)
        ends = [frozenset((a, b)) for a, b, _ in g.edges]
        seen["loop"] |= any(len(e) == 1 for e in ends)
        seen["bridge"] |= bool(bridges(g))
        seen["parallel"] |= len(set(ends)) < len(ends)
        memo = context(g).memo
        for p in range(g.vcount):
            for q in range(p + 1, g.vcount):
                memo.clear()
                forward = apq(g, p, q)
                memo.clear()
                assert apq(g, q, p) == forward
                assert apq(g, p, q) is apq(g, q, p)
    assert all(seen.values()), seen


def test_apq_checked_evaluates_routes_past_the_memo(monkeypatch):
    import mgt.suite

    # a graph no other test builds, so its memo holds only what this test puts there
    g = build_graph(3, [(0, 1, F(2, 9)), (1, 2, F(4, 5)), (2, 0, F(1, 7)), (1, 1, F(3, 4))])
    memo = context(g).memo
    value = apq(g, 2, 1)
    [key] = memo
    calls = []
    for name in ("apq_identity", "apq_direct"):
        original = getattr(mgt.suite, name)
        monkeypatch.setattr(mgt.suite, name,
                            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    assert _apq_checked(g, 1, 2) == value
    assert sorted(calls) == ["apq_direct", "apq_identity"]
    memo[key] = value + F(1, 10**9)  # a wrong closed-form entry must not pass the check
    with pytest.raises(_Fail) as failed:
        _apq_checked(g, 1, 2)
    assert (failed.value.reason, failed.value.lhs, failed.value.rhs) == ("identification", memo[key], value)
