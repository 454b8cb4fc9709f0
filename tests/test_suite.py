import random
from fractions import Fraction as F

from mgt import families
from mgt.suite import (
    CHECKS,
    GraphGenerator,
    identity_catalog,
    run_graph_checks,
    run_suite,
)
from mgt.circuit import context
from mgt.tau import cubic_sum
from oracles import family_graphs, necklace_cubic_sum, necklace_edge_resistances, necklace_witness

REQUIRED_IDS = [
    "eq1.1-voltage", "genus-identity", "lem2term", "rem2term",
    "valence-independence", "scale-covariance", "thmjpq2njpq-n0..3",
    "lemorthogonality", "thmbasic", "thmremain-equivalences", "FMM1-bounds",
    "thmeqlength", "thmeqlength2", "thmcorineqsumR4", "thm2term", "thmdouble",
    "thmdoubledivision", "lemdivision1", "lemdivisione",
    "thmdoubleimp-implication", "thmmagnificent", "thmmaggen", "cormaggen1",
    "cormaggen2", "thm-smaller-tau-decrease", "thmtwopunion", "cor1twopunion",
    "cor2twopunion", "cor2twopunion2", "lemedgeext", "lemsuccessedgeext",
    "thmbasic2", "corbasic2", "lemcontract1", "lemcontract2", "coradding1",
    "coradding2", "thm-twopunion-Apq", "corlem-twopunion-Apq",
    "thm-twopunion2-tower", "corpropAcircle", "lemApq", "propAtree",
    "propAadditive", "propAbanana", "proplembanana", "coradd-bridge-contraction",
]


def test_catalog_size_and_required_ids():
    catalog = identity_catalog()
    assert len(catalog) >= 44
    ids = [cid for cid, _, _ in catalog]
    assert len(ids) == len(set(ids))
    for required in REQUIRED_IDS:
        assert required in ids, f"missing catalog entry {required}"
    assert "canonical-measure-mass" in ids


def test_catalog_entries_resolve_to_checks():
    ids = {cid for cid, _, _, _ in CHECKS}
    for cid, description, anchor in identity_catalog():
        assert cid in ids
        assert description and anchor


def test_suite_deterministic():
    a = run_suite(GraphGenerator(5).graphs(4), 5)
    b = run_suite(GraphGenerator(5).graphs(4), 5)
    assert a == b
    assert run_suite(GraphGenerator(6).graphs(4), 6) != a
    # the seed of the checks' rng alone changes what they draw
    assert run_suite(GraphGenerator(5).graphs(4), 6) != a


def test_suite_passes_on_random_corpus():
    results = run_suite(GraphGenerator(2).graphs(12), 2)
    failures = [r for r in results if r.status == "fail"]
    assert not failures, failures[:3]
    for r in results:
        if r.status == "skip":
            assert r.reason


def test_suite_family_generators():
    # every check passes or skips on the named families
    for family in ("complete", "banana", "circle_subdivided", "tree", "theta",
                   "cube-like", "diamond_necklace"):
        failures = [r for r in run_suite(family_graphs(3, family, 2), 3) if r.status == "fail"]
        assert not failures, (family, failures[:3])


def test_equal_length_identities_pass_on_equal_families():
    eq = [r for descriptor, g in family_graphs(4, "complete", 3)
          for r in run_graph_checks(descriptor, g, random.Random("t"), {"thmeqlength"})]
    assert len(eq) == 3 and all(r.status == "pass" for r in eq)


def test_identity_subset_filter():
    results = run_suite(GraphGenerator(1).graphs(2), 1, ["thmbasic", "genus-identity"])
    assert {r.identity for r in results} == {"thmbasic", "genus-identity"}


def test_an_empty_identity_list_is_refused():
    # None means every identity; an empty list names none, and used to run all 48
    import pytest

    from mgt.errors import UnknownIdentity

    graphs = list(GraphGenerator(1).graphs(1))
    assert len(run_suite(graphs, 1, None)) == len(CHECKS)
    for empty in ([], ()):
        with pytest.raises(UnknownIdentity):
            run_suite(graphs, 1, empty)
    with pytest.raises(UnknownIdentity):
        run_graph_checks("k4", families.complete(4), random.Random(0), set())


def test_each_return_or_raise_of_a_check_is_one_result(monkeypatch):
    # run_graph_checks is the one place that turns what a check does into a CheckResult
    import mgt.suite as suite
    from mgt.errors import MgtError, TooLarge

    def raising(exc):
        def check(g, rng):
            raise exc
        return check

    cid, description, anchor, _ = CHECKS[0]
    cases = [
        (lambda g, rng: (1, 1), (1, 1, "pass", "")),
        (raising(suite._Fail(1, 2, "tag")), (1, 2, "fail", "tag")),
        (raising(suite._Skip("why")), (None, None, "skip", "why")),
        (raising(TooLarge("big")), (None, None, "skip", "big")),
        (raising(MgtError("x")), (None, None, "fail", "error: x")),
    ]
    for fn, expected in cases:
        monkeypatch.setattr(suite, "CHECKS", [(cid, description, anchor, fn), *CHECKS[1:]])
        assert run_graph_checks("g", families.diamond(1), random.Random(0), {cid}) == [
            (cid, "g", *expected)]


def test_a_check_called_alone_returns_what_the_runner_reports():
    g = families.complete(4, F(1, 2))
    fn = {cid: fn for cid, _, _, fn in CHECKS}["thmtwopunion"]  # draws a companion graph and a pair
    lhs, rhs = fn(g, random.Random("alone"))
    (result,) = run_graph_checks("k4", g, random.Random("alone"), {"thmtwopunion"})
    assert (result.status, result.lhs, result.rhs) == ("pass", lhs, rhs)


def test_run_graph_checks_on_fixed_graph():
    g = families.diamond(1)
    results = run_graph_checks("diamond", g, random.Random("t"), None)
    assert all(r.status != "fail" for r in results)


def test_a_build_over_the_size_limit_is_a_skip_not_a_fail(monkeypatch):
    # the size limit refuses the split, subdivision and tower that these checks
    # build from K5; that says nothing about the identities, so they skip
    import mgt.graph

    over = {"thmdouble", "thmdoubledivision", "lemdivisione", "thmdoubleimp-implication",
            "thm-twopunion2-tower"}
    g = families.complete(5)  # 5 vertices, 10 edges; a tower of 4 copies has 14 vertices
    passed = {r.identity: r.status for r in run_graph_checks("K5", g, random.Random("t"), over)}
    assert set(passed.values()) == {"pass"}
    monkeypatch.setattr(mgt.graph, "MAX_VERTICES", 10)
    monkeypatch.setattr(mgt.graph, "MAX_EDGES", 15)
    results = run_graph_checks("K5", g, random.Random("t"), over)
    assert {r.identity for r in results} == over
    for r in results:
        assert r.status == "skip" and "exceeds the limit" in r.reason, r


def test_necklace_class_resistances_match_direct_engine():
    # validate the symmetry-class reduction against per-edge deletion
    for a, b, t in ((F(1, 10), F(1, 12), 2), (F(1, 20), F(1, 50), 3)):
        g = families.necklace(a, b, t)
        res = necklace_edge_resistances(a, b, t)
        profiles = context(g).edge_profiles(0)
        ring_ids = list(range(5 * t, 6 * t))
        side_ids = [5 * k + j for k in range(t) for j in (0, 1, 2, 3)]
        diag_ids = [5 * k + 4 for k in range(t)]
        assert all(profiles[i].res_deleted == res["ring"] for i in ring_ids)
        assert all(profiles[i].res_deleted == res["side"] for i in side_ids)
        assert all(profiles[i].res_deleted == res["diagonal"] for i in diag_ids)
        assert necklace_cubic_sum(a, b, t) == cubic_sum(g)


def test_necklace_witness():
    tau_check, cubic_check = necklace_witness()
    assert tau_check.status == "pass"
    assert cubic_check.status == "pass"
    assert tau_check.lhs > F(10, 121)
    assert cubic_check.lhs < F(1, 5000)


def test_operation_formulas_fail_when_a_is_perturbed(monkeypatch):
    # immersion, point identification and edge deletion predict tau from the
    # closed-form A (deletion from A of g - e); a wrong A must show up as a
    # failed check, not pass by construction
    import mgt.ops

    g = families.complete(4, F(1, 2))
    wanted = {"thmmaggen", "coradding2", "cor2twopunion"}
    honest = run_graph_checks("k4", g, random.Random(5), wanted)
    assert [r.status for r in honest] == ["pass", "pass", "pass"]
    for name in ("apq", "deleted_apq"):
        original = getattr(mgt.ops, name)
        monkeypatch.setattr(mgt.ops, name, lambda *args, f=original: f(*args) + F(1, 1000))
    perturbed = run_graph_checks("k4", g, random.Random(5), wanted)
    assert {r.identity: r.status for r in perturbed} == dict.fromkeys(wanted, "fail")


def test_integer_arm_sums_match_the_profile_route():
    # lem2term and rem2term read integer arm sums; the Fraction profile weights are the reference
    from oracles import deletion_test_graphs, weighted_arm_diff_sq, weighted_res_sq

    from mgt.suite import _arm_sums

    for g in deletion_test_graphs():
        cx, v = context(g), g.vcount
        by_base = {}
        for p in range(v):
            profiles = cx.edge_profiles(p)
            total = sum(weighted_arm_diff_sq(pr) for pr in profiles)
            off = sum(weighted_arm_diff_sq(pr) for pr in profiles if p not in g.edges[pr.edge][:2])
            assert _arm_sums(g, p) == (total, off), (g, p)
            by_base[p] = total, off
        lhs = by_base[0][0]
        rhs = (F(2, v) * sum(weighted_res_sq(pr) for pr in cx.edge_profiles(0))
               + F(1, v) * sum(off for _, off in by_base.values()))
        lem, rem = run_graph_checks("g", g, random.Random(3), {"lem2term", "rem2term"})
        assert (lem.status, lem.lhs, lem.rhs) == ("pass", lhs, rhs)
        assert (rem.status, rem.lhs) == ("pass", lhs)


def test_deletion_formulas_fail_when_deleted_a_is_perturbed(monkeypatch):
    # the length-change, attached-edge and bridgeless identities read A of g - e;
    # a wrong value must fail them, wherever it is imported
    import mgt.ops
    import mgt.suite
    import mgt.tau
    from mgt.ops import contract_edge
    from mgt.tau import tau_of

    g = families.complete(4, F(1, 2))
    wanted = {"lemedgeext", "lemsuccessedgeext", "lemApq", "thmbasic2"}
    honest = run_graph_checks("k4", g, random.Random(5), wanted)
    assert [r.status for r in honest] == ["pass"] * 4
    contracted = contract_edge(g, 0)
    assert contracted.predicted_tau == tau_of(contracted.graph)
    original = mgt.tau.deleted_apq
    for module in (mgt.suite, mgt.tau, mgt.ops):
        monkeypatch.setattr(module, "deleted_apq", lambda *args: original(*args) + F(1, 1000))
    perturbed = run_graph_checks("k4", g, random.Random(5), wanted)
    assert {r.identity: r.status for r in perturbed} == dict.fromkeys(wanted, "fail")
    contracted = contract_edge(g, 0)
    assert contracted.predicted_tau != tau_of(contracted.graph)


def test_arm_identities_fail_when_one_base_is_perturbed(monkeypatch):
    import mgt.suite

    g = families.complete(4, F(1, 2))
    wanted = {"lem2term", "rem2term"}
    honest = run_graph_checks("k4", g, random.Random(5), wanted)
    assert [r.status for r in honest] == ["pass", "pass"]
    original = mgt.suite._arm_sums

    def perturbed_arms(graph, base):
        total, off = original(graph, base)
        return (total + F(1, 1000), off + F(1, 1000)) if base == 1 else (total, off)

    monkeypatch.setattr(mgt.suite, "_arm_sums", perturbed_arms)
    perturbed = run_graph_checks("k4", g, random.Random(5), wanted)
    assert {r.identity: r.status for r in perturbed} == dict.fromkeys(wanted, "fail")


def test_the_catalog_keeps_no_graph_it_builds(monkeypatch):
    # after the whole catalog the only graphs still holding a solver context are
    # the input, its normalized copy and the suite's module-level menus
    import gc
    import weakref

    import mgt.suite as suite
    from mgt.circuit import GraphContext
    from mgt.graph import normalize

    solved = []
    init = GraphContext.__init__
    monkeypatch.setattr(GraphContext, "__init__",
                        lambda self, g: solved.append(weakref.ref(g)) or init(self, g))
    menus = (suite._small_marked_graphs, suite._common_resistance_menu, suite._three_arc_circle)
    for menu in menus:  # built anew, so their contexts are counted here too
        menu.cache_clear()
    descriptor, g = list(GraphGenerator(1).graphs(6))[5]
    results = run_graph_checks(descriptor, g, suite._checks_rng(1, 5))
    assert "fail" not in {r.status for r in results}
    gc.collect()
    alive = {id(x) for x in (ref() for ref in solved) if x is not None}
    kept = {id(g), id(normalize(g)), id(suite._three_arc_circle())}
    kept |= {id(beta) for menu in menus[:2] for beta, _, _ in menu()}
    assert len(solved) > 20 and alive == kept
    assert len(alive) == 8
