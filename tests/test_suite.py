"""The identity catalog of mgt.suite: its ids and run order, the runner, and the fault table.

An identity's Tier-1 home is the pinned seed-1 verify of ``tests/test_acceptance.py``, where it
must pass on at least 25 of the 200 graphs, plus its row of ``_FAULT_ROWS`` below, which must fail
it under a wrong value of what it reads; ``_UNFAULTED`` names the identities that no fault fails
yet. No unit test runs a catalog comparison again on graphs of its own.
"""

import random
import re
from fractions import Fraction as F
from functools import partial

import pytest

import mgt.circuit
import mgt.ops
import mgt.suite
import mgt.tau
from mgt import families
from mgt.graph import bridges, build_graph, normalize
from mgt.rational import INF
from mgt.reduction import reduce_to_terminals
from mgt.suite import (
    CHECKS,
    GraphGenerator,
    identity_catalog,
    run_graph_checks,
    run_suite,
)
from mgt.circuit import GraphContext, GreenUpdate, KirchhoffState, context
from mgt.tau import cubic_sum, tau_of
from oracles import family_graphs, necklace_cubic_sum, necklace_edge_resistances
from test_linalg import _spy_on_factorizations

REQUIRED_IDS = [  # in run order, which is also the order the checks of a graph draw in
    "eq1.1-voltage", "genus-identity", "canonical-measure-mass", "lem2term", "rem2term",
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
    # moving a check moves the entry, and with it every later draw from the graph's rng
    assert REQUIRED_IDS == [entry[0] for entry in CHECKS]


def test_catalog_entries_resolve_to_checks():
    ids = {cid for cid, _, _, _, _ in CHECKS}
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

    cid, description, anchor, needs, _ = CHECKS[0]
    cases = [
        (lambda g, rng: (1, 1), (1, 1, "pass", "")),
        (raising(suite._Fail(1, 2, "tag")), (1, 2, "fail", "tag")),
        (raising(suite._Skip("why")), (None, None, "skip", "why")),
        (raising(TooLarge("big")), (None, None, "skip", "big")),
        (raising(MgtError("x")), (None, None, "fail", "error: x")),
    ]
    for fn, expected in cases:
        monkeypatch.setattr(suite, "CHECKS", [(cid, description, anchor, needs, fn), *CHECKS[1:]])
        assert run_graph_checks("g", families.diamond(1), random.Random(0), {cid}) == [
            (cid, "g", *expected)]


def test_a_check_called_alone_returns_what_the_runner_reports():
    g = families.complete(4, F(1, 2))
    fn = {cid: fn for cid, _, _, _, fn in CHECKS}["thmtwopunion"]  # draws a companion graph and a pair
    lhs, rhs = fn(g, random.Random("alone"))
    (result,) = run_graph_checks("k4", g, random.Random("alone"), {"thmtwopunion"})
    assert (result.status, result.lhs, result.rhs) == ("pass", lhs, rhs)


def test_declared_hypotheses_match_the_skips_they_cover():
    # a skip for a reason of the hypothesis table comes from an entry that declares
    # that hypothesis, except in the three bodies that draw or test a budget before
    # they test two vertices; every declared hypothesis skips where it fails
    from mgt.suite import _HYPOTHESES

    body_sites = {"thmtwopunion", "thm-twopunion-Apq", "thm-smaller-tau-decrease"}
    needs = {entry[0]: entry[3] for entry in CHECKS}
    by_reason = {reason: name for name, (_, reason) in _HYPOTHESES.items()}
    graphs = {"circle": families.circle(),  # one vertex and its loop
              "tree": families.path(1, 2, 3),  # every edge a bridge
              "bridge_loop": build_graph(3, [(0, 1, F(1, 2)), (1, 2, F(1, 3)), (1, 2, F(1, 4)),
                                             (2, 2, F(1, 5))])}  # a bridge, a proper pair, a loop
    failed, skips = set(), []
    for descriptor, g in graphs.items():
        results = run_graph_checks(descriptor, g, random.Random(0))
        unmet = [name for name, (holds, _) in _HYPOTHESES.items() if not holds(g)]
        failed.update(unmet)
        skips.append(sum(r.status == "skip" for r in results))
        for r in results:
            if r.reason in by_reason and r.identity not in body_sites:
                assert by_reason[r.reason] in needs[r.identity], r
            first = next((name for name in needs[r.identity] if name in unmet), None)
            if first is not None:
                assert (r.status, r.reason) == ("skip", _HYPOTHESES[first][1]), r
    assert failed == set(_HYPOTHESES) and skips == [18, 12, 6]
    (voltage,) = run_graph_checks("circle", graphs["circle"], random.Random(0), {"eq1.1-voltage"})
    assert (voltage.status, voltage.reason) == ("skip", "needs two vertices")


def test_run_graph_checks_on_fixed_graph():
    g = families.diamond(1)
    results = run_graph_checks("diamond", g, random.Random("t"), None)
    assert all(r.status != "fail" for r in results)


def test_a_build_over_the_size_limit_is_a_skip_not_a_fail(monkeypatch):
    # the size limit refuses the split, subdivision and tower that these checks
    # build from K5; that says nothing about the identities, so they skip. The
    # split implication reads the split's closed form and builds nothing, so it runs
    import mgt.graph

    over = {"thmdouble", "thmdoubledivision", "lemdivisione", "thm-twopunion2-tower"}
    ids = over | {"thmdoubleimp-implication"}
    g = families.complete(5)  # 5 vertices, 10 edges; a tower of 4 copies has 14 vertices
    passed = {r.identity: r.status for r in run_graph_checks("K5", g, random.Random("t"), ids)}
    assert set(passed.values()) == {"pass"}
    monkeypatch.setattr(mgt.graph, "MAX_VERTICES", 10)
    monkeypatch.setattr(mgt.graph, "MAX_EDGES", 15)
    results = {r.identity: r for r in run_graph_checks("K5", g, random.Random("t"), ids)}
    assert set(results) == ids
    assert results.pop("thmdoubleimp-implication").status == "pass"
    for r in results.values():
        assert r.status == "skip" and "exceeds the limit" in r.reason, r


def test_split_implication_builds_no_split(monkeypatch):
    # the implication reads the parallel split's closed form; it builds no split graph
    def refuse(*args):
        raise AssertionError("da_n called")

    monkeypatch.setattr(mgt.suite, "da_n", refuse)
    for index, (descriptor, g) in enumerate(GraphGenerator(1).graphs(10)):
        (result,) = run_graph_checks(descriptor, g, random.Random(index), {"thmdoubleimp-implication"})
        assert (result.status, result.lhs, result.rhs) == ("pass", tau_of(normalize(g)), F(1, 108))


def test_necklace_class_resistances_match_direct_engine():
    # validate the symmetry-class reduction against per-edge deletion
    for a, b, t in ((F(1, 10), F(1, 12), 2), (F(1, 20), F(1, 50), 3)):
        g = families.necklace(a, b, t)
        res = necklace_edge_resistances(a, b, t)
        ctx = context(g)
        ring_ids = list(range(5 * t, 6 * t))
        side_ids = [5 * k + j for k in range(t) for j in (0, 1, 2, 3)]
        diag_ids = [5 * k + 4 for k in range(t)]
        assert all(ctx.res_deleted(i) == res["ring"] for i in ring_ids)
        assert all(ctx.res_deleted(i) == res["side"] for i in side_ids)
        assert all(ctx.res_deleted(i) == res["diagonal"] for i in diag_ids)
        assert necklace_cubic_sum(a, b, t) == cubic_sum(g)


def test_the_catalog_keeps_no_graph_it_builds(monkeypatch):
    # after the whole catalog the only graphs still holding a solver context are
    # the input, its normalized copy and the suite's module-level menus
    import gc
    import weakref

    import mgt.suite as suite
    from mgt.circuit import GraphContext
    from mgt.graph import normalize

    solved = []
    of = GraphContext.of
    monkeypatch.setattr(GraphContext, "of",
                        staticmethod(lambda g: solved.append(weakref.ref(g)) or of(g)))
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


def test_successive_changes_factorize_only_g_and_the_changed_graph(monkeypatch):
    # the formula side carries g's integers through every length change, so the
    # check factorizes g and, as the built side, the changed graph: no g_i
    graphs = [(d, g) for d, g in GraphGenerator(1).graphs(48) if g.vcount > 1]  # one vertex: no pass
    dets = _spy_on_factorizations(monkeypatch)
    results = [r for index, (descriptor, g) in enumerate(graphs)
               for r in run_graph_checks(descriptor, g, mgt.suite._checks_rng(1, index), {"lemsuccessedgeext"})]
    assert {r.status for r in results} == {"pass", "skip"}
    bridgeless = sum(not bridges(g) for _, g in graphs)
    assert bridgeless > 20 and len(dets) == 2 * bridgeless



# Every identity that a fault can fail, run alone: its honest passes are failed
# comparisons under the fault, never a pass by construction nor an "error:" string.
_EPS = F(1, 10**9)


def _after(monkeypatch, owner, name, tweak):
    """``owner.name`` with its result ``out`` replaced by ``tweak(out, *args)``."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: tweak(original(*args), *args))


def _plus_eps(monkeypatch, *targets, eps=_EPS):
    for owner, name in targets:
        _after(monkeypatch, owner, name, lambda out, *args: out + eps)


def _last_plus_1(num):
    """An integer matrix with one unit more in its last entry."""
    return [*num[:-1], [*num[-1][:-1], num[-1][-1] + 1]]


def _stored_conductance(monkeypatch, g):
    reduce_to_terminals(g, ())  # stores the graph's network
    a, b, _ = next(e for e in g.edges if e.a != e.b)
    stored = g.__dict__["_network"]
    monkeypatch.setitem(stored[a], b, stored[a][b] + 1)
    monkeypatch.setitem(stored[b], a, stored[b][a] + 1)


def _tau_minus_eps(monkeypatch, g):
    _plus_eps(monkeypatch, (mgt.tau, "tau_of"), (mgt.suite, "tau_of"), (mgt.ops, "tau_of"), eps=-_EPS)
    monkeypatch.delitem(g.__dict__, "_context", raising=False)  # lower_bound_suite memoizes its rows there


def _last_green_numerator(monkeypatch, g):
    _after(monkeypatch, mgt.circuit, "green_numden", lambda out, *args: (_last_plus_1(out[0]), out[1]))
    monkeypatch.delitem(g.__dict__, "_context", raising=False)  # so the faulted run factorizes g again


# fault name -> installer(monkeypatch, graph). A and tau are faulted wherever the catalog imports them,
# by whichever name; every base's tau is its own sum; the rewrites of eq1.1-voltage must not
# agree with a wrong network; the successive changes compare their chain with a factorization
_FAULTS = {
    "tau-plus-eps": lambda m, g: _plus_eps(m, (mgt.suite, "tau_of"), (mgt.ops, "tau_of")),
    "tau-minus-eps": _tau_minus_eps,
    "r-plus-eps": lambda m, g: _after(m, GraphContext, "r", lambda out, cx, y, z: out + _EPS if y != z else out),
    "res-deleted-plus-eps": lambda m, g: _after(m, GraphContext, "res_deleted", lambda out, *args: (
        out if out is INF else out + _EPS)),
    "last-green-numerator": _last_green_numerator,
    "closed-A": lambda m, g: _plus_eps(m, (mgt.suite, "apq"), (mgt.ops, "apq")),
    "deleted-A": lambda m, g: _plus_eps(m, (mgt.suite, "deleted_apq"), (mgt.tau, "deleted_apq"),
                                        (mgt.ops, "deleted_apq"), (mgt.suite, "deleted_apq_of")),
    "identification-A": lambda m, g: _plus_eps(m, (mgt.suite, "apq_identity")),
    "integral-A": lambda m, g: _plus_eps(m, (mgt.suite, "apq_direct")),
    "arms-at-base-1": lambda m, g: _after(m, mgt.suite, "_arm_sums", lambda out, graph, base: (
        tuple(x + _EPS for x in out) if base == 1 else out)),
    "potential-at-last-base": lambda m, g: _after(m, GraphContext, "potentials", lambda pot, cx, p=0: (
        [pot[0] + 1, *pot[1:]] if p == g.vcount - 1 else pot)),
    "stored-conductance": _stored_conductance,
    "carried-numerator": lambda m, g: _after(m, KirchhoffState, "with_length", lambda state, *args: (
        KirchhoffState(state.edges, _last_plus_1([state.row(y) for y in range(state.vcount)]), state.den))),
    "update-entry": lambda m, g: _after(m, GreenUpdate, "divided", lambda out, *args: _last_plus_1(out)),
}


def _corpus(min_vertices=1):
    return [(d, g) for d, g in GraphGenerator(1).graphs(48) if g.vcount >= min_vertices]


def _nth(n):
    """Corpus graph ``n`` alone, with the rng of its run in the corpus."""
    return lambda: _corpus()[n:n + 1], lambda i: mgt.suite._checks_rng(1, n)


# (graphs, the rng of graph i's run): the instances each fault was first drawn on. K4's lengths are
# 2/3, so a formula that drops or adds a factor of a length numerator changes its honest values
_K4 = lambda: [("k4", families.complete(4, 4))], lambda i: random.Random(5)
_CORPUS = _corpus, partial(mgt.suite._checks_rng, 1)
_TREE = lambda: [("path", families.path(1, 2, 3))], lambda i: random.Random(0)  # tau = l/4 exactly
# tau = l/12 on one loop: the equal-length and deleted-resistance lower bounds hold with equality
_LOOP = lambda: [("circle", families.circle(1))], lambda i: random.Random(0)
_THREE = lambda: _corpus(3)[:1], lambda i: random.Random(3)  # 3 vertices: its last base is 2
_FOUR = lambda: _corpus(4)[:1], lambda i: random.Random(2)

# (identity, fault, graphs, rng, the fail's reason as a full-match pattern or None, rhs - lhs or None)
_FAULT_ROWS = [
    *((cid, "closed-A", *_K4, None, None) for cid in (
        "thmmagnificent", "thmmaggen", "cormaggen1", "cormaggen2", "thm-smaller-tau-decrease",
        "thmtwopunion", "cor1twopunion", "coradding1", "coradding2", "thm-twopunion-Apq",
        "corlem-twopunion-Apq", "thm-twopunion2-tower", "propAadditive")),
    ("thmremain-equivalences", "closed-A", *_K4, "closed form", _EPS),
    *((cid, fault, *_K4, reason, delta) for cid in ("corpropAcircle", "propAtree", "propAbanana")
      for fault, reason, delta in (("closed-A", "identification", -_EPS),
                                   ("identification-A", "identification", _EPS),
                                   ("integral-A", "integral", _EPS))),
    *((cid, "deleted-A", *_K4, None, None) for cid in (
        "cor2twopunion", "cor2twopunion2", "lemedgeext", "lemsuccessedgeext", "thmbasic2",
        "lemcontract1", "lemcontract2", "lemApq")),
    *((cid, "arms-at-base-1", *_K4, None, None) for cid in ("lem2term", "rem2term")),
    ("valence-independence", "potential-at-last-base", *_THREE, "base 2", None),
    ("eq1.1-voltage", "stored-conductance", *_FOUR, r"j_\d+\(\d+,\d+\)", None),
    *(("lemsuccessedgeext", fault, *_CORPUS, None, None) for fault in ("carried-numerator", "update-entry")),
    *((cid, "tau-plus-eps", *_K4, None, None) for cid in (
        "scale-covariance", "thmbasic", "thmdouble", "thmdoubledivision", "proplembanana")),
    ("thmjpq2njpq-n0..3", "r-plus-eps", *_K4, "n=0", None),
    ("lemdivisione", "res-deleted-plus-eps", *_K4, None, None),
    *((cid, "last-green-numerator", *_K4, None, None) for cid in (
        "genus-identity", "canonical-measure-mass", "lemorthogonality", "lemdivision1")),
    ("FMM1-bounds", "tau-minus-eps", *_TREE, "tree equality case", None),
    *((cid, "tau-minus-eps", *_LOOP, None, None) for cid in ("thmeqlength", "thmeqlength2", "thmcorineqsumR4")),
    ("corbasic2", "last-green-numerator", *_nth(0), None, None),
    ("coradd-bridge-contraction", "last-green-numerator", *_nth(6), None, None),
]
# the identities no fault above fails yet: each is a gap to close with a row
_UNFAULTED = {"thm2term", "thmdoubleimp-implication"}


def test_every_identity_has_a_fault_row_or_is_named_unfaulted():
    faulted = {row[0] for row in _FAULT_ROWS}
    assert not faulted & _UNFAULTED
    assert faulted | _UNFAULTED == {cid for cid, _, _ in identity_catalog()}


@pytest.mark.parametrize("cid, fault, graphs, rng, reason, delta", _FAULT_ROWS,
                         ids=[f"{row[0]}-{row[1]}" for row in _FAULT_ROWS])
def test_a_fault_fails_the_identity(monkeypatch, cid, fault, graphs, rng, reason, delta):
    passed = 0
    for index, (descriptor, g) in enumerate(graphs()):
        (honest,) = run_graph_checks(descriptor, g, rng(index), {cid})
        assert honest.status != "fail", honest
        if honest.status == "skip":
            continue
        passed += 1
        with monkeypatch.context() as patch:
            _FAULTS[fault](patch, g)
            (faulted,) = run_graph_checks(descriptor, g, rng(index), {cid})
        assert faulted.status == "fail" and not faulted.reason.startswith("error: "), faulted
        assert reason is None or re.fullmatch(reason, faulted.reason), faulted
        if delta is not None:  # the closed form on the left, the route on the right
            assert faulted.rhs - faulted.lhs == delta and honest.lhs in (faulted.lhs, faulted.rhs)
    assert passed
