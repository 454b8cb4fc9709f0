"""Every comparison of mgt's integer Green kernel with an independent route, as one table.

Each row of ``_ROWS`` is (id, graphs, instances, kernel, oracle, floor). ``graphs`` gives a
graph list of ``tests/oracles.py``; ``instances(g)`` lists each instance on g as (kind,
*args); ``kernel(g, *args)`` must equal ``oracle(g, *args)`` exactly, or both must raise
BridgeDeletion. ``floor`` holds the least count of "graphs" (those with an instance),
"instances" and named kinds: at least what the tests that the row replaced compared.
"""

import random
from collections import Counter, namedtuple
from fractions import Fraction as F
from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from operator import itemgetter

import pytest

from mgt import families
from mgt.circuit import GreenUpdate, KirchhoffState, context, resistance
from mgt.errors import BridgeDeletion
from mgt.graph import bridges, build_graph, identify_points_graph, normalize
from mgt.integration import (TAG_J_BASE_P, TAG_J_BASE_Q, TAG_J_BASE_X, TAG_R_FROM_P, apq_direct,
                             edge_tag_polynomials, integrate_product)
from mgt.linalg import green_numden
from mgt.ops import immerse, parallel_sum
from mgt.reduction import resistance_via_reduction, voltage_via_reduction
from mgt.suite import _arm_sums, _common_resistance_menu, _small_marked_graphs, _three_arc_circle, run_graph_checks
from mgt.tau import (apq, apq_identity, deleted_apq, deleted_apq_of, lower_bound_suite, tau_edge_sum,
                     tau_gradient, tau_of)
from oracles import (bridges_by_deletion, corpus_graphs, deleted_graph, deletion_arm_sums, deletion_bounds,
                     deletion_graphs, deletion_gradient, deletion_parallel_sum, edge_profile, edge_tau_contribution,
                     fit_graphs, glued_graphs, identification_apq, inverse_graphs, kernel_graphs, kirchhoff_number,
                     product_integral, random_graphs, sampled_tag_polynomials, spanning_tree_resistance,
                     successive_length_steps, sympy_green, tau_via_integral, two_step_immersion)


Row = namedtuple("Row", "id graphs instances kernel oracle floor")


_whole = lambda g: [("graph",)]
_bases = lambda g: [("base", p) for p in range(g.vcount)]
_pairs = lambda g: [("same point" if p == q else "pair", p, q) for p, q in product(range(g.vcount), repeat=2)]
_distinct_pairs = lambda g: [("pair", p, q) for p, q in permutations(range(g.vcount), 2)]
_unordered_pairs = lambda g: [("pair", y, z) for y, z in combinations(range(g.vcount), 2)]
_draws = lambda g, salt: random.Random(f"{salt}:{g!r}")  # a random stream per graph and use


def _edges(g):
    cut = set(bridges(g))
    return [("loop" if a == b else "bridge" if i in cut else "cycle", i) for i, (a, b, _) in enumerate(g.edges)]


# -- the Green matrix, and rank-one updates of g's integers against each graph built anew --


def _green(g):
    num, den = green_numden(g.vcount, g.edges)
    return den > 0, [[F(x, den) for x in row] for row in num]


def _update(g, a, b, m, n, skip=None):
    """Every r read off one GreenUpdate of g's integers (an edge of length m/n added between
    a and b), from res_num and from the diagonal and rows, and every edge row but ``skip``'s."""
    cx, v = context(g), range(g.vcount)
    update = GreenUpdate(cx.num, cx.den, a, b, m, n)
    d, diag, rows = update.den, update.diag(), [update.row(y) for y in v]
    kept = [row for j, row in enumerate(cx.rows) if j != skip]
    return (d > 0, [[F(update.res_num(y, z), d) for z in v] for y in v],
            [[F(diag[y] + diag[z] - 2 * rows[y][z], d) for z in v] for y in v],
            [(ea, eb, F(rn, d), F(gap, ld * d)) for ea, eb, _, ld, rn, gap in update.rows(kept)])


def _built(g, built, ids=None, skip=None):
    """The same readings off ``built``, factorized on its own, where g's vertex y is ids[y]."""
    r, v, ids = context(built).r, range(g.vcount), ids or range(g.vcount)
    matrix = [[r(ids[y], ids[z]) for z in v] for y in v]
    return (True, matrix, matrix, [(a, b, r(ids[a], ids[b]), length - r(ids[a], ids[b]))
                                   for j, (a, b, length) in enumerate(g.edges) if j != skip])


def _added(g):
    rng = _draws(g, "added")
    return [("added", rng.randrange(g.vcount), rng.randrange(g.vcount), F(rng.randint(1, 9), rng.randint(1, 9)))]


def _deleted(g):
    """One random edge that is no bridge, if there is one."""
    cycle = [i for kind, i in _edges(g) if kind != "bridge"]
    return [("deleted", _draws(g, "deleted").choice(cycle))] if cycle else []


def _glued(g, a, b):
    keep, drop = min(a, b), max(a, b)
    return _built(g, identify_points_graph(g, a, b), [keep if y == drop else y - (y > drop) for y in range(g.vcount)])


def _matrix(g, r):
    return [[r(y, z) for z in range(g.vcount)] for y in range(g.vcount)]


def _new_lengths(g):
    """Each edge's length halved plus a random p/q with p, q <= 8."""
    rng = _draws(g, "lengths")
    return tuple(length / 2 + families.random_length(rng, 8, 8) for _, _, length in g.edges)


def _length_steps(g):
    lengths = () if bridges(g) else _new_lengths(g)
    return [("loop" if a == b else "shrink" if new < old else "grow", lengths, i)
            for i, ((a, b, old), new) in enumerate(zip(g.edges, lengths))]


@lru_cache(maxsize=1)  # a graph's instances come one after another
def _chain(g, lengths):
    """(R, A) of each g_i - e_i read off the carried states, None at a loop, and the last state."""
    state, steps = KirchhoffState.of(g), []
    for i, length in enumerate(lengths):
        a, b, ln, _, rn, gap = state.rows[i]
        steps.append(None if a == b else (F(ln * rn, gap), deleted_apq_of(state, i)))
        state = state.with_length(i, length)
    return steps, state


_fresh_steps = lru_cache(maxsize=1)(successive_length_steps)
_changed = lambda g, lengths: build_graph(g.vcount, [(a, b, new) for (a, b, _), new in zip(g.edges, lengths)])
_over_den = lambda state: ([[F(x, state.den) for x in row] for row in state.num], state.rows)

# -- edge polynomials and their integrals ------------------------------------------------

# every term list the identity catalog and the integral routes pass to integrate_product
CATALOG_TERMS = [
    *([(TAG_J_BASE_P, True, 2), (TAG_J_BASE_P, False, n)] for n in range(4)),
    [(TAG_J_BASE_X, True, 1), (TAG_J_BASE_P, True, 1)], [(TAG_J_BASE_X, True, 2)],
    [(TAG_J_BASE_X, False, 1), (TAG_J_BASE_P, True, 2)],
    [(TAG_J_BASE_P, False, 1), (TAG_J_BASE_P, True, 1), (TAG_J_BASE_X, True, 1)],
    [(TAG_J_BASE_Q, False, 1), (TAG_J_BASE_P, True, 1), (TAG_J_BASE_X, True, 1)],
    [(TAG_R_FROM_P, False, 1), (TAG_J_BASE_P, True, 2)], [(TAG_R_FROM_P, True, 2)],
]
# single factors: each tag as a value and as a slope at powers 0-3, then the empty product
# (the total length); the catalog never passes most of these alone
SINGLE_TERMS = [[(tag, deriv, n)] for tag in (TAG_J_BASE_P, TAG_J_BASE_Q, TAG_J_BASE_X, TAG_R_FROM_P)
                for deriv in (False, True) for n in range(4)] + [[]]
_products = lambda term_lists: lambda g: [("product", p, q, terms) for p, q in product(range(g.vcount), repeat=2)
                                          for terms in term_lists]

# -- the per-edge sums of the kernel against the paper's deletion route ------------------


def _tau_terms(g, p):
    report = tau_edge_sum(g, p)
    return [c for _, c, _ in report.per_edge], [res for _, _, res in report.per_edge], report.tau, tau_of(g)


def _deletion_terms(g, p):
    profiles = [edge_profile(g, i, p) for i in range(g.ecount)]
    terms = [edge_tau_contribution(pr) for pr in profiles]
    return terms, [pr.res_deleted for pr in profiles], sum(terms), sum(terms)


def _bound_sums(g):
    rows = {c.bound: c for c in lower_bound_suite(g)}
    deleted, square = rows["deleted-resistance-sum"], rows["weighted-deleted-square"]
    return deleted.applicable, deleted.lhs, square.lhs, square.rhs


def _two_term_checks(g):
    lem, rem = run_graph_checks("g", g, random.Random(3), {"lem2term", "rem2term"})
    return (lem.status, lem.lhs, lem.rhs), (rem.status, rem.lhs)


def _profile_two_terms(g):
    """lem2term's sides from the deletion profiles: the arm sum at 0, and 2/v sum L R^2/(L+R)^2
    (limit L across a bridge) plus 1/v the sum over bases of each arm sum off its base."""
    v, lhs = g.vcount, deletion_arm_sums(g, 0)[0]
    profiles = [edge_profile(g, i, 0) for i in range(g.ecount)]
    res_sq = sum(pr.length if pr.bridge else pr.length * (pr.res_deleted / (pr.length + pr.res_deleted)) ** 2
                 for pr in profiles)
    rhs = F(2, v) * res_sq + F(1, v) * sum(deletion_arm_sums(g, p)[1] for p in range(v))
    return ("pass", lhs, rhs), ("pass", lhs)


def _apq_of_deleted_graph(g, i):
    deleted, (p, q) = deleted_graph(g, i)
    return apq(deleted, p, q)


# -- operations, against their constructions the long way --------------------------------


def _markings(g):
    """The suite's uniform, mixed, common-resistance and three-arc markings of g's edges, and
    two equal but distinct marked graphs, which share one layout, each mark pair its own."""
    kind = "bridged-looped host" if bridges(g) and any(a == b for a, b, _ in g.edges) else "host"
    e, menu, common = g.ecount, _small_marked_graphs(), _common_resistance_menu()
    pairs = [(0, 1), (1, 2), (0, 2)]
    twins = [families.circle(F(1, 2), F(1, 4), F(1, 4)) for _ in range(2)]
    return [(kind, betas) for betas in [*([marked] * e for marked in menu[:3]),
                                        [menu[i % len(menu)] for i in range(e)], [common[i % 2] for i in range(e)],
                                        [(_three_arc_circle(), *pairs[i % 3]) for i in range(e)],
                                        [(twins[i % 2], *pairs[i // 2 % 2]) for i in range(e)]]]


_ARCS = families.circle(F(1, 2), F(1, 3), F(1, 6))
_MENU = [(families.equal_banana(2), 0, 1), (families.segment(1), 0, 1), (_ARCS, 0, 1), (_ARCS, 1, 2),
         (families.path(F(1, 2), F(1, 2)), 2, 0)]
# 1 to 5 marked graphs cycled over the edges, at each shift, so that groups span several edges
_grouped_markings = lambda g: [("marking", [_MENU[(shift + i % kinds) % 5] for i in range(g.ecount)])
                               for kinds in range(1, 6) for shift in range(5)]
_vertices_and_edges = lambda built: (built.vcount, built.edges)

_ROWS = [
    # the Green matrix, by an outside exact inverse and by enumeration
    Row("green-inverse", inverse_graphs, _whole, _green, lambda g: (True, sympy_green(g)), {"graphs": 113}),
    Row("resistance-spanning-trees", random_graphs, _unordered_pairs, resistance, spanning_tree_resistance,
        {"graphs": 25, "instances": 25}),
    Row("bridges-exhaustive-deletion", random_graphs, _whole, bridges, bridges_by_deletion, {"graphs": 40}),
    Row("kirchhoff-number", deletion_graphs,
        lambda g: [("graph", ()), ("changed", _new_lengths(g))] if g.ecount <= 12 else [],
        lambda g, lengths: reduce(lambda state, change: state.with_length(*change), enumerate(lengths),
                                  KirchhoffState.of(g)).den,
        lambda g, lengths: kirchhoff_number(_changed(g, lengths) if lengths else g),
        {"graphs": 28, "instances": 33, "changed": 5}),
    # an edge deleted, added or glued, and length changes, read off g's own integers
    Row("deletion-profiles", random_graphs,
        lambda g: [(kind, p, i) for p in range(g.vcount) for kind, i in _edges(g)],
        lambda g, p, i: context(g).edge_profiles(p)[i], lambda g, p, i: edge_profile(g, i, p),
        {"graphs": 20, "instances": 698, "bridge": 1}),
    Row("r-deleted", deletion_graphs, _edges, lambda g, i: _matrix(g, lambda y, z: context(g).r_deleted(i, y, z)),
        lambda g, i: _matrix(g, context(deleted_graph(g, i)[0]).r),
        {"graphs": 30, "instances": 306, "cycle": 51, "loop": 4, "bridge": 4}),
    Row("green-update-added", lambda: corpus_graphs(160), _added,
        lambda g, a, b, length: _update(g, a, b, *length.as_integer_ratio()),
        lambda g, a, b, length: _built(g, build_graph(g.vcount, [*g.edges, (a, b, length)])), {"graphs": 150}),
    Row("green-update-deleted", lambda: corpus_graphs(160), _deleted,
        lambda g, i: _update(g, g.edges[i].a, g.edges[i].b, -g.edges[i].length.numerator,
                             g.edges[i].length.denominator, i),
        lambda g, i: _built(g, deleted_graph(g, i)[0], skip=i), {"graphs": 140}),
    Row("green-update-glued", lambda: corpus_graphs(160),
        lambda g: [("glued", *_draws(g, "glued").sample(range(g.vcount), 2))] if g.vcount > 1 else [],
        lambda g, a, b: _update(g, a, b, 0, 1), _glued, {"graphs": 150}),
    Row("length-chain-steps", corpus_graphs, _length_steps,
        lambda g, lengths, i: _chain(g, lengths)[0][i], lambda g, lengths, i: _fresh_steps(g, lengths)[i],
        {"graphs": 101, "instances": 1379, "shrink": 101}),
    Row("length-chain-state", corpus_graphs, lambda g: [] if bridges(g) else [("graph", _new_lengths(g))],
        lambda g, lengths: _over_den(_chain(g, lengths)[1]),
        lambda g, lengths: _over_den(KirchhoffState.of(_changed(g, lengths))), {"graphs": 101}),
    # the edge polynomials and their integrals, against sampled fits and Fraction arithmetic
    Row("tag-polynomials", fit_graphs,
        lambda g: [("edge", p, q, i) for p, q, i in product(range(g.vcount), range(g.vcount), range(g.ecount))],
        edge_tag_polynomials, sampled_tag_polynomials, {"graphs": 12, "instances": 3857}),
    Row("integer-products", fit_graphs, _products(CATALOG_TERMS), integrate_product, product_integral,
        {"graphs": 12, "instances": 4081}),
    # K5, a tree and a circle
    Row("single-factors", lambda: itemgetter(0, 2, 11)(fit_graphs()), _products(SINGLE_TERMS), integrate_product,
        product_integral, {"graphs": 3, "instances": 1947}),
    Row("tau-integral", random_graphs, _bases, lambda g, p: tau_of(g), tau_via_integral,
        {"graphs": 11, "instances": 12}),
    Row("apq-energy-integral", fit_graphs, _distinct_pairs, apq_identity, apq_direct,
        {"graphs": 11, "instances": 314}),
    # the star-mesh reduction, which factorizes nothing
    Row("reduction-resistance", lambda: corpus_graphs(70), _unordered_pairs, lambda g, y, z: context(g).r(y, z),
        resistance_via_reduction, {"graphs": 65, "instances": 483}),
    Row("reduction-voltage", lambda: corpus_graphs(40),
        lambda g: [("triple", x, p, q) for x in range(g.vcount)
                   for p, q in combinations([y for y in range(g.vcount) if y != x], 2)],
        lambda g, x, p, q: context(g).voltage(x, p, q), voltage_via_reduction, {"graphs": 30, "instances": 1740}),
    # operations
    Row("immerse-two-step", lambda: corpus_graphs(40), _markings,
        lambda g, betas: _vertices_and_edges(immerse(normalize(g), betas).graph),
        lambda g, betas: _vertices_and_edges(two_step_immersion(normalize(g), betas)),
        {"graphs": 40, "instances": 280, "bridged-looped host": 1}),
    Row("immerse-prediction", lambda: deletion_graphs()[-2:], _grouped_markings,  # a bridge, a loop
        lambda g, betas: immerse(normalize(g), betas).predicted_tau,
        lambda g, betas: tau_of(immerse(normalize(g), betas).graph), {"graphs": 2, "instances": 50}),
    Row("parallel-sum", kernel_graphs, _whole, parallel_sum, deletion_parallel_sum, {"graphs": 43}),
    # the per-edge sums of the kernel against the deletion route
    Row("arm-sums", deletion_graphs, _bases, _arm_sums, deletion_arm_sums, {"graphs": 42, "instances": 180}),
    Row("two-term-checks", deletion_graphs, _whole, _two_term_checks, _profile_two_terms, {"graphs": 42}),
    Row("tau-terms", kernel_graphs, _bases, _tau_terms, _deletion_terms, {"graphs": 63, "instances": 310}),
    Row("bound-sums", kernel_graphs, _whole, _bound_sums, deletion_bounds, {"graphs": 63}),
    Row("gradient", kernel_graphs, _whole, lambda g: tau_gradient(g).entries, deletion_gradient, {"graphs": 63}),
    Row("deleted-apq", deletion_graphs, _edges, deleted_apq, _apq_of_deleted_graph,
        {"graphs": 42, "instances": 418, "cycle": 1, "loop": 1, "bridge": 1}),
    # A on g's own integers against the glued graph
    Row("apq-identification", kernel_graphs, _pairs, apq, apq_identity,
        {"graphs": 63, "instances": 2176, "same point": 1}),
    Row("apq-glued", glued_graphs, _distinct_pairs, apq_identity, identification_apq, {"graphs": 84, "pair": 4001}),
]
_BY_ID = {row.id: row for row in _ROWS}


def _outcome(route, g, args):
    """What one route gives on an instance: its value, or BridgeDeletion if it raises that."""
    try:
        return route(g, *args)
    except BridgeDeletion:
        return BridgeDeletion


def agrees(ident: str, g, *args) -> bool:
    """Whether row ``ident``'s kernel and oracle agree on g at one instance's args."""
    row = _BY_ID[ident]
    return _outcome(row.kernel, g, args) == _outcome(row.oracle, g, args)


@pytest.mark.parametrize("row", _ROWS, ids=[row.id for row in _ROWS])
def test_kernel_matches_its_oracle(row):
    seen = Counter()
    for g in row.graphs():
        before = seen["instances"]
        for kind, *args in row.instances(g):
            assert _outcome(row.kernel, g, args) == _outcome(row.oracle, g, args), (kind, g, args)
            seen[kind] += 1
            seen["instances"] += 1
        seen["graphs"] += seen["instances"] > before
    short = {key: (seen[key], least) for key, least in row.floor.items() if seen[key] < least}
    assert not short, short
