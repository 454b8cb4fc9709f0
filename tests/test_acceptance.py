"""Acceptance suite: one test per criterion, exact comparisons throughout.

The oracle-equivalence criterion distributes its checks on the random corpus
(200 seeded connected multigraphs, at most 8 vertices and 16 edges) over worker
processes, with results collected in deterministic order. The identity-suite
and operation-closure criteria read one in-process run of ``mgt verify`` on the
same corpus, whose output is pinned by its sha256.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction as F

from mgt import families
from mgt.circuit import context
from mgt.cli import main
from mgt.families import family_scan, scan_violations
from mgt.graph import build_graph, bridges, normalize, total_length
from mgt.integration import apq_direct
from mgt.ops import c_tower, da_n, immerse
from mgt.optimize import minimize_tau
from mgt.suite import GraphGenerator, identity_catalog
from mgt.tau import apq_identity, deleted_apq, tau_gradient, tau_of
from oracles import exact_gradient_matches_float, necklace_witness, random_bridgeless, tau_reducing_sequence
from test_oracles import agrees

CORPUS_SEED = 1
CORPUS_SIZE = 200

# sha256 of `mgt verify --random --seed 1 --count 200 --json`: every lhs, rhs, status
# and skip reason of the catalog on the corpus
VERIFY_SHA256 = "53e3b90d9c9aeadb1081089b93e1aa2319ac67638efd4cf69bcc93169b637843"

_verify_out = None  # that run's stdout, shared by criteria 4 and 5


def _verify_results():
    """The catalog's results on the corpus, from one in-process run of ``mgt verify``
    whose output is pinned byte for byte."""
    global _verify_out
    if _verify_out is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--random", "--seed", str(CORPUS_SEED),
                         "--count", str(CORPUS_SIZE), "--json"])
        assert (code, err.getvalue()) == (0, "")
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == VERIFY_SHA256
        _verify_out = out.getvalue()
    return json.loads(_verify_out)


def _announce(name: str, started: float, detail: str = ""):
    print(f"[acceptance] {name}: PASS ({time.time() - started:.1f}s) {detail}")


# -- criterion 1: closed-form regression ------------------------------------


def test_criterion_1_closed_forms():
    started = time.time()
    # circles and trees at several length mixes
    assert tau_of(families.circle(F(7, 3))) == F(7, 36)
    assert tau_of(families.circle(F(1, 2), F(1, 3), F(1, 6))) == F(1, 12)
    assert tau_of(families.path(1, 2, 3)) == F(3, 2)
    rng = random.Random("acceptance-trees")
    for _ in range(5):
        tree = families.random_tree(rng, 8)
        assert tau_of(tree) == total_length(tree) / 4
    # complete graphs, unit length
    for v in range(2, 9):
        assert tau_of(families.complete(v)) == F(1, 12) * (1 - F(2, v)) ** 2 + F(2, v**3)
    assert tau_of(families.complete(5)) == F(23, 500)
    # equal bananas with the minimum at m = 4
    banana_taus = {m: tau_of(families.equal_banana(m)) for m in range(1, 11)}
    for m, value in banana_taus.items():
        assert value == F(m * m - 2 * m + 4, 12 * m * m)
    assert min(banana_taus.values()) == banana_taus[4] == F(1, 16)
    # diamond graph
    dia = families.diamond(1)
    assert tau_of(dia) == total_length(dia) / 15
    assert apq_direct(dia, 0, 2) == F(1, 8)
    # two-arc circle voltage integral
    a, b = F(3, 7), F(2, 9)
    assert apq_direct(families.circle(a, b), 0, 1) == a * a * b * b / (6 * (a + b) ** 2)
    # parallel-edge voltage integral
    for m in (1, 2, 3, 5):
        g = families.equal_banana(m)
        r = context(g).r(0, 1)
        assert apq_direct(g, 0, 1) == (m - 1) * r * r / 6
    # diamond necklace closed form on a grid, against the direct engine
    for t in (2, 3, 4):
        for a in (F(1, 10), F(1, 25), F(1, 6 * t)):
            b = (1 - a * t) / (5 * t)
            if b <= 0:
                continue
            g = families.necklace(a, b, t)
            assert tau_of(g) == t * (a + 2 * b) / 12 + b * b / (8 * (a + b))
    for t in (2, 3):
        for a, b in ((F(1, 20), F(1, 30)), (F(1, 8), F(1, 8))):
            assert tau_of(families.necklace(a, b, t)) == families.necklace_tau(a, b, t)
    _announce("criterion 1 closed-form regression", started)


# -- criterion 2: necklace witness ------------------------------------------


def test_criterion_2_necklace_witness():
    started = time.time()
    tau_check, cubic_check = necklace_witness()
    assert tau_check.status == "pass" and tau_check.lhs > F(10, 121)
    assert cubic_check.status == "pass" and cubic_check.lhs < F(1, 5000)
    _announce("criterion 2 necklace witness", started,
              f"tau={float(tau_check.lhs):.6f} cubic={float(cubic_check.lhs):.2e}")


# -- criterion 3: oracle equivalence on the corpus ---------------------------


def _oracle_chunk(chunk):
    """The instances that fail their row of the kernel-vs-oracle table: the reduction
    resistance of up to four pairs, tau by the energy integral at a random base, and
    between vertex 0 and the last, A by that integral and every edge's tag polynomials."""
    failures = []
    for descriptor, g in chunk:
        rng = random.Random(f"acceptance-oracle:{descriptor}")
        pairs = {(0, g.vcount - 1)}
        while len(pairs) < min(4, g.vcount * (g.vcount - 1) // 2 + 1):
            y, z = rng.randrange(g.vcount), rng.randrange(g.vcount)
            pairs.add((min(y, z), max(y, z)))
        instances = [("reduction-resistance", y, z) for y, z in sorted(pairs)]
        instances.append(("tau-integral", rng.randrange(g.vcount)))
        if g.vcount >= 2:
            p, q = 0, g.vcount - 1
            instances.append(("apq-energy-integral", p, q))
            instances += [("tag-polynomials", p, q, edge) for edge in range(g.ecount)]
        failures += [(descriptor, ident, *args) for ident, *args in instances if not agrees(ident, g, *args)]
    return failures


def test_criterion_3_oracle_equivalence():
    started = time.time()
    corpus = list(GraphGenerator(seed=CORPUS_SEED).graphs(CORPUS_SIZE))
    assert len(corpus) >= 200
    assert all(g.vcount <= 8 and g.ecount <= 16 for _, g in corpus)
    chunks = [corpus[i::4] for i in range(4)]
    with ProcessPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        failure_lists = list(pool.map(_oracle_chunk, chunks))
    failures = [f for sub in failure_lists for f in sub]
    assert not failures, failures[:5]
    _announce("criterion 3 oracle equivalence", started, f"{len(corpus)} graphs")


# -- criterion 4: identity suite on the same corpus ---------------------------


def test_criterion_4_identity_suite():
    started = time.time()
    assert len(identity_catalog()) >= 44
    results = _verify_results()
    failures = [r for r in results if r["status"] == "fail"]
    assert not failures, failures[:5]
    unexplained = [r for r in results if r["status"] == "skip" and not r["reason"]]
    assert not unexplained, f"skips without reason: {unexplained[:5]}"
    passes_by_id = Counter(r["identity"] for r in results if r["status"] == "pass")
    # every identity must actually pass on a healthy share of the corpus
    thin = {cid: n for cid, n in passes_by_id.items() if n < 25}
    missing = {cid for cid, _, _ in identity_catalog()} - set(passes_by_id)
    assert not missing, f"identities that never passed: {missing}"
    assert not thin, f"identities with thin coverage: {thin}"
    skips = sum(1 for r in results if r["status"] == "skip")
    _announce("criterion 4 identity suite", started,
              f"{len(results)} checks, {skips} hypothesis skips")


# -- criterion 5: operation-formula closure ----------------------------------


OP_CLOSURE_IDS = (
    "thmdouble", "thmdoubledivision", "thmmagnificent", "thmmaggen",
    "thm-smaller-tau-decrease", "thmtwopunion", "cor1twopunion",
    "cor2twopunion", "lemcontract1", "lemcontract2", "coradding1",
    "coradding2", "thm-twopunion2-tower",
)


def test_criterion_5_operation_closure():
    started = time.time()
    results = [r for r in _verify_results() if r["identity"] in OP_CLOSURE_IDS]
    assert {r["identity"] for r in results} == set(OP_CLOSURE_IDS)
    failures = [r for r in results if r["status"] == "fail"]
    assert not failures, failures[:5]
    # worked examples
    for n in (2, 3, 4):
        seg = families.segment(1)
        split = da_n(seg, n)
        assert split.predicted_tau == tau_of(split.graph)
        assert split.predicted_tau == F(1, 4 * n * n) + F(1, 12) * F(n - 1, n) ** 2
    host = normalize(families.diamond(F(1, 5)))
    for n in (2, 3):
        assert immerse(host, [(families.equal_banana(n), 0, 1)] * host.ecount).graph == da_n(host, n).graph
    circ = families.circle(F(1, 2), F(1, 2))
    tower = c_tower(circ, 0, 1, 2)
    r = context(circ).r(0, 1)
    assert tower.predicted_tau == tau_of(tower.graph)
    assert tower.predicted_tau == tau_of(circ) + F(3, 4) * apq_identity(circ, 0, 1) / r - F(3, 16) * r
    _announce("criterion 5 operation-formula closure", started)


# -- criterion 6: exact gradient ----------------------------------------------


def test_criterion_6_gradient():
    started = time.time()
    rng = random.Random("acceptance-gradient")
    # exact single-length perturbation identity on 10 random triples
    done = 0
    while done < 10:
        g = families.random_connected(rng, 6, 10)
        candidates = [i for i in range(g.ecount)
                      if g.edges[i].a != g.edges[i].b and i not in bridges(g)]
        if not candidates:
            continue
        i = rng.choice(candidates)
        a, b, L = g.edges[i]
        x = families.random_length(rng) - L / 2
        if L + x <= 0:
            x = L / 2
        modified = build_graph(
            g.vcount,
            [(ea, eb, el + (x if j == i else 0)) for j, (ea, eb, el) in enumerate(g.edges)],
        )
        a_del = deleted_apq(g, i)
        denom = L + context(g).edge_profiles(0)[i].res_deleted
        assert tau_of(modified) == tau_of(g) + x / 12 - x * a_del / (denom * (denom + x))
        done += 1
    # Euler identity and float agreement
    for g in (families.complete(4), families.diamond(F(1, 5)),
              random_bridgeless(rng, 6, 10),
              families.random_connected(rng, 6, 10)):
        grad = tau_gradient(g)
        assert sum(L * d for (_, _, L), d in zip(g.edges, grad.entries)) == tau_of(g)
        assert exact_gradient_matches_float(g, 1e-9)
    _announce("criterion 6 exact gradient", started)


# -- criterion 7: optimizer ----------------------------------------------------


def test_criterion_7_optimizer():
    started = time.time()
    state = minimize_tau(families.banana(F(1, 2), F(1, 5), F(1, 5), F(1, 10)),
                         start=[0.55, 0.25, 0.12, 0.08], max_iters=3000, tol=1e-14)
    assert abs(state.tau - 1 / 16) < 1e-8
    assert state.exact_tau >= F(1, 16)
    assert tau_of(families.equal_banana(4)) == F(1, 16)
    _announce("criterion 7 optimizer on the 4-banana", started,
              f"|tau - 1/16| = {abs(state.tau - 1 / 16):.2e}")


# -- criterion 8: tau-reducing construction ------------------------------------


def test_criterion_8_tau_reducing():
    started = time.time()
    circ = families.circle(F(1, 2), F(1, 2))  # antipodal marked points
    m, result = tau_reducing_sequence(circ, 0, 1, F(1, 100))
    achieved = tau_of(result.graph)
    bound = F(1, 12) - F(1, 4) * (F(1, 4) - F(1, 12)) + F(1, 100)
    assert total_length(result.graph) == 1
    assert achieved <= bound
    _announce("criterion 8 tau-reducing construction", started,
              f"m={m} tau={achieved} bound={bound}")


# -- criterion 9: conjecture ratio floor ---------------------------------------


def test_criterion_9_ratio_floor():
    started = time.time()
    floor = F(1, 108)
    observed = []
    rows = []
    rows += family_scan("complete", {"v": range(2, 13)})
    rows += family_scan("banana", {"m": range(1, 13)})
    rows += family_scan("necklace", {"a": [F(1, 10), F(1, 30), F(1, 101)], "t": (2, 3)})
    rows += family_scan("necklace", {"a": [F(1, 101)], "t": (100,)})  # a t < 1 leaves room for diamonds
    rows += family_scan("circle", {"k": range(1, 7)})
    violations = scan_violations(rows)
    observed += [row.ratio for row in rows]
    for topology in (families.equal_banana(4), families.complete(5),
                     families.diamond(F(1, 5))):
        state = minimize_tau(topology, max_iters=400)
        ratio = state.exact_tau / sum(state.exact_lengths)
        observed.append(ratio)
        if ratio < floor:
            violations.append(("optimizer", topology, ratio))
    # a violation would be a finding to report, not a silent failure
    assert not violations, f"CONJECTURE VIOLATION OBSERVED: {violations}"
    assert min(observed) >= floor
    _announce("criterion 9 conjecture ratio floor", started,
              f"min ratio {min(observed)} over {len(observed)} observations")
