"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is integer-exact (tolerance zero).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines
and timings.
"""

import contextlib
import io
import itertools
import json
import random
import time

import ckshift as ck
from ckshift.cli import main
from ckshift.intmat import det, identity, mat_mul, mat_sub
from ckshift.pathspace import strict_period_counts, truncated_point
from ckshift.semigroup import decision_level
from ckshift.sse import trace_powers

from conftest import all_finite_graphs

GOLDEN = ((1, 1), (1, 0))
FULL2 = ((1, 1), (1, 1))


def _report(num, label, started):
    print(f"PASS criterion {num}: {label} [{time.perf_counter() - started:.2f}s]")


def test_criterion_1_ck_suite():
    started = time.perf_counter()
    for rows in (FULL2, GOLDEN):
        g = ck.FiniteGraph(rows)
        dense = ck.dense_model(g)
        rep = ck.verify_ck_relations(dense)  # exhaustive E,F subsets of I
        assert rep.all_passed, rows
    g = ck.FiniteGraph(FULL2)
    full_set = ck.make_pattern(g, finite=(1, 2))
    toeplitz = ck.validate_model(g, [full_set])
    rep = ck.verify_ck_relations(toeplitz)
    assert rep.ck1.passed and rep.ck2.passed and rep.ck3.passed
    assert not rep.ck4_passed
    subsets = [(), (1,), (2,), (1, 2)]
    results = [ck.ck4_identity(toeplitz, E, F) for E in subsets for F in subsets]
    assert sum(not r.holds for r in results) == rep.ck4_failed
    assert all(r.witness == truncated_point((), full_set)
               for r in results if not r.holds)
    assert time.perf_counter() - started < 1.0
    _report(1, "CK1-4 exact on dense models; Toeplitz fails CK4 at (∅;I)", started)


def _pure_4cycle(rows):
    if any(sum(r) != 1 for r in rows):
        return False
    perm = {i + 1: r.index(1) + 1 for i, r in enumerate(rows)}
    seen, v = set(), 1
    while v not in seen:
        seen.add(v)
        v = perm[v]
    return len(seen) == 4


def test_criterion_2_condition_l_equivalence():
    started = time.perf_counter()
    power_pairs = [(m, n) for n in (1, 2, 3) for m in range(n)]

    def three_way(g):
        model = ck.dense_model(g)
        holds = ck.condition_l(g).holds
        no_isolated = not any(r.isolated
                              for r in ck.periodic_points(model, 6, 0).records)
        no_violation = not any(
            ck.essential_freeness_scan(model, m, n, 8).violation_found
            for m, n in power_pairs)
        assert holds == no_isolated == no_violation, g.rows
        return 1

    checked = 0
    for size in (1, 2, 3):
        for g in all_finite_graphs(size, no_zero_rows_only=True):
            checked += three_way(g)

    # Size-4 sample.  The scan window m < n <= 3 cannot express period-4
    # agreement, so the six pure-4-cycle permutation matrices (whose only
    # exit-free loop has length 4) are excluded and demonstrated apart.
    rng = random.Random(421)
    pool = [r for r in itertools.product((0, 1), repeat=4) if any(r)]
    sampled = 0
    while sampled < 150:
        rows = tuple(rng.choice(pool) for _ in range(4))
        if _pure_4cycle(rows):
            continue
        checked += three_way(ck.FiniteGraph(rows))
        sampled += 1

    cyc4 = ck.FiniteGraph(((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)))
    m4 = ck.dense_model(cyc4)
    assert not ck.condition_l(cyc4).holds
    assert any(r.isolated for r in ck.periodic_points(m4, 6, 0).records)
    assert not any(ck.essential_freeness_scan(m4, m, n, 8).violation_found
                   for m, n in power_pairs)  # invisible inside the window
    assert ck.essential_freeness_scan(m4, 0, 4, 8).violation_found

    assert time.perf_counter() - started < 30.0
    _report(2, f"condition (L) <=> no isolated point <=> scan clean "
               f"on {checked} graphs", started)


def test_criterion_3_trace_bridge():
    started = time.perf_counter()
    total = 0
    for size in (1, 2, 3):
        for g in all_finite_graphs(size):
            assert strict_period_counts(g, 8) == trace_powers(g.rows, 8), g.rows
            total += 1
    row_pool = list(itertools.product((0, 1), repeat=4))
    for rows in itertools.product(row_pool, repeat=4):
        g = ck.FiniteGraph(rows)
        if strict_period_counts(g, 8) != trace_powers(rows, 8):
            raise AssertionError(rows)
        total += 1
    # the walk counts agree with the explicit point records
    for size in (1, 2, 3):
        for g in all_finite_graphs(size, no_zero_rows_only=True):
            scan = ck.periodic_points(ck.dense_model(g), 8, 0)
            counts = strict_period_counts(g, 8)
            assert all(scan.strict_count_dividing(k) == counts[k]
                       for k in range(1, 9))
    rng = random.Random(7)
    pool = [r for r in itertools.product((0, 1), repeat=4) if any(r)]
    for _ in range(40):
        g = ck.FiniteGraph(tuple(rng.choice(pool) for _ in range(4)))
        scan = ck.periodic_points(ck.dense_model(g), 8, 0)
        counts = strict_period_counts(g, 8)
        assert all(scan.strict_count_dividing(k) == counts[k] for k in range(1, 9))
    assert time.perf_counter() - started < 30.0
    _report(3, f"periodic-point counts equal trace(A^k), k <= 8, "
               f"on all {total} graphs of size <= 4", started)


def test_criterion_4_sse_certificate():
    started = time.perf_counter()
    A, B = ((2,),), ((1, 1), (1, 1))
    R, S = ((1, 1),), ((1,), (1,))
    assert ck.verify_elementary(A, R, S, B)
    assert ck.search_elementary(A, B, 2, 1) == (R, S)
    pair = ck.build_conjugacy(R, S, A, B)
    words = 0
    for L in range(3, 11):
        for p in ck.edge_paths(A, L):
            assert tuple(ck.apply_psi(pair, ck.apply_phi(pair, p))) == p[1:L - 1]
            words += 1
        for p in ck.edge_paths(B, L):
            assert tuple(ck.apply_phi(pair, ck.apply_psi(pair, p))) == p[1:L - 1]
            words += 1
    assert words >= 2 ** 10
    assert time.perf_counter() - started < 5.0
    _report(4, f"[2]~[[1,1],[1,1]] certificate, search, and conjugacy "
               f"identities on {words} edge words", started)


def test_criterion_5_invariance_suite():
    started = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        R = tuple(tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(n))
        S = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(m))
        A, B = mat_mul(R, S), mat_mul(S, R)
        assert det(mat_sub(identity(n), A)) == det(mat_sub(identity(m), B))
        cmp = ck.compare_invariants(A, B)
        assert cmp.bf_factors_equal and cmp.det_equal and cmp.charpoly_equal
    assert time.perf_counter() - started < 10.0
    _report(5, "det(I-A), Bowen-Franks factors, charpoly parts invariant "
               "on 200 elementary pairs", started)


def test_criterion_6_bowen_franks_spot_values():
    started = time.perf_counter()
    bf = ck.bowen_franks(((2,),))
    assert bf.torsion == () and bf.free_rank == 0 and bf.determinant == -1
    bf = ck.bowen_franks(((3,),))
    assert bf.torsion == (2,) and bf.determinant == -2
    bf = ck.bowen_franks(GOLDEN)
    assert bf.torsion == () and bf.free_rank == 0 and bf.determinant == -1
    _report(6, "[2] trivial/-1, [3] Z/2/-2, golden mean trivial/-1", started)


def test_criterion_7_cluster_patterns():
    started = time.perf_counter()
    for rows in (FULL2, GOLDEN, ((0, 1), (1, 0))):
        g = ck.FiniteGraph(rows)
        assert ck.cluster_patterns(g) == frozenset()
        assert not any(p.is_empty for p in ck.cluster_patterns(g))
    ray = ck.BandedTailGraph((), 0, (1,), ())
    fam = ck.cluster_patterns(ray)
    assert fam == frozenset({ck.make_pattern(ray)})
    assert any(p.is_empty for p in fam)  # non-unital case
    ones = ck.BlockPatternGraph((None,), ((1,),))
    fam = ck.cluster_patterns(ones)
    assert fam == frozenset({ck.make_pattern(ones, classes=(1,))})
    assert not any(p.is_empty for p in fam)  # unital case
    _report(7, "cluster families: finite -> {}, ray -> {∅}, "
               "all-ones -> {I}; unital flag matches", started)


def test_criterion_8_normal_form_oracle():
    started = time.perf_counter()
    rng = random.Random(88)
    pools = {n: [r for r in itertools.product((0, 1), repeat=n) if any(r)]
             for n in (1, 2, 3)}
    graph_list = [ck.FiniteGraph(tuple(rng.choice(pools[s]) for _ in range(s)))
                  for s in (1, 2, 2, 3, 3, 3)]
    graph_list += [ck.FiniteGraph(GOLDEN), ck.FiniteGraph(((1, 1, 1),) * 3)]
    total = 0
    for graph in graph_list:
        model = ck.dense_model(graph)
        verts = list(graph.vertices())
        entries = []
        for _ in range(125):
            length = rng.randint(1, 6)
            raw = ck.identity(model)
            for _ in range(length):
                f = ck.generator(model, rng.choice(verts))
                if rng.random() < 0.5:
                    f = ck.adjoint(f)
                raw = ck.compose(raw, f, normalized=False)
            nf = ck.normalize(raw)
            lvl = decision_level(raw, nf)
            assert ck.evaluate(raw, lvl) == ck.evaluate(nf, lvl)
            entries.append(nf)
            total += 1
        # normal-form equality coincides with evaluation equality
        common = max(decision_level(nf) for nf in entries)
        by_fingerprint = {}
        by_normal_form = {}
        for nf in entries:
            fp = ck.evaluate(nf, common)
            key = (nf.alpha, nf.beta, nf.h)
            assert by_fingerprint.setdefault(fp, key) == key
            assert by_normal_form.setdefault(key, fp) == fp
    assert total == 1000
    assert time.perf_counter() - started < 30.0
    _report(8, "evaluation oracle agrees with normal forms on "
               f"{total} random words", started)


def test_criterion_9_spectrum_counts():
    started = time.perf_counter()
    g = ck.FiniteGraph(FULL2)
    model = ck.validate_model(g, [ck.make_pattern(g, finite=(1, 2))])
    for n in range(0, 7):
        pts = ck.spectrum_level(model, n).points
        assert len(pts) == 2 ** (n + 2) - 1, n
        assert len(set(pts)) == len(pts)
    for n in range(0, 6):
        lower = set(ck.spectrum_level(model, n).points)
        upper = ck.spectrum_level(model, n + 1).points
        assert {ck.project_point(p, n + 1) for p in upper} == lower
    _report(9, "|X~_n| = 2^(n+2)-1 for n <= 6 and projections are onto", started)


def test_criterion_10_dimension_group():
    started = time.perf_counter()
    dg = ck.DimensionGroup(((2,),))
    assert dg.equal(dg.element((1,), 0), dg.element((2,), 1))
    assert not dg.equal(dg.element((1,), 1), dg.element((1,), 0))
    rng = random.Random(5)
    gold = ck.DimensionGroup(GOLDEN)
    for _ in range(100):
        v = tuple(rng.randint(-9, 9) for _ in range(2))
        x = gold.element(v, rng.randint(0, 3))
        y = gold.element(ck.intmat.mat_vec(GOLDEN, v), x.level + 1)  # same element
        assert gold.equal(x, y)
        assert gold.equal(gold.tau(x), gold.tau(y))
        assert gold.equal(gold.tau(gold.tau_inv(x)), x)
        assert gold.equal(gold.tau_inv(gold.tau(x)), x)
        z = gold.element(tuple(rng.randint(-9, 9) for _ in range(2)),
                         rng.randint(0, 3))
        if gold.equal(x, z):
            assert gold.equal(gold.tau(x), gold.tau(z))
    res = gold.positive_bounded(gold.element((1, -1), 0), 3)
    assert (res.status, res.power) == ("positive", 1)
    _report(10, "dimension-group identifications, tau automorphism on 100 "
                "elements, golden-mean positivity at k=1", started)


def test_criterion_11_ck_verify_scaling(tmp_path):
    started = time.perf_counter()
    graph = tmp_path / "ones7.json"
    graph.write_text(json.dumps({"type": "finite", "rows": [[1] * 7] * 7}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["ck-verify", "--input", str(graph),
                     "--boundary", '[{"finite":[1,2]}]', "--format", "json"])
    assert code == 1
    ck4 = json.loads(out.getvalue())["CK4"]
    assert ck4["status"] == "fail" and ck4["checked"] == 4 ** 7
    assert ck4["witness"]["point"] == "(∅;{1,2})"
    assert time.perf_counter() - started < 5.0
    _report(11, "ck-verify on the all-ones 7x7 graph with boundary {1,2}: "
                "16384 (E,F) pairs, witness (∅;{1,2})", started)


def _ck_verify_json(path, argv=()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["ck-verify", "--input", str(path), *argv, "--format", "json"])
    return code, out.getvalue()


def test_criterion_12_ck4_closed_form(tmp_path, monkeypatch):
    started = time.perf_counter()
    graph = tmp_path / "ones20.json"
    graph.write_text(json.dumps({"type": "finite", "rows": [[1] * 20] * 20}))
    code, out = _ck_verify_json(graph, ("--boundary", '[{"finite":[1,2]}]'))
    assert code == 1
    ck4 = json.loads(out)["CK4"]
    assert (ck4["status"], ck4["checked"], ck4["not_finitely_supported"]) == \
        ("fail", 4 ** 20, 0)
    assert ck4["witness"] == {"E": [], "F": [], "point": "(∅;{1,2})"}
    assert time.perf_counter() - started < 1.0

    # the same JSON as the explicit loop over every (E,F) pair
    def subsets(vs):
        return [c for r in range(len(vs) + 1) for c in itertools.combinations(vs, r)]

    def explicit(model):  # the call ck-verify makes on a finite model
        vs = list(ck.finite_form(model.graph).vertices())
        return verify(model, ck4_pairs=[(E, F) for E in subsets(vs) for F in subsets(vs)])

    closed = []
    for n in range(1, 7):
        graph = tmp_path / f"ones{n}.json"
        graph.write_text(json.dumps({"type": "finite", "rows": [[1] * n] * n}))
        fams = ('[{"finite":[1]}]', f'[{{"finite":{list(range(1, n + 1))}}}, {{"finite":[]}}]',
                "auto")
        closed += [(graph, fam, _ck_verify_json(graph, ("--boundary", fam))) for fam in fams]
    verify = ck.semigroup.verify_ck_relations
    monkeypatch.setattr(ck.semigroup, "verify_ck_relations", explicit)
    for graph, fam, result in closed:
        assert _ck_verify_json(graph, ("--boundary", fam)) == result, (graph.name, fam)
    _report(12, "ck-verify on the all-ones 20x20 graph with boundary {1,2}: "
                "4^20 (E,F) pairs in closed form, witness (∅;{1,2}); "
                "the explicit loop agrees for n = 1..6", started)
