import itertools
import random

import pytest

import ckshift as ck
from ckshift.errors import DomainError, ValidationError
from ckshift.pathspace import full_point, truncated_point
from ckshift.semigroup import (Ck4Failure, Monomial, decision_level,
                               min_evaluation_level, product, projection_p,
                               projection_q)
from conftest import all_finite_graphs
from test_clopen import valid_models
from test_graphs import block_patterns


def random_word_monomial(model, rng, max_len=6, normalized=True):
    """A random product of generators and adjoints, as (monomial, word)."""
    verts = list(ck.finite_form(model.graph).vertices())
    length = rng.randint(1, max_len)
    letters = [(rng.choice(verts), rng.random() < 0.5) for _ in range(length)]
    out = ck.identity(model)
    for v, star in letters:
        f = ck.generator(model, v)
        if star:
            f = ck.adjoint(f)
        out = ck.compose(out, f, normalized=normalized)
    return out, letters


class TestGenerators:
    def test_full_shift_s1(self, full2_model):
        s1 = ck.generator(full2_model, 1)
        assert s1.alpha == (1,) and s1.beta == ()
        assert s1.h == ck.full_space(full2_model)  # V_1 = X in the full shift

    def test_ray_generator_support(self, ray):
        m = ck.dense_model(ray)
        s3 = ck.generator(m, 3)
        assert s3.h == ck.vertex_cylinder(m, 4)

    def test_toeplitz_generator_sees_boundary(self, toeplitz_model):
        s1 = ck.generator(toeplitz_model, 1)
        (pat,) = toeplitz_model.boundary
        assert truncated_point((), pat) in s1.h.members

    def test_p_and_q(self, full2_model):
        p1 = projection_p(full2_model, 1)
        assert p1.alpha == () and p1.beta == ()
        assert p1.h == ck.vertex_cylinder(full2_model, 1)
        q1 = projection_q(full2_model, 1)
        assert q1.h == ck.follower_set(full2_model, 1)


class TestCompose:
    def test_orthogonality(self, full2_model):
        s1, s2 = ck.generator(full2_model, 1), ck.generator(full2_model, 2)
        assert ck.compose(ck.adjoint(s1), s2).is_zero

    def test_q_from_generators(self, full2_model):
        s1 = ck.generator(full2_model, 1)
        q = ck.compose(ck.adjoint(s1), s1)
        assert q == projection_q(full2_model, 1)

    def test_concatenation(self, full2_model):
        s1, s2 = ck.generator(full2_model, 1), ck.generator(full2_model, 2)
        s12 = ck.compose(s1, s2)
        assert s12.alpha == (1, 2) and s12.beta == ()
        assert s12.h == ck.follower_set(full2_model, 2)
        assert ck.cocycle(s12) == 2

    def test_inadmissible_concatenation_is_zero(self, golden_model):
        s2 = ck.generator(golden_model, 2)
        assert ck.compose(s2, s2).is_zero  # 2 -> 2 is not an edge

    def test_zero_absorbs(self, full2_model):
        z = ck.zero(full2_model)
        s1 = ck.generator(full2_model, 1)
        assert ck.compose(z, s1).is_zero and ck.compose(s1, z).is_zero

    def test_model_mismatch(self, full2_model, golden_model):
        with pytest.raises(ValidationError):
            ck.compose(ck.generator(full2_model, 1), ck.generator(golden_model, 1))


class TestNormalize:
    def test_partial_isometry_identity(self, full2_model):
        s1 = ck.generator(full2_model, 1)
        w = product(full2_model, [s1, ck.adjoint(s1), s1])
        assert w == s1

    def test_strips_common_last_letter(self, full2_model):
        s1 = ck.generator(full2_model, 1)
        raw = Monomial(full2_model, (1, 1),
                       ck.follower_set(full2_model, 1), (1,))
        stripped = ck.normalize(raw)
        assert (stripped.alpha, stripped.beta) == ((1,), ())
        assert stripped.h == ck.vertex_cylinder(full2_model, 1)
        assert ck.semigroup.semantically_equal(raw, stripped)

    def test_zero_support_collapses(self, golden_model):
        raw = Monomial(golden_model, (2,), ck.vertex_cylinder(golden_model, 2), (2,))
        # support must lie in the follower set of 2, which excludes U_2
        assert ck.normalize(raw).is_zero

    def test_idempotent(self, full2_model):
        rng = random.Random(0)
        for _ in range(50):
            m, _ = random_word_monomial(full2_model, rng)
            assert ck.normalize(m) == m  # composition already normalizes

    def test_forced_word_equality(self, two_cycle):
        # on the 2-cycle, S((1), V_1, ()) and S((1,2), X_h, (2)) coincide
        m = ck.dense_model(two_cycle)
        a = ck.generator(m, 1)
        raw = Monomial(m, (1, 2), ck.follower_set(m, 2), (2,))
        assert ck.normalize(raw) == a


class TestCocycle:
    def test_examples(self, full2_model):
        s1 = ck.generator(full2_model, 1)
        assert ck.cocycle(s1) == 1
        assert ck.cocycle(projection_q(full2_model, 1)) == 0
        s12 = ck.compose(s1, ck.generator(full2_model, 2))
        assert ck.cocycle(s12) == 2 and ck.cocycle(ck.adjoint(s12)) == -2

    def test_zero_undefined(self, full2_model):
        with pytest.raises(DomainError):
            ck.cocycle(ck.zero(full2_model))

    def test_additivity(self, golden_model, full2_model):
        rng = random.Random(1)
        for model in (golden_model, full2_model):
            for _ in range(60):
                a, _ = random_word_monomial(model, rng, max_len=4)
                b, _ = random_word_monomial(model, rng, max_len=4)
                ab = ck.compose(a, b)
                if not (a.is_zero or b.is_zero or ab.is_zero):
                    assert ck.cocycle(ab) == ck.cocycle(a) + ck.cocycle(b)


class TestEvaluate:
    def test_s1_level2(self, full2_model):
        s1 = ck.generator(full2_model, 1)
        pi = ck.evaluate(s1, 2)
        assert pi.src_level == 2 and pi.dst_level == 3
        mapping = pi.as_dict()
        assert mapping[full_point((2, 1, 2))] == full_point((1, 2, 1, 2))
        # injective with image inside the cylinder at 1
        assert all(img.word[0] == 1 for img in mapping.values())

    def test_identity_and_zero(self, full2_model):
        ident = ck.identity(full2_model)
        pi = ck.evaluate(ident, 2)
        assert all(s == d for s, d in pi.pairs) and len(pi.pairs) == 8
        assert ck.evaluate(ck.zero(full2_model), 2).pairs == frozenset()

    def test_level_too_small(self, full2_model):
        s1 = ck.generator(full2_model, 1)
        s11 = ck.compose(s1, s1)
        with pytest.raises(ValidationError, match="level"):
            ck.evaluate(s11, 1)

    def test_homomorphism_property(self, golden_model, full2_model):
        rng = random.Random(2)
        for model in (golden_model, full2_model):
            for _ in range(40):
                a, _ = random_word_monomial(model, rng, max_len=3)
                b, _ = random_word_monomial(model, rng, max_len=3)
                ab = ck.compose(a, b)
                if a.is_zero or b.is_zero:
                    continue
                cb = ck.cocycle(b)
                n = max(decision_level(a, b, ab),
                        min_evaluation_level(a) - min(cb, 0))
                lhs = ck.evaluate(ab, n)
                rhs = ck.evaluate(a, n + cb).compose(ck.evaluate(b, n))
                assert lhs == rhs

    def test_adjoint_inverts(self, golden_model):
        rng = random.Random(3)
        for _ in range(40):
            a, _ = random_word_monomial(golden_model, rng, max_len=4)
            if a.is_zero:
                continue
            c = ck.cocycle(a)
            n = max(decision_level(a),
                    min_evaluation_level(ck.adjoint(a)) - c)
            assert ck.evaluate(ck.adjoint(a), n + c) == \
                ck.evaluate(a, n).inverse()

    def test_level_raise_conjugacy(self, golden_model):
        # evaluations at consecutive levels are conjugate under projection
        rng = random.Random(4)
        for _ in range(25):
            a, _ = random_word_monomial(golden_model, rng, max_len=4)
            if a.is_zero:
                continue
            n = decision_level(a)
            hi = ck.evaluate(a, n + 1)
            lo = ck.evaluate(a, n)
            projected = {(ck.project_point(x, n + 1),
                          ck.project_point(y, n + 1 + ck.cocycle(a)))
                         for x, y in hi.pairs}
            assert projected == lo.pairs


class TestNormalFormOracle:
    def test_soundness_and_completeness(self, golden_model, full2_model):
        rng = random.Random(5)
        for model in (golden_model, full2_model):
            sample = []
            for _ in range(60):
                raw_chain, letters = random_word_monomial(
                    model, rng, max_len=5, normalized=False)
                sample.append((raw_chain, ck.normalize(raw_chain)))
            # soundness: normalization preserves evaluation
            for raw, norm in sample:
                n = max(decision_level(raw, norm), 1)
                assert ck.evaluate(raw, n) == ck.evaluate(norm, n)
            # completeness: equal evaluations iff equal normal forms
            for (raw_a, na), (raw_b, nb) in itertools.combinations(sample, 2):
                n = decision_level(raw_a, raw_b, na, nb)
                same_eval = ck.evaluate(raw_a, n) == ck.evaluate(raw_b, n)
                assert same_eval == (na == nb)

    def test_closure_single_monomial(self, golden_model, toeplitz_model):
        # every product of generators and adjoints is again a monomial, and
        # both the raw product and its normal form keep h inside the follower
        # sets of the words' last letters, which compose never re-imposes
        rng = random.Random(6)
        for model, normalized in itertools.product((golden_model, toeplitz_model),
                                                   (True, False)):
            for _ in range(50):
                m, _ = random_word_monomial(model, rng, normalized=normalized)
                assert isinstance(m, Monomial)
                for form in (m, ck.normalize(m)):
                    for word in (form.alpha, form.beta):
                        if word:
                            assert form.h.leq(ck.follower_set(model, word[-1])), form


class TestSemigroupLaws:
    def _models(self, toeplitz_model, golden_model, full2_model):
        return (toeplitz_model, golden_model, full2_model)

    def test_associativity(self, toeplitz_model, golden_model, full2_model):
        rng = random.Random(17)
        for model in self._models(toeplitz_model, golden_model, full2_model):
            for _ in range(80):
                a, _ = random_word_monomial(model, rng, max_len=4)
                b, _ = random_word_monomial(model, rng, max_len=4)
                c, _ = random_word_monomial(model, rng, max_len=4)
                assert ck.compose(ck.compose(a, b), c) == \
                    ck.compose(a, ck.compose(b, c))

    def test_partial_isometry_laws(self, toeplitz_model, golden_model, full2_model):
        rng = random.Random(19)
        for model in self._models(toeplitz_model, golden_model, full2_model):
            for _ in range(60):
                x, _ = random_word_monomial(model, rng, max_len=4)
                xs = ck.adjoint(x)
                assert ck.compose(ck.compose(x, xs), x) == x
                assert ck.compose(ck.compose(xs, x), xs) == xs

    def test_adjoint_reverses_products(self, toeplitz_model, golden_model, full2_model):
        # (ab)* = b*a*, which compose uses for the case a.beta = b.alpha + u
        for model in self._models(toeplitz_model, golden_model, full2_model):
            gens = [ck.generator(model, v) for v in ck.finite_form(model.graph).vertices()]
            letters = gens + [ck.adjoint(s) for s in gens]
            pool = letters + [ck.compose(a, b) for a in letters for b in letters]
            for a, b in itertools.product(pool, repeat=2):
                for normalized in (True, False):
                    assert ck.adjoint(ck.compose(a, b, normalized=normalized)) == \
                        ck.compose(ck.adjoint(b), ck.adjoint(a), normalized=normalized)

    def test_idempotents_commute(self, toeplitz_model):
        rng = random.Random(29)
        for _ in range(40):
            a, _ = random_word_monomial(toeplitz_model, rng, max_len=3)
            b, _ = random_word_monomial(toeplitz_model, rng, max_len=3)
            e = ck.compose(a, ck.adjoint(a))
            f = ck.compose(b, ck.adjoint(b))
            assert ck.compose(e, f) == ck.compose(f, e)

    def test_oracle_over_boundary_model(self, toeplitz_model):
        # boundary points flow through evaluations and the oracle still decides
        rng = random.Random(23)
        entries = []
        for _ in range(100):
            raw, _ = random_word_monomial(toeplitz_model, rng, max_len=5,
                                          normalized=False)
            nf = ck.normalize(raw)
            lvl = decision_level(raw, nf)
            assert ck.evaluate(raw, lvl) == ck.evaluate(nf, lvl)
            entries.append(nf)
        common = max(decision_level(nf) for nf in entries)
        byfp, bynf = {}, {}
        for nf in entries:
            fp = ck.evaluate(nf, common)
            key = (nf.alpha, nf.beta, nf.h)
            assert byfp.setdefault(fp, key) == key
            assert bynf.setdefault(key, fp) == fp

    def test_generator_moves_boundary_point(self, toeplitz_model):
        (pat,) = toeplitz_model.boundary
        pi = ck.evaluate(ck.generator(toeplitz_model, 1), 2)
        assert pi.as_dict()[truncated_point((1,), pat)] == \
            truncated_point((1, 1), pat)


class TestMakeMonomial:
    def test_validates_and_normalizes(self, full2_model):
        h = ck.follower_set(full2_model, 1)
        m = ck.make_monomial(full2_model, (1, 1), h, (1,))
        assert (m.alpha, m.beta) == ((1,), ())

    def test_rejects_inadmissible_word(self, golden_model):
        with pytest.raises(ValidationError, match="admissible"):
            ck.make_monomial(golden_model, (2, 2),
                             ck.full_space(golden_model), ())

    def test_rejects_foreign_support(self, golden_model, full2_model):
        with pytest.raises(ValidationError, match="different model"):
            ck.make_monomial(golden_model, (1,), ck.full_space(full2_model), ())


def subsets(items):
    """Every subset of the list's positions, by size, in ``combinations`` order."""
    return [c for r in range(len(items) + 1) for c in itertools.combinations(items, r)]


def all_pairs(vertices):
    return [(E, F) for E in subsets(vertices) for F in subsets(vertices)]


def ck13_oracle(model, vertices):
    """CK1-3 as monomial identities: the first failing pair of each."""
    g = model.graph
    q = {i: projection_q(model, i) for i in vertices}
    p = {i: projection_p(model, i) for i in vertices}
    pairs = list(itertools.combinations(vertices, 2))
    return (next(((i, j) for i, j in pairs
                  if ck.compose(q[i], q[j]) != ck.compose(q[j], q[i])), None),
            next(((i, j) for i, j in pairs
                  if not ck.compose(p[i], p[j]).is_zero), None),
            next(((i, j) for i in vertices for j in vertices
                  if ck.compose(p[j], q[i]) != (p[j] if g.edge(i, j) else ck.zero(model))),
                 None))


def assert_ck13_matches_oracle(model, vertices=None):
    rep = ck.verify_ck_relations(model, vertices=vertices, ck4_pairs=[])
    if vertices is None:
        vertices = list(ck.finite_form(model.graph).vertices())
    got = tuple(c.witness for c in (rep.ck1, rep.ck2, rep.ck3))
    assert got == ck13_oracle(model, list(vertices)), (model, vertices)
    assert [c.passed for c in (rep.ck1, rep.ck2, rep.ck3)] == [w is None for w in got]


def assert_ck4_matches_pairs(model, vertices=None):
    rep = ck.verify_ck_relations(model, vertices=vertices)
    if vertices is None:
        vertices = list(ck.finite_form(model.graph).vertices())
    explicit = ck.verify_ck_relations(model, vertices=vertices,
                                      ck4_pairs=all_pairs(list(vertices)))
    assert rep == explicit, (model, vertices)
    return rep


def small_models():
    """Every graph with at most two vertices under every valid family."""
    for n in (1, 2):
        patterns = subsets(range(1, n + 1))
        families = [fam for r in range(len(patterns) + 1)
                    for fam in itertools.combinations(patterns, r)]
        for g in all_finite_graphs(n):
            yield from valid_models(g, families)


class TestVerifyCk:
    def test_golden_mean_all_pass(self, golden_model):
        rep = ck.verify_ck_relations(golden_model)
        assert rep.all_passed and rep.ck4_checked == 16
        assert rep.ck4_failed == 0 and rep.ck4_first_failure is None

    def test_toeplitz_ck4_fails(self, toeplitz_model):
        rep = ck.verify_ck_relations(toeplitz_model)
        assert rep.ck1.passed and rep.ck2.passed and rep.ck3.passed
        assert not rep.ck4_passed
        (pat,) = toeplitz_model.boundary
        assert rep.ck4_first_failure.witness == truncated_point((), pat)

    def test_ck4_failures_are_the_pairs_inside_a_boundary_set(self):
        # CK4 fails at (E, F) exactly when some J in the family has E inside
        # J and F disjoint from J; the witness is (∅;J) for the first such J
        cases = [(rows, fam) for rows in (((1, 1), (1, 1)), ((1, 1), (1, 0)),
                                          ((0, 1), (0, 0)))
                 for fam in ([(1, 2)], [(1,), (2,)], [(), (2,), (1, 2)])]
        cases += [(((1, 1, 1),) * 3, fam)
                  for fam in ([(1, 2, 3)], [(1,), (2, 3)], [(1, 2), (1, 3), (2, 3)])]
        cases.append((((0, 1, 0), (0, 0, 1), (1, 0, 0)), [(), (1, 3)]))
        for rows, fam in cases:
            g = ck.FiniteGraph(rows)
            model = ck.validate_model(g, [ck.make_pattern(g, finite=J) for J in fam])
            pairs = all_pairs(list(g.vertices()))
            expected = {}
            for E, F in pairs:
                hits = [J for J in model.boundary_sorted()
                        if set(E) <= J.finite and not set(F) & J.finite]
                if hits:
                    expected[E, F] = truncated_point((), hits[0])
            results = {(E, F): ck.ck4_identity(model, E, F) for E, F in pairs}
            assert {pair: res.witness for pair, res in results.items()
                    if not res.holds} == expected, (rows, fam)
            rep = ck.verify_ck_relations(model)
            assert rep.ck4_checked == len(pairs) and rep.ck4_not_finitely_supported == 0
            assert rep.ck4_failed == len(expected)
            assert rep.ck4_first_failure == Ck4Failure((), (), expected[(), ()])

    def test_ray_windowed(self, ray):
        m = ck.dense_model(ray)
        pairs = [((i,), ()) for i in range(1, 5)]
        rep = ck.verify_ck_relations(m, vertices=range(1, 5), ck4_pairs=pairs)
        assert rep.all_passed

    def test_infinite_rows_decided_on_window_letters(self):
        # vertex 1 has infinitely many successors, so CK1-3 read the window:
        # only a repeated window vertex can fail, and it fails CK2
        m = ck.dense_model(ck.BlockPatternGraph((1, None), ((1, 1), (1, 1))))
        rep = ck.verify_ck_relations(m, vertices=[1, 2, 2], ck4_pairs=[])
        assert rep.ck1.passed and rep.ck3.passed
        assert not rep.ck2.passed and rep.ck2.witness == (2, 2)
        assert ck.verify_ck_relations(m, vertices=[1, 2, 3], ck4_pairs=[]).all_passed
        with pytest.raises(ValidationError, match="unknown vertex 0"):
            ck.verify_ck_relations(m, vertices=[1, 0], ck4_pairs=[])

    def test_explicit_pairs_count_and_first_failure(self):
        # windowed infinite model: class 1 = {1, 2} feeds itself, the
        # infinite class 2 feeds both; pairs are counted in the order given
        g = ck.BlockPatternGraph((2, None), ((1, 0), (1, 1)))
        J = ck.make_pattern(g, finite=(1,), classes=(2,))
        m = ck.validate_model(g, [ck.make_pattern(g, classes=(2,)), J])
        pairs = [((2,), (1,)), ((), (1,)), ((1,), (2,)), ((1,), ()), ((1, 2), ()),
                 ((3,), ())]
        rep = ck.verify_ck_relations(m, vertices=[1, 2], ck4_pairs=pairs)
        assert [ck.ck4_identity(m, E, F).status for E, F in pairs] == \
            ["holds", "not_finitely_supported", "fails", "fails", "holds",
             "not_finitely_supported"]
        assert (rep.ck4_checked, rep.ck4_failed, rep.ck4_not_finitely_supported) == (6, 2, 2)
        assert rep.ck4_first_failure == Ck4Failure((1,), (2,), truncated_point((), J))


class TestCkClosedForm:
    """The closed-form report against the monomial CK1-3 and the explicit
    per-pair CK4 loop."""

    def test_ck13_every_small_graph_and_family(self):
        models = list(small_models())
        assert len(models) == 232
        for model in models:
            assert_ck13_matches_oracle(model)

    def test_ck13_every_three_vertex_graph(self):
        # two families per graph, cycling through the shapes; the second
        # covers every vertex, so a graph with a zero row keeps at least one
        shapes = ([(1, 2, 3)], [(1,), (2, 3)], [(), (1, 2, 3)], [(2,), (1, 3)], [])
        for k, g in enumerate(all_finite_graphs(3)):
            families = [shapes[k % 5], shapes[(k + 1) % 5] + [(1, 2, 3)]]
            models = list(valid_models(g, families))
            assert models, g
            for model in models:
                assert_ck13_matches_oracle(model)

    def test_ck13_windows(self, ray):
        golden = ck.dense_model(ck.FiniteGraph(((1, 1), (1, 0))))
        full3 = ck.validate_model(ck.FiniteGraph(((1, 1, 1),) * 3),
                                  [ck.make_pattern(ck.FiniteGraph(((1, 1, 1),) * 3),
                                                   finite=(1, 3))])
        banded = ck.dense_model(ck.BandedTailGraph(((1,),), 1, (2,), ((1,),)))
        block = ck.BlockPatternGraph((2, None), ((1, 0), (1, 0)))  # finite rows
        cases = [(golden, [2, 1, 1, 2]), (golden, [1, 2, 2, 1]), (full3, [3, 1, 3]),
                 (full3, [2, 1, 1, 2]), (ck.dense_model(ray), [1, 2, 3, 4]),
                 (ck.dense_model(ray), [4, 2, 2, 4, 1]), (banded, [1, 2, 3, 4, 5]),
                 (banded, [3, 1, 1, 3]), (ck.dense_model(block), [1, 2, 3, 4]),
                 (ck.dense_model(block), [2, 1, 1, 2, 3])]
        for model, window in cases:
            assert_ck13_matches_oracle(model, window)
        rep = ck.verify_ck_relations(golden, vertices=[2, 1, 1, 2], ck4_pairs=[])
        assert rep.ck2.witness == (2, 2)  # the first repeated pair, not vertex 1

    def test_ck2_witness_is_the_first_repeated_pair(self):
        # the one-pass count against the scan of every pair of positions
        rng = random.Random(16)
        model = ck.dense_model(ck.FiniteGraph(((1,) * 6,) * 6))
        repeats = 0
        for _ in range(400):
            window = [rng.randint(1, 6) for _ in range(rng.randint(0, 9))]
            expected = next(((i, j) for i, j in itertools.combinations(window, 2)
                             if i == j), None)
            rep = ck.verify_ck_relations(model, vertices=window, ck4_pairs=[])
            assert (rep.ck2.witness, rep.ck2.passed) == (expected, expected is None), window
            repeats += expected is not None
        assert 100 < repeats < 400

    def test_ck4_every_small_graph_and_family(self):
        for model in small_models():
            rep = assert_ck4_matches_pairs(model)
            assert rep.ck4_not_finitely_supported == 0
            assert (rep.ck4_first_failure is None) == (not model.boundary)

    def test_ck4_random_models(self):
        rng = random.Random(6)
        power_set = subsets((1, 2, 3, 4))
        full4 = ck.FiniteGraph(((1, 1, 1, 1),) * 4)
        models = [ck.validate_model(full4, [ck.make_pattern(full4, finite=J)
                                            for J in power_set])]
        while len(models) < 24:
            n = rng.choice((3, 4))
            g = ck.FiniteGraph(tuple(tuple(rng.randint(0, 1) for _ in range(n))
                                     for _ in range(n)))
            family = rng.sample(subsets(range(1, n + 1)), rng.randint(0, 2 ** n))
            models.extend(valid_models(g, [family]))
        assert sum(() in [tuple(J.finite) for J in m.boundary] for m in models) > 1
        for model in models:
            assert_ck4_matches_pairs(model)
        g = ck.FiniteGraph(((1, 1, 0), (0, 1, 1), (1, 0, 1)))
        model = ck.validate_model(g, [ck.make_pattern(g, finite=J)
                                      for J in ((), (1,), (1, 3), (2, 3))])
        for window in ([2, 1, 1, 2], [3, 3, 3], [1], []):
            assert_ck4_matches_pairs(model, window)

    def test_finite_block_patterns_never_materialize(self, monkeypatch):
        # each report is decided on the classes and equals the report on
        # the explicit matrix, computed before materialize is forbidden
        cases = []
        for g in block_patterns(max_classes=2, max_card=2):
            n = g.total_size()
            flat = g.materialize()
            families = [[], [tuple(range(1, n + 1))], [(1,), tuple(range(2, n + 1))]]
            cases += [(model, ck.verify_ck_relations(flat_model))
                      for model, flat_model in zip(valid_models(g, families),
                                                   valid_models(flat, families))]
        assert len(cases) > 100
        monkeypatch.setattr(ck.BlockPatternGraph, "materialize",
                            lambda self: pytest.fail("a finite block pattern was materialized"))
        for model, expected in cases:
            assert ck.verify_ck_relations(model) == expected, model


class TestTailPartition:
    def test_full_shift(self, full2_model):
        classes = ck.tail_partition(full2_model, 1, 2)
        assert len(classes) == 4 and all(len(c) == 2 for c in classes)

    def test_discrete_at_zero(self, full2_model, toeplitz_model):
        for model in (full2_model, toeplitz_model):
            classes = ck.tail_partition(model, 0, 2)
            assert all(len(c) == 1 for c in classes)

    def test_golden_mean(self, golden_model):
        classes = ck.tail_partition(golden_model, 1, 2)
        assert sorted(len(c) for c in classes) == [1, 2, 2]

    def test_brute_pairwise(self, toeplitz_model):
        # the key-based partition matches pairwise shift comparison
        def tshift(p, k):
            return (p.word[k:], p.boundary) if len(p.word) >= k else None
        for N, level in ((1, 2), (2, 3)):
            classes = ck.tail_partition(toeplitz_model, N, level)
            index = {}
            for ci, cls in enumerate(classes):
                for p in cls:
                    index[p] = ci
            pts = list(ck.spectrum_level(toeplitz_model, level).points)
            for p, q in itertools.combinations(pts, 2):
                related = any(
                    tshift(p, k) is not None and tshift(p, k) == tshift(q, k)
                    and p.is_full == q.is_full
                    for k in range(N + 1))
                assert related == (index[p] == index[q]), (p.render(), q.render())

    def test_nesting(self, full2_model):
        fine = ck.tail_partition(full2_model, 1, 3)
        coarse = ck.tail_partition(full2_model, 2, 3)
        for cls in fine:
            assert any(set(cls) <= set(big) for big in coarse)

    def test_full_shift_class_size_power(self):
        g = ck.FiniteGraph(((1, 1, 1),) * 3)
        m = ck.dense_model(g)
        for n_level, shifts in ((2, 2), (3, 2)):
            classes = ck.tail_partition(m, shifts, n_level)
            assert all(len(c) == 3 ** shifts for c in classes)

    def test_level_check(self, full2_model):
        with pytest.raises(ValidationError):
            ck.tail_partition(full2_model, 3, 2)


class TestParser:
    def test_word_with_star(self, full2_model):
        m = ck.parse_monomial(full2_model, "S(1,2)* . S(1)")
        s1 = ck.generator(full2_model, 1)
        s2 = ck.generator(full2_model, 2)
        expect = ck.compose(ck.adjoint(ck.compose(s1, s2)), s1)
        assert m == expect

    def test_identity_literal(self, full2_model):
        assert ck.parse_monomial(full2_model, "1") == ck.identity(full2_model)

    def test_whitespace(self, full2_model):
        assert ck.parse_monomial(full2_model, " S( 1 , 2 ) . S(2)* ") == \
            ck.parse_monomial(full2_model, "S(1,2).S(2)*")

    def test_rejects_garbage(self, full2_model):
        with pytest.raises(ValidationError):
            ck.parse_monomial(full2_model, "S(1,) . S(2)")
        with pytest.raises(ValidationError):
            ck.parse_monomial(full2_model, "T(1)")
        with pytest.raises(ValidationError):
            ck.parse_monomial(full2_model, "S(1) . . S(2)")
