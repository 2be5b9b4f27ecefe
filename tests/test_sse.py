import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckshift as ck
from ckshift.errors import DomainError, ValidationError
from ckshift.intmat import det, identity, mat_mul, mat_pow, mat_sub, power_sums, trace
from ckshift.sse import (DimensionGroup, edge_paths, edge_set, validate_edge_path,
                         verify_strong_chain)

A2 = ((2,),)
ALL1 = ((1, 1), (1, 1))
R12 = ((1, 1),)
S21 = ((1,), (1,))
GOLDEN = ((1, 1), (1, 0))


@pytest.mark.parametrize("call, name", [
    (lambda: ck.trace_powers(GOLDEN, 2.0), "k_max"),
    (lambda: ck.search_elementary(A2, ALL1, True, 2), "inner_dim_bound"),
    (lambda: ck.search_elementary(A2, ALL1, 2, 2.0), "entry_bound"),
    (lambda: DimensionGroup(GOLDEN).positive_bounded(DimensionGroup(GOLDEN).element((1, 0)), 1.5),
     "k_max"),
    (lambda: ck.verify_shift_equivalence(A2, ALL1, R12, S21, 2.0), "k"),
    (lambda: ck.verify_shift_equivalence(A2, ALL1, R12, S21, True), "k"),
    (lambda: list(edge_paths(GOLDEN, 2.0)), "length"),
])
def test_integer_arguments_reject_bools_and_non_ints(call, name):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
        call()


def test_negative_edge_path_length_is_rejected():
    # it used to give no words
    with pytest.raises(ValidationError, match="^length must be nonnegative"):
        list(edge_paths(GOLDEN, -1))
    assert list(edge_paths(GOLDEN, 0)) == [()]


def trace_powers_oracle(A, k_max):
    """[_, tr A, ..., tr A^k] by cumulative products A, A^2, ..., A^k."""
    out = [0] * (k_max + 1)
    cur = A
    for k in range(1, k_max + 1):
        out[k] = trace(cur)
        if k < k_max:
            cur = mat_mul(cur, A)
    return out


def random_pair(rng, nmax=4, entry=3):
    n, m = rng.randint(1, nmax), rng.randint(1, nmax)
    R = tuple(tuple(rng.randint(0, entry) for _ in range(m)) for _ in range(n))
    S = tuple(tuple(rng.randint(0, entry) for _ in range(n)) for _ in range(m))
    return mat_mul(R, S), mat_mul(S, R), R, S


class TestVerify:
    def test_elementary_examples(self):
        assert ck.verify_elementary(A2, R12, S21, ALL1)
        assert ck.verify_elementary(A2, ((2,),), ((1,),), A2)
        assert not ck.verify_elementary(A2, R12, S21, ((1, 1), (1, 0)))

    def test_shape_errors(self):
        with pytest.raises(ValidationError, match="shape"):
            ck.verify_elementary(A2, ((1,),), S21, ALL1)
        with pytest.raises(ValidationError, match="nonnegative"):
            ck.verify_elementary(A2, ((-1, 1),), S21, ALL1)

    def test_shift_equivalence_examples(self):
        assert ck.verify_shift_equivalence(A2, A2, ((2,),), ((2,),), 2)
        # an elementary pair is a lag-1 shift equivalence
        assert ck.verify_shift_equivalence(A2, ALL1, R12, S21, 1)
        for R, S in (( ((1,),), ((1,),) ), ( ((2,),), ((1,),) )):
            for k in (1, 2, 3):
                assert not ck.verify_shift_equivalence(A2, ((3,),), R, S, k)

    def test_lag_one_is_the_elementary_check(self):
        # random pairs and copies with one entry bumped agree verdict for verdict
        rng = random.Random(17)
        verdicts = set()
        for _ in range(300):
            cert = list(random_pair(rng, nmax=3, entry=2))
            which = rng.randrange(5)
            if which < 4:
                m = [list(row) for row in cert[which]]
                i, j = rng.randrange(len(m)), rng.randrange(len(m[0]))
                m[i][j] += 1
                cert[which] = tuple(map(tuple, m))
            A, B, R, S = cert
            want = ck.verify_elementary(A, R, S, B)
            assert ck.verify_shift_equivalence(A, B, R, S, 1) == want
            verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("A, B, R, S", [
        (((1, 1),), ALL1, R12, S21),               # A not square
        (A2, ((1, 1),), R12, S21),                 # B not square
        (A2, ALL1, ((-1, 1),), S21),               # R negative
        (A2, ALL1, R12, ((1,), (-1,))),            # S negative
        (A2, ALL1, ((1,),), S21),                  # R mis-shaped
        (A2, ALL1, R12, ((1, 1),)),                # S mis-shaped
        (((1, 1),), ALL1, ((-1, 1),), ((1, 1),)),  # several faults: the first wins
    ])
    def test_lag_one_raises_the_elementary_error(self, A, B, R, S):
        with pytest.raises(ValidationError) as elementary:
            ck.verify_elementary(A, R, S, B)
        with pytest.raises(ValidationError) as lag_one:
            ck.verify_shift_equivalence(A, B, R, S, 1)
        assert str(lag_one.value) == str(elementary.value)

    def test_higher_lags_share_the_pair_checks(self):
        for k in (2, 3):
            with pytest.raises(ValidationError, match="shape mismatch"):
                ck.verify_shift_equivalence(A2, ALL1, ((1,),), S21, k)
            with pytest.raises(ValidationError, match="R must be entrywise nonnegative"):
                ck.verify_shift_equivalence(A2, ALL1, ((-1, 1),), S21, k)

    def test_lag_validation(self):
        with pytest.raises(ValidationError, match="lag"):
            ck.verify_shift_equivalence(A2, A2, ((2,),), ((2,),), 0)

    def test_strong_chain(self):
        assert verify_strong_chain(A2, ALL1, [(R12, S21)])
        assert verify_strong_chain(A2, A2, [])
        # two-step chain back to [2]
        assert verify_strong_chain(A2, A2, [(R12, S21), (S21, R12)])
        assert not verify_strong_chain(A2, ((3,),), [(R12, S21)])

    def test_strong_chain_multiplies_each_pair_once_each_way(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ck.sse, "mat_mul",
                            lambda X, Y: calls.append((X, Y)) or mat_mul(X, Y))
        assert verify_strong_chain(A2, A2, [(R12, S21), (S21, R12)])
        assert calls == [(S21, R12), (R12, S21), (R12, S21), (S21, R12)]
        calls.clear()
        assert not verify_strong_chain(((3,),), ALL1, [(R12, S21)])  # R·S is [2], not [3]
        assert calls == [(S21, R12), (R12, S21)]
        with pytest.raises(ValidationError, match="R must be entrywise nonnegative"):
            verify_strong_chain(A2, ALL1, [(((-1, 1),), S21)])


class TestSearch:
    def test_finds_canonical_pair(self):
        assert ck.search_elementary(A2, ALL1, 2, 1) == (R12, S21)

    def test_screen_rejects_distinct(self):
        assert ck.search_elementary(A2, ((3,),), 2, 3) is None

    def test_identity(self):
        one = ((1,),)
        assert ck.search_elementary(one, one, 1, 1) == (one, one)

    def test_inner_dim_guard(self):
        assert ck.search_elementary(A2, ALL1, 1, 1) is None

    def test_bounds_validation(self):
        with pytest.raises(ValidationError):
            ck.search_elementary(A2, ALL1, 0, 1)


class TestInvariants:
    def test_bowen_franks_values(self):
        assert ck.bowen_franks(A2) == ck.BowenFranks((1,), -1)
        assert ck.bowen_franks(((3,),)) == ck.BowenFranks((2,), -2)
        assert ck.bowen_franks(GOLDEN) == ck.BowenFranks((1, 1), -1)
        assert ck.bowen_franks(((3,),)).torsion == (2,)
        assert ck.bowen_franks(A2).torsion == ()

    def test_charpoly_nonzero_part(self):
        assert ck.charpoly_nonzero_part(A2) == (1, -2)
        assert ck.charpoly_nonzero_part(ALL1) == (1, -2)
        assert ck.charpoly_nonzero_part(GOLDEN) == (1, -1, -1)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sylvester_identity(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        R = tuple(tuple(data.draw(st.integers(0, 3)) for _ in range(m))
                  for _ in range(n))
        S = tuple(tuple(data.draw(st.integers(0, 3)) for _ in range(n))
                  for _ in range(m))
        A, B = mat_mul(R, S), mat_mul(S, R)
        assert det(mat_sub(identity(n), A)) == det(mat_sub(identity(m), B))

    def test_invariance_on_generated_pairs(self):
        rng = random.Random(9)
        for _ in range(60):
            A, B, _, _ = random_pair(rng)
            cmp = ck.compare_invariants(A, B)
            assert cmp.all_equal, (A, B)


class TestConjugacy:
    def test_edge_sets(self):
        assert edge_set(A2) == [(1, 1, 1), (1, 1, 2)]
        assert len(edge_set(ALL1)) == 4

    def test_canonical_alpha_beta(self):
        pair = ck.build_conjugacy(R12, S21, A2, ALL1)
        r1, r2 = (1, 1, 1), (1, 2, 1)
        s1, s2 = (1, 1, 1), (2, 1, 1)
        assert pair.alpha == {(1, 1, 1): (r1, s1), (1, 1, 2): (r2, s2)}
        assert pair.beta[(1, 2, 1)] == (s1, r2)

    def test_phi_example(self):
        pair = ck.build_conjugacy(R12, S21, A2, ALL1)
        a1, a2 = (1, 1, 1), (1, 1, 2)
        assert ck.apply_phi(pair, [a1, a1, a2]) == [(1, 1, 1), (1, 2, 1)]

    def test_too_short(self):
        pair = ck.build_conjugacy(R12, S21, A2, ALL1)
        with pytest.raises(DomainError):
            ck.apply_phi(pair, [(1, 1, 1)])

    def test_inadmissible_path(self):
        pair = ck.build_conjugacy(R12, S21, A2, ALL1)
        with pytest.raises(ValidationError):
            ck.apply_phi(pair, [(1, 1, 1), (1, 1, 9)])

    def test_psi_checks_its_path(self):
        pair = ck.build_conjugacy(R12, S21, A2, ALL1)
        with pytest.raises(DomainError):
            ck.apply_psi(pair, [(1, 1, 1)])
        with pytest.raises(ValidationError, match="is not an edge"):
            ck.apply_psi(pair, [(1, 1, 1), (1, 2, 2)])
        with pytest.raises(ValidationError, match="do not meet"):
            ck.apply_psi(pair, [(1, 1, 1), (2, 1, 1)])

    def test_maps_against_the_defining_formulas(self):
        # phi: b_k = beta^-1(s_k r_{k+1}) with alpha(a_k) = r_k s_k;
        # psi: a_k = alpha^-1(r_{k+1} s_{k+1}) with beta(b_k) = s_k r_{k+1}
        for pair in self._pairs():
            alpha_inv = {v: k for k, v in pair.alpha.items()}
            beta_inv = {v: k for k, v in pair.beta.items()}
            for p in edge_paths(pair.A, 4):
                want = [beta_inv[(pair.alpha[p[k]][1], pair.alpha[p[k + 1]][0])]
                        for k in range(3)]
                assert ck.apply_phi(pair, p) == want
            for p in edge_paths(pair.B, 4):
                want = [alpha_inv[(pair.beta[p[k]][1], pair.beta[p[k + 1]][0])]
                        for k in range(3)]
                assert ck.apply_psi(pair, p) == want

    def test_split_tables_are_the_edge_sets(self):
        # the transport checks a path against the keys of alpha / beta, so
        # they must be exactly the edges of A / B; the inverses are built once
        for pair in self._pairs():
            assert sorted(pair.alpha) == edge_set(pair.A)
            assert sorted(pair.beta) == edge_set(pair.B)
            assert pair.alpha_inv == {v: k for k, v in pair.alpha.items()}
            assert pair.beta_inv == {v: k for k, v in pair.beta.items()}
        with pytest.raises(ValidationError, match=r"\(1, 1, 3\) is not an edge"):
            validate_edge_path(A2, [(1, 1, 1), (1, 1, 3)])
        with pytest.raises(ValidationError, match="do not meet head-to-tail"):
            validate_edge_path(ALL1, [(1, 1, 1), (2, 1, 1)])
        validate_edge_path(ALL1, [(1, 2, 1), (2, 1, 1)])

    def test_requires_elementary(self):
        with pytest.raises(ValidationError):
            ck.build_conjugacy(R12, S21, A2, ((1, 1), (1, 0)))

    def _pairs(self):
        ident = ((1, 0), (0, 1))
        swap = ((0, 1), (1, 0))
        return [
            ck.build_conjugacy(R12, S21, A2, ALL1),
            ck.build_conjugacy(ident, ident, ident, ident),
            ck.build_conjugacy(swap, ident, swap, swap),
        ]

    def test_composition_identities(self):
        # psi.phi and phi.psi realize one shift step, for words up to length 10
        for pair in self._pairs():
            for L in (3, 4, 7, 10):
                for p in edge_paths(pair.A, L):
                    assert tuple(ck.apply_psi(pair, ck.apply_phi(pair, p))) == \
                        p[1:L - 1]
                for p in edge_paths(pair.B, L):
                    assert tuple(ck.apply_phi(pair, ck.apply_psi(pair, p))) == \
                        p[1:L - 1]

    def test_edge_paths_against_product_oracle(self):
        M = ((1, 2), (1, 0))
        edges = edge_set(M)
        for L in range(0, 5):
            want = [p for p in itertools.product(edges, repeat=L)
                    if all(e[1] == f[0] for e, f in zip(p, p[1:]))]
            assert list(edge_paths(M, L)) == want
            if L:
                assert len(want) == sum(map(sum, mat_pow(M, L)))

    def test_intertwining(self):
        # phi(shift p) = shift(phi p) where lengths permit
        for pair in self._pairs():
            for L in (3, 5, 8):
                for p in edge_paths(pair.A, L):
                    assert ck.apply_phi(pair, p[1:]) == ck.apply_phi(pair, p)[1:]


class TestDimensionGroup:
    def test_defining_identification(self):
        dg = DimensionGroup(A2)
        assert dg.equal(dg.element((1,), 0), dg.element((2,), 1))

    def test_distinct_elements(self):
        dg = DimensionGroup(A2)
        assert not dg.equal(dg.element((1,), 1), dg.element((1,), 0))

    def test_golden_positive(self):
        dg = DimensionGroup(GOLDEN)
        v = dg.element((1, -1), 0)
        res = dg.positive_bounded(v, 3)
        assert (res.status, res.power) == ("positive", 1)

    def test_negative_and_undecided(self):
        dg = DimensionGroup(GOLDEN)
        assert dg.positive_bounded(dg.element((-1, 1), 0), 3).status == "negative"
        dg2 = DimensionGroup(((0, 1), (1, 0)))
        assert dg2.positive_bounded(dg2.element((1, -1), 0), 4).status == "undecided"

    def test_equivalence_relation_and_tau(self):
        rng = random.Random(10)
        for base in (A2, GOLDEN, ALL1):
            dg = DimensionGroup(base)
            n = len(base)
            elems = [dg.element(tuple(rng.randint(-5, 5) for _ in range(n)),
                                rng.randint(0, 3)) for _ in range(30)]
            for x in elems:
                assert dg.equal(x, x)
                assert dg.equal(dg.tau(dg.tau_inv(x)), x)
                assert dg.equal(dg.tau_inv(dg.tau(x)), x)
            for x, y in zip(elems, elems[1:]):
                if dg.equal(x, y):
                    assert dg.equal(dg.tau(x), dg.tau(y))
                assert dg.equal(dg.add(x, y), dg.add(y, x))

    def test_tau_respects_equality_on_identified_pairs(self):
        dg = DimensionGroup(GOLDEN)
        x = dg.element((3, -1), 0)
        y = dg.element(tuple(sum(r * v for r, v in zip(row, (3, -1)))
                             for row in GOLDEN), 1)
        assert dg.equal(x, y)
        assert dg.equal(dg.tau(x), dg.tau(y))

    @pytest.mark.parametrize("vector, level", [((1.7, True), 0), (("3", 1), 0),
                                               ((True, 0), 0), ((1, 2), 1.5),
                                               ((1, 2), True), ((1, 2), "1")])
    def test_element_rejects_non_integers(self, vector, level):
        dg = DimensionGroup(GOLDEN)
        with pytest.raises(ValidationError, match="must be integers"):
            dg.element(vector, level)
        assert dg.element((1, 2), 1).vector == (1, 2)

    @pytest.mark.parametrize("vector", (5, None, 1.5))
    def test_element_rejects_a_non_sequence(self, vector):
        dg = DimensionGroup(GOLDEN)
        with pytest.raises(ValidationError, match="^the vector must be a sequence of integers, got "):
            dg.element(vector)

    def test_neg_gives_inverse(self):
        dg = DimensionGroup(GOLDEN)
        x = dg.element((4, -7), 2)
        zero = dg.element((0, 0), 0)
        minus_x = dg.element(tuple(-c for c in x.vector), x.level)
        assert dg.equal(dg.add(x, minus_x), zero)

    def test_mixed_groups_rejected(self):
        dg = DimensionGroup(A2)
        other = DimensionGroup(((3,),))
        with pytest.raises(ValidationError):
            dg.equal(dg.element((1,)), other.element((1,)))

    def test_non_square_or_negative_rejected(self):
        with pytest.raises(ValidationError):
            DimensionGroup(((1, 2),))
        with pytest.raises(ValidationError):
            DimensionGroup(((-1,),))


class TestTracePowers:
    def test_every_small_01_matrix(self):
        for n in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=n * n):
                A = tuple(bits[i * n:(i + 1) * n] for i in range(n))
                for k in range(2 * n + 3):
                    assert ck.trace_powers(A, k) == trace_powers_oracle(A, k), (A, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.data())
    def test_integer_matrices(self, n, data):
        A = tuple(tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
                  for _ in range(n))
        for k in range(2 * n + 3):
            assert ck.trace_powers(A, k) == trace_powers_oracle(A, k), k

    @pytest.mark.parametrize("big", (1, 7, 2**64))
    def test_worst_case_slot(self, big):
        # every entry of the all-M matrix attains the packing bound: A^k is
        # n^(k-1) M^k in every entry and tr A^k = n^k M^k, for either sign
        for n in range(1, 13):
            for entry in (big, -big):
                A = ((entry,) * n,) * n
                want = trace_powers_oracle(A, 2 * n + 3)
                assert want[1:] == [(n * entry) ** k for k in range(1, 2 * n + 4)]
                for k in range(2 * n + 4):
                    assert power_sums(A, k) == want[:k + 1], (n, entry, k)
                with pytest.raises(ValidationError, match="^m must be nonnegative$"):
                    power_sums(A, -1)

    def test_mixed_sign_matrices(self):
        rng = random.Random(23)
        for n in (*range(1, 11), 13, 17, 24):
            # the oracle's products of 100-bit entries cost seconds past n = 13
            for bound in (1, 9, 2**100) if n <= 13 else (1, 9):
                A = tuple(tuple(rng.randint(-bound, bound) for _ in range(n))
                          for _ in range(n))
                want = trace_powers_oracle(A, 2 * n + 3)
                for k in range(2 * n + 4):
                    assert power_sums(A, k) == want[:k + 1], (A, k)

    def test_zero_and_one_by_one(self):
        for n in range(1, 6):
            Z = ((0,) * n,) * n
            for k in range(2 * n + 4):
                assert power_sums(Z, k) == [0] * (k + 1)
        for a in (-2**70, -3, -1, 0, 1, 2, 5, 2**70):
            with pytest.raises(ValidationError, match="^m must be nonnegative$"):
                power_sums(((a,),), -1)
            for k in range(6):
                assert power_sums(((a,),), k) == [0] + [a**j for j in range(1, k + 1)]

    def test_edge_cases(self):
        assert ck.trace_powers(GOLDEN, 0) == [0]
        for k in (-1, -5):
            with pytest.raises(ValidationError, match="^k_max must be nonnegative$"):
                ck.trace_powers(GOLDEN, k)
        with pytest.raises(ValidationError, match="^trace powers need a square matrix$"):
            ck.trace_powers(R12, 3)


class TestTraceBridge:
    def test_trace_powers_match_walk_counts(self):
        from ckshift.pathspace import strict_period_counts
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = tuple(tuple(rng.randint(0, 1) for _ in range(n))
                         for _ in range(n))
            g = ck.FiniteGraph(rows)
            assert strict_period_counts(g, 8) == ck.trace_powers(rows, 8)
