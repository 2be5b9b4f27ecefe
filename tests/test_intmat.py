import itertools
import random
import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import ckshift as ck
import ckshift.intmat as im
from ckshift.errors import ValidationError
from ckshift.intmat import Matrix, SmithForm, det, identity, mat_mul, shape


@pytest.mark.parametrize("call, name", [
    (lambda a: im.mat_pow(a, True), "k"),
    (lambda a: im.mat_pow(a, 2.0), "k"),
    (lambda a: im.power_sums(a, True), "m"),
    (lambda a: im.power_sums(a, 2.5), "m"),
])
def test_integer_arguments_reject_bools_and_non_ints(call, name):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
        call(((1, 1), (1, 0)))


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols))
                 for _ in range(rows))


def charpoly_oracle(a):
    """Faddeev-LeVerrier: M_1 = A, M_k = A (M_(k-1) + c_(k-1) I) and
    c_k = -tr(M_k)/k, one matrix product per coefficient."""
    n = len(a)
    coeffs = [1]
    m = a
    for k in range(1, n + 1):
        if k > 1:
            m = im.mat_mul(a, im.mat_add(m, im.scalar_mul(coeffs[-1], im.identity(n))))
        ck = -im.trace(m)
        assert ck % k == 0
        coeffs.append(ck // k)
    return tuple(coeffs)


def smith_normal_form_oracle(m: Matrix) -> SmithForm:
    """The Smith form as written with separate M, U and V arrays, each
    elementary operation applied to M and again to U or V: the reference
    the one-array elimination must match exactly.

    Invariant factors d1 | d2 | ... (nonnegative, zeros trailing) with
    unimodular U, V satisfying U @ M @ V = diag(factors).  Pivoting takes
    the smallest nonzero absolute value; arbitrary precision throughout.
    """
    rows, cols = shape(m)
    a = [list(r) for r in m]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):  # row_dst += q * row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    size = min(rows, cols)
    for s in range(size):
        while True:
            # smallest-|nonzero| pivot in the trailing block
            pivot = None
            for i in range(s, rows):
                for j in range(s, cols):
                    if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(s, pivot[0])
            swap_cols(s, pivot[1])
            if a[s][s] < 0:
                negate_row(s)
            dirty = False
            for i in range(s + 1, rows):
                if a[i][s]:
                    add_row(i, s, -(a[i][s] // a[s][s]))
                    if a[i][s]:
                        dirty = True
            for j in range(s + 1, cols):
                if a[s][j]:
                    add_col(j, s, -(a[s][j] // a[s][s]))
                    if a[s][j]:
                        dirty = True
            if dirty:
                continue
            # divisibility: fold any non-multiple into the pivot's row
            offender = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if a[i][j] % a[s][s]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(s, offender, 1)

    factors = tuple(a[i][i] for i in range(size))
    res = SmithForm(factors, tuple(map(tuple, u)), tuple(map(tuple, v)),
                    tuple(map(tuple, a)))
    if mat_mul(mat_mul(res.U, m), res.V) != res.D:
        raise AssertionError("Smith form: U @ M @ V differs from D")
    if abs(det(res.U)) != 1 or abs(det(res.V)) != 1:
        raise AssertionError("Smith form: U or V is not unimodular")
    for x, y in zip(factors, factors[1:]):
        if not ((x == 0 and y == 0) or (x != 0 and y % x == 0)):
            raise AssertionError(f"Smith form: factor {x} does not divide {y}")
    return res


class TestBasics:
    def test_as_matrix_validates(self):
        with pytest.raises(ValidationError, match="ragged"):
            im.as_matrix([[1, 2], [3]])
        with pytest.raises(ValidationError, match="integer"):
            im.as_matrix([[1.5]])
        with pytest.raises(ValidationError):
            im.as_matrix([])

    @pytest.mark.parametrize("bad", (((1, 2), (3,)), ((1,), (2, 3)), ((), (1,)), (), ((),), ((), ())))
    def test_kernels_reject_ragged_or_empty(self, bad):
        with pytest.raises(ValidationError) as wording:
            im.as_matrix(bad)
        message = f"^{re.escape(str(wording.value))}$"
        kernels = (lambda m: im.mat_mul(m, im.identity(2)),
                   lambda m: im.mat_mul(((1,),), m),
                   im.det, im.smith_normal_form, im.charpoly,
                   lambda m: im.power_sums(m, 3), lambda m: ck.trace_powers(m, 3))
        for kernel in kernels:
            with pytest.raises(ValidationError, match=message):
                kernel(bad)

    def test_mul_identity(self):
        rng = random.Random(0)
        m = random_matrix(rng, 3, 3)
        assert im.mat_mul(m, im.identity(3)) == m
        assert im.mat_mul(im.identity(3), m) == m

    def test_pow(self):
        a = ((1, 1), (1, 0))
        assert im.mat_pow(a, 0) == im.identity(2)
        assert im.mat_pow(a, 1) == a
        assert im.mat_pow(a, 5) == im.mat_mul(im.mat_mul(im.mat_mul(
            im.mat_mul(a, a), a), a), a)

    def test_trace(self):
        assert im.trace(((1, 2), (3, 4))) == 5


class TestDet:
    def test_examples(self):
        assert im.det(((2,),)) == 2
        assert im.det(((1, 2), (3, 4))) == -2
        assert im.det(((0, 0), (0, 0))) == 0

    def test_against_sympy(self):
        rng = random.Random(1)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            assert im.det(m) == int(sympy.Matrix(m).det())

    def test_det_of_x_minus_a_is_charpoly_at_x(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n, -4, 4)
            p = im.charpoly(a)
            i_minus_a = im.mat_sub(im.identity(n), a)
            assert sum(p) == im.det(i_minus_a)  # the value at x = 1


class TestCharpoly:
    def test_examples(self):
        assert im.charpoly(((2,),)) == (1, -2)
        assert im.charpoly(((1, 1), (1, 1))) == (1, -2, 0)
        assert im.charpoly(((1, 1), (1, 0))) == (1, -1, -1)

    def test_against_sympy(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n, -5, 5)
            lam = sympy.symbols("x")
            want = sympy.Poly(sympy.Matrix(a).charpoly(lam), lam).all_coeffs()
            assert list(im.charpoly(a)) == [int(c) for c in want]

    def test_against_sympy_up_to_ten(self):
        rng = random.Random(5)
        lam = sympy.symbols("x")
        for n in range(1, 11):
            for _ in range(8):
                a = random_matrix(rng, n, n, -3, 3)
                want = sympy.Poly(sympy.Matrix(a).charpoly(lam), lam).all_coeffs()
                assert list(im.charpoly(a)) == [int(c) for c in want], a

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.data())
    def test_against_faddeev_leverrier(self, n, data):
        a = tuple(tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
                  for _ in range(n))
        assert im.charpoly(a) == charpoly_oracle(a)

    def test_inexact_division_raises(self):
        # power sums 1, 0 give 2 c_2 = 1: no integer matrix has them
        with pytest.raises(AssertionError, match="not divisible by 2"):
            im._newton([0, 1, 0], 2)

    def test_non_square(self):
        with pytest.raises(ValidationError, match="characteristic polynomial needs"):
            im.charpoly(((1, 2),))
        with pytest.raises(ValidationError, match="power sums need"):
            im.power_sums(((1, 2),), 3)


class TestSmith:
    def test_examples(self):
        assert im.smith_normal_form(((0, -1), (-1, 1))).factors == (1, 1)
        assert im.smith_normal_form(((2, 0), (0, 3))).factors == (1, 6)
        assert im.smith_normal_form(((0, 0), (0, 0))).factors == (0, 0)

    def test_transforms_exact(self):
        rng = random.Random(4)
        for _ in range(60):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = random_matrix(rng, r, c, -6, 6)
            snf = im.smith_normal_form(m)
            assert im.mat_mul(im.mat_mul(snf.U, m), snf.V) == snf.D
            assert abs(im.det(snf.U)) == 1 and abs(im.det(snf.V)) == 1

    def test_against_sympy_invariant_factors(self):
        from sympy.matrices.normalforms import invariant_factors
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, -6, 6)
            got = im.smith_normal_form(m).factors
            want = tuple(abs(int(d)) for d in invariant_factors(sympy.Matrix(m)))
            assert got == want, m

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_divisibility_chain(self, r, c, data):
        m = tuple(tuple(data.draw(st.integers(-20, 20)) for _ in range(c))
                  for _ in range(r))
        factors = im.smith_normal_form(m).factors
        for x, y in zip(factors, factors[1:]):
            assert x >= 0 and y >= 0
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0

    def test_every_small_2x2_against_oracle(self):
        for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
            m = ((a, b), (c, d))
            assert im.smith_normal_form(m) == smith_normal_form_oracle(m), m

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_shapes_against_oracle(self, r, c, data):
        m = tuple(tuple(data.draw(st.integers(-20, 20)) for _ in range(c))
                  for _ in range(r))
        assert im.smith_normal_form(m) == smith_normal_form_oracle(m)

    def test_bowen_franks_matrices_against_oracle(self):
        rng = random.Random(24)
        for n in range(8, 25):
            for density in (0.2, 0.5):
                a = tuple(tuple(int(rng.random() < density) for _ in range(n)) for _ in range(n))
                m = im.mat_sub(im.identity(n), a)
                assert im.smith_normal_form(m) == smith_normal_form_oracle(m), a

    def test_wide_entries_against_oracle(self):
        # sparse, or unit upper triangular: a dense 16x16 with 101-bit
        # entries grows transforms of ~170,000 bits and takes seconds
        rng = random.Random(101)

        def big():
            return rng.choice((-1, 1)) * rng.randrange(2 ** 100, 2 ** 101)
        sparse = [tuple(tuple(big() if rng.random() < 1 / 8 else int(i == j) for j in range(16))
                        for i in range(16)) for _ in range(3)]
        upper = tuple(tuple(big() if j > i else int(i == j) for j in range(16)) for i in range(16))
        for m in sparse + [upper]:
            assert im.smith_normal_form(m) == smith_normal_form_oracle(m)

    def test_self_checks_stay(self, monkeypatch):
        monkeypatch.setattr(im, "det", lambda a: 2)
        with pytest.raises(AssertionError, match="not unimodular"):
            im.smith_normal_form(((2, 1), (1, 1)))

    def test_entry_growth_case(self):
        # dense 4x4 with mixed signs exercises the arbitrary-precision path
        m = ((7, -3, 2, 5), (-6, 4, -8, 1), (9, -2, 3, -7), (1, 8, -5, 6))
        snf = im.smith_normal_form(m)
        assert im.mat_mul(im.mat_mul(snf.U, m), snf.V) == snf.D
        prod = 1
        for d in snf.factors:
            prod *= d
        assert prod == abs(im.det(m))
