"""Exact arbitrary-precision integer matrix arithmetic.

Matrices are tuples of tuples of Python ints.  Everything here is exact:
determinants are fraction-free, the power sums tr A^k come from matrix
powers kept as row-packed integers (Kronecker substitution) and from the
recurrence of the characteristic polynomial, whose coefficients follow
from them by Newton's identities with integral divisions, and the Smith
normal form returns unimodular transforms with U @ M @ V equal to the
diagonal.
"""

from __future__ import annotations

from itertools import chain
from operator import lshift, mul, rshift
from typing import Sequence

from .errors import ValidationError, _require_ints, short_repr
from .value import Value

Matrix = tuple[tuple[int, ...], ...]


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    out = []
    width = None
    for r, row in enumerate(rows):
        vals = []
        for c, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValidationError(
                    f"entry [{r+1}][{c+1}] must be an integer, got {short_repr(x)}")
            vals.append(x)
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ValidationError(f"ragged matrix: row {r+1} has {len(vals)} entries, expected {width}")
        out.append(tuple(vals))
    if not out or width == 0:
        raise ValidationError("matrix must have at least one row and one column")
    return tuple(out)


def shape(m: Matrix) -> tuple[int, int]:
    """(rows, columns); an empty or ragged matrix raises ValidationError,
    worded as in :func:`as_matrix`."""
    width = len(m[0]) if m else 0
    for row in m:  # a plain loop: no allocation, cheap on the 2x2 products
        if len(row) != width:
            r = next(r for r, row in enumerate(m) if len(row) != width)
            raise ValidationError(f"ragged matrix: row {r+1} has {len(m[r])} entries, expected {width}")
    if not width:
        raise ValidationError("matrix must have at least one row and one column")
    return (len(m), width)


def is_square(m: Matrix) -> bool:
    r, c = shape(m)
    return r == c


def is_nonneg(m: Matrix) -> bool:
    return all(x >= 0 for row in m for x in row)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValidationError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ValidationError("shape mismatch in addition")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ValidationError("shape mismatch in subtraction")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scalar_mul(k: int, a: Matrix) -> Matrix:
    return tuple(tuple(k * x for x in row) for row in a)


def mat_pow(a: Matrix, k: int) -> Matrix:
    if not is_square(a):
        raise ValidationError("powers need a square matrix")
    _require_ints(k=k)
    if k < 0:
        raise ValidationError("negative matrix powers are not defined here")
    result = identity(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def mat_vec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    r, c = shape(a)
    if len(v) != c:
        raise ValidationError(f"vector length {len(v)} does not match {r}x{c}")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def trace(a: Matrix) -> int:
    if not is_square(a):
        raise ValidationError("trace needs a square matrix")
    return sum(a[i][i] for i in range(len(a)))


def det(a: Matrix) -> int:
    """Fraction-free Gaussian elimination (Bareiss)."""
    if not is_square(a):
        raise ValidationError("determinant needs a square matrix")
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def power_sums(a: Matrix, m: int) -> list[int]:
    """[0, tr A, tr A^2, ..., tr A^m], for m >= 0.

    A^1..A^top with top = min(m, n) are formed by Kronecker substitution:
    row i of A^k is kept as one integer, the sum over j of
    (A^k)[i][j] * 2^(w*j), so A^k = A @ A^(k-1) costs one multiply-
    accumulate over the packed rows per row.  Every entry of A^k and every
    trace for k <= top is below n^top * M^top < 2^(w-2) in absolute value
    (M the largest |entry|), so each w-bit slot holds its signed value
    exactly, and tr A^k is read from the slots without unpacking.  Past
    the size n, the sums follow the recurrence
    p_k = -(c_1 p_(k-1) + ... + c_n p_(k-n)) of the characteristic
    polynomial x^n + c_1 x^(n-1) + ... + c_n."""
    if not is_square(a):
        raise ValidationError("power sums need a square matrix")
    _require_ints(m=m)
    if m < 0:
        raise ValidationError("m must be nonnegative")
    n = len(a)
    top = min(m, n)
    out = [0] * (m + 1)
    big = max(map(abs, chain.from_iterable(a)))
    if top < 1 or not big:
        return out
    w = ((n * big) ** top).bit_length() + 2
    shifts = range(0, w * n, w)
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    bias = half * (((1 << w * n) - 1) // mask)  # 2^(w-1) in every slot
    excess = (n - 1) * half
    rows = [sum(map(lshift, row, shifts)) for row in a]
    for k in range(1, top + 1):
        if k > 1:
            rows = [sum(map(mul, a_row, rows)) for a_row in a]
        # the biased slots (A^k)[i][j] + 2^(w-1) lie in [0, 2^w), so the
        # biased row i shifted right by w*i has (A^k)[i][i] + 2^(w-1) in
        # its low slot and no borrow from below; modulo 2^w these sum to
        # tr A^k + n * 2^(w-1), and tr A^k + 2^(w-1) lies in [0, 2^w)
        t = sum(map(rshift, map(bias.__add__, rows), shifts))
        out[k] = ((t - excess) & mask) - half
    if m > n:
        c = _newton(out, n)[1:]
        for k in range(n + 1, m + 1):
            out[k] = -sum(map(mul, c, out[k - 1:k - n - 1:-1]))
    return out


def _newton(p: Sequence[int], n: int) -> list[int]:
    """[1, c_1, ..., c_n] of x^n + c_1 x^(n-1) + ... + c_n from the power
    sums p_1..p_n of its roots, by Newton's identities
    k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1); for an integer
    matrix every division is exact."""
    c = [1]
    for k in range(1, n + 1):
        s = -sum(map(mul, c, p[k:0:-1]))
        if s % k:
            raise AssertionError(f"Newton's identities: {s} is not divisible by {k}")
        c.append(s // k)
    return c


def charpoly(a: Matrix) -> tuple[int, ...]:
    """Monic characteristic polynomial det(xI - A), coefficients in
    descending degree, from the power sums tr A^k (k <= n) by Newton's
    identities; every division is exact."""
    if not is_square(a):
        raise ValidationError("characteristic polynomial needs a square matrix")
    n = len(a)
    return tuple(_newton(power_sums(a, n), n))


# ---------------------------------------------------------------------------
# Smith normal form

class SmithForm(Value):
    __slots__ = ("factors", "U", "V", "D")


def smith_normal_form(m: Matrix) -> SmithForm:
    """Invariant factors d1 | d2 | ... (nonnegative, zeros trailing) with
    unimodular U, V satisfying U @ M @ V = diag(factors).  Pivoting takes
    the smallest nonzero absolute value; arbitrary precision throughout.

    The elimination runs on one list of working rows: top row i is row i
    of M then row i of U, and the ``cols`` rows beneath are V (U and V
    start as I).  So a row operation on a top row carries U along, and a
    column operation on the first ``cols`` columns of all rows carries V
    along; at the end D and U are the top rows split at ``cols``.
    """
    rows, cols = shape(m)
    w = [[*r, *e] for r, e in zip(m, identity(rows))] + [list(e) for e in identity(cols)]
    size = min(rows, cols)
    for s in range(size):
        while True:
            # smallest-|nonzero| pivot in the trailing block
            pivot = None
            for i in range(s, rows):
                for j in range(s, cols):
                    if w[i][j] and (pivot is None or abs(w[i][j]) < abs(w[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            i, j = pivot
            w[s], w[i] = w[i], w[s]
            for row in w:
                row[s], row[j] = row[j], row[s]
            if w[s][s] < 0:
                w[s] = [-x for x in w[s]]
            dirty = False
            for i in range(s + 1, rows):
                if w[i][s]:
                    q = w[i][s] // w[s][s]
                    w[i] = [x - q * y for x, y in zip(w[i], w[s])]
                    if w[i][s]:
                        dirty = True
            for j in range(s + 1, cols):
                if w[s][j]:
                    q = w[s][j] // w[s][s]
                    for row in w:
                        row[j] -= q * row[s]
                    if w[s][j]:
                        dirty = True
            if dirty:
                continue
            # divisibility: fold any non-multiple into the pivot's row
            offender = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if w[i][j] % w[s][s]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            w[s] = [x + y for x, y in zip(w[s], w[offender])]

    factors = tuple(w[i][i] for i in range(size))
    res = SmithForm(factors, tuple(tuple(r[cols:]) for r in w[:rows]),
                    tuple(map(tuple, w[rows:])), tuple(tuple(r[:cols]) for r in w[:rows]))
    if mat_mul(mat_mul(res.U, m), res.V) != res.D:
        raise AssertionError("Smith form: U @ M @ V differs from D")
    if abs(det(res.U)) != 1 or abs(det(res.V)) != 1:
        raise AssertionError("Smith form: U or V is not unimodular")
    for x, y in zip(factors, factors[1:]):
        if not ((x == 0 and y == 0) or (x != 0 and y % x == 0)):
            raise AssertionError(f"Smith form: factor {x} does not divide {y}")
    return res
