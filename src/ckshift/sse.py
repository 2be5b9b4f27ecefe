"""Elementary and shift equivalence of nonnegative integer matrices, the
induced edge-shift conjugacies, and the equivalence invariants: the
Bowen-Franks presentation of coker(I - A), det(I - A), the nonzero part
of the characteristic polynomial, and the dimension group with its shift
automorphism.  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
from typing import Container, Optional, Sequence

from .errors import DomainError, ValidationError, _require_ints, short_repr
from .graphs import words_of_length
from .intmat import (Matrix, as_matrix, charpoly, det, identity, is_nonneg,
                     is_square, mat_mul, mat_pow, mat_sub, mat_vec, power_sums,
                     shape, smith_normal_form)
from .value import Value


def _check_nonneg(m: Matrix, name: str) -> None:
    if not is_nonneg(m):
        raise ValidationError(f"{name} must be entrywise nonnegative")


def _check_pair(A: Matrix, B: Matrix, R: Matrix, S: Matrix) -> None:
    for m, name in ((A, "A"), (B, "B")):
        if not is_square(m):
            raise ValidationError(f"{name} must be square")
    _check_nonneg(R, "R"), _check_nonneg(S, "S")
    n, p = len(A), len(B)
    if shape(R) != (n, p) or shape(S) != (p, n):
        raise ValidationError(
            f"shape mismatch: need R {n}x{p} and S {p}x{n}, "
            f"got {shape(R)} and {shape(S)}")


def verify_elementary(A: Matrix, R: Matrix, S: Matrix, B: Matrix) -> bool:
    """A = RS and B = SR exactly, with R, S nonnegative."""
    _check_pair(A, B, R, S)
    return mat_mul(R, S) == A and mat_mul(S, R) == B


def verify_strong_chain(A: Matrix, B: Matrix,
                        pairs: Sequence[tuple[Matrix, Matrix]]) -> bool:
    """A chain of elementary equivalences A = A_0 ~ A_1 ~ ... ~ A_k = B;
    the intermediate matrices are determined by the certificate pairs."""
    cur = A
    for R, S in pairs:
        nxt = mat_mul(S, R)
        _check_pair(cur, nxt, R, S)
        if mat_mul(R, S) != cur:
            return False
        cur = nxt
    return cur == B


def verify_shift_equivalence(A: Matrix, B: Matrix, R: Matrix, S: Matrix,
                             k: int) -> bool:
    """AR = RB, SA = BS, RS = A^k, SR = B^k, all exact.  Lag 1 is the
    elementary check, since then AR = RSR = RB and SA = SRS = BS."""
    _require_ints(k=k)
    if k < 1:
        raise ValidationError("the lag must be a positive integer")
    if k == 1:
        return verify_elementary(A, R, S, B)
    _check_pair(A, B, R, S)
    return (mat_mul(A, R) == mat_mul(R, B)
            and mat_mul(S, A) == mat_mul(B, S)
            and mat_mul(R, S) == mat_pow(A, k)
            and mat_mul(S, R) == mat_pow(B, k))


# ---------------------------------------------------------------------------
# Invariants

class BowenFranks(Value):
    """coker(I - A) presented by the invariant factors of I - A."""

    __slots__ = ("factors", "determinant")

    @property
    def torsion(self) -> tuple[int, ...]:
        """The nontrivial cyclic orders (empty means the group is trivial
        unless a zero factor contributes a free summand)."""
        return tuple(d for d in self.factors if d not in (0, 1))

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.factors if d == 0)


def bowen_franks(A: Matrix) -> BowenFranks:
    if not is_square(A):
        raise ValidationError("the matrix must be square")
    m = mat_sub(identity(len(A)), A)
    snf = smith_normal_form(m)
    return BowenFranks(snf.factors, det(m))


def charpoly_nonzero_part(A: Matrix) -> tuple[int, ...]:
    """det(xI - A) with every factor of x stripped; descending
    coefficients of the monic remainder."""
    coeffs = list(charpoly(A))
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class InvariantComparison(Value):
    __slots__ = ("bf_factors_equal", "det_equal", "charpoly_equal")

    @property
    def all_equal(self) -> bool:
        return self.bf_factors_equal and self.det_equal and self.charpoly_equal


def compare_invariants(A: Matrix, B: Matrix) -> InvariantComparison:
    bfa, bfb = bowen_franks(A), bowen_franks(B)
    # pad the shorter factor list with 1s: a trivial summand is no summand
    fa = tuple(d for d in bfa.factors if d != 1)
    fb = tuple(d for d in bfb.factors if d != 1)
    return InvariantComparison(
        bf_factors_equal=(fa == fb),
        det_equal=(bfa.determinant == bfb.determinant),
        charpoly_equal=(charpoly_nonzero_part(A) == charpoly_nonzero_part(B)))


def search_elementary(A: Matrix, B: Matrix, inner_dim_bound: int,
                      entry_bound: int) -> Optional[tuple[Matrix, Matrix]]:
    """The lexicographically first nonnegative pair (R, S) with A = RS and
    B = SR and entries at most entry_bound, or None.  The factor shapes are
    forced (R is dimA x dimB); inner_dim_bound caps the admitted dimB.
    Provably distinct inputs are screened out by the invariants first."""
    _require_ints(inner_dim_bound=inner_dim_bound, entry_bound=entry_bound)
    if inner_dim_bound <= 0 or entry_bound <= 0:
        raise ValidationError("search bounds must be positive")
    for m, name in ((A, "A"), (B, "B")):
        if not is_square(m):
            raise ValidationError(f"{name} must be square")
        _check_nonneg(m, name)
    n, p = len(A), len(B)
    if p > inner_dim_bound:
        return None
    if not compare_invariants(A, B).all_equal:
        return None
    rng = range(entry_bound + 1)
    for r_entries in itertools.product(rng, repeat=n * p):
        R = tuple(tuple(r_entries[i * p:(i + 1) * p]) for i in range(n))
        # quick screen: a zero row of R forces a zero row of A
        if any(not any(R[i]) and any(A[i]) for i in range(n)):
            continue
        for s_entries in itertools.product(rng, repeat=p * n):
            S = tuple(tuple(s_entries[i * n:(i + 1) * n]) for i in range(p))
            if mat_mul(R, S) == A and mat_mul(S, R) == B:
                return R, S
    return None


# ---------------------------------------------------------------------------
# Edge graphs and the conjugacy induced by an elementary equivalence

Edge = tuple[int, int, int]  # (source, target, copy index 1..M(i,j))


def edge_set(M: Matrix) -> list[Edge]:
    """Edges of the graph with M(i,j) parallel edges i -> j, sorted."""
    _check_nonneg(M, "matrix")
    r, c = shape(M)
    return [(i, j, k)
            for i in range(1, r + 1)
            for j in range(1, c + 1)
            for k in range(1, M[i - 1][j - 1] + 1)]


def validate_edge_path(M: Matrix, path: Sequence[Edge]) -> None:
    _check_edge_path(set(edge_set(M)), path)


def _check_edge_path(edges: Container[Edge], path: Sequence[Edge]) -> None:
    for e in path:
        if e not in edges:
            raise ValidationError(f"{e} is not an edge of the graph")
    for e, f in zip(path, path[1:]):
        if e[1] != f[0]:
            raise ValidationError(f"edges {e} and {f} do not meet head-to-tail")


class ConjugacyPair(Value):
    """An elementary pair (R, S) for A = RS, B = SR, with the canonical
    bijections: alpha matches each A-edge with a two-edge path through the
    bipartite R/S edges, beta does the same for B-edges.  Paths are
    assigned in lexicographic order (middle vertex, first copy, second
    copy), pinning the choice the construction leaves free.  The inverse
    tables ``alpha_inv`` and ``beta_inv`` are built once, at construction."""

    __slots__ = ("A", "B", "R", "S", "alpha", "beta", "alpha_inv", "beta_inv")
    _fields = ("A", "B", "R", "S", "alpha", "beta")

    def __init__(self, A: Matrix, B: Matrix, R: Matrix, S: Matrix,
                 alpha: dict[Edge, tuple[Edge, Edge]], beta: dict[Edge, tuple[Edge, Edge]]):
        for name, value in zip(self._fields, (A, B, R, S, alpha, beta)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "alpha_inv", {v: k for k, v in alpha.items()})
        object.__setattr__(self, "beta_inv", {v: k for k, v in beta.items()})


def build_conjugacy(R: Matrix, S: Matrix, A: Matrix, B: Matrix) -> ConjugacyPair:
    if not verify_elementary(A, R, S, B):
        raise ValidationError("the pair does not satisfy A = RS and B = SR")
    n, p = len(A), len(B)

    def pair_up(first: Matrix, second: Matrix, target: Matrix,
                rows: int, mids: int, cols: int) -> dict[Edge, tuple[Edge, Edge]]:
        table: dict[Edge, tuple[Edge, Edge]] = {}
        for i in range(1, rows + 1):
            for j in range(1, cols + 1):
                paths = [((i, w, cf), (w, j, cs))
                         for w in range(1, mids + 1)
                         for cf in range(1, first[i - 1][w - 1] + 1)
                         for cs in range(1, second[w - 1][j - 1] + 1)]
                if len(paths) != target[i - 1][j - 1]:
                    raise AssertionError(
                        f"({i},{j}): {len(paths)} two-edge paths for "
                        f"{target[i - 1][j - 1]} edges")
                for k, path in enumerate(paths, start=1):
                    table[(i, j, k)] = path
        return table

    alpha = pair_up(R, S, A, n, p, n)
    beta = pair_up(S, R, B, p, n, p)
    return ConjugacyPair(A, B, R, S, alpha, beta)


def _transport(split: dict[Edge, tuple[Edge, Edge]],
               join: dict[tuple[Edge, Edge], Edge],
               path: Sequence[Edge]) -> list[Edge]:
    """Split each edge into its two-edge path and rejoin adjacent halves.
    The keys of ``split`` are exactly the edges of the source matrix."""
    if len(path) < 2:
        raise DomainError("the image consumes two edges per output edge")
    _check_edge_path(split, path)
    halves = [split[e] for e in path]
    return [join[(first[1], nxt[0])] for first, nxt in zip(halves, halves[1:])]


def apply_phi(pair: ConjugacyPair, path: Sequence[Edge]) -> list[Edge]:
    """One step of the conjugacy: an A-path a_0...a_{L-1} maps to the
    B-path b_0...b_{L-2} where alpha(a_k) = r_k s_k and each b_k is the
    beta-preimage of s_k r_{k+1}."""
    return _transport(pair.alpha, pair.beta_inv, path)


def apply_psi(pair: ConjugacyPair, path: Sequence[Edge]) -> list[Edge]:
    """The partner map: a B-path b_0...b_{L-1} maps to the A-path whose
    k-th edge is the alpha-preimage of r_{k+1} s_{k+1}, where
    beta(b_k) = s_k r_{k+1}.  Composing the two maps either way around
    realizes one shift step."""
    return _transport(pair.beta, pair.alpha_inv, path)


def edge_paths(M: Matrix, length: int) -> list[tuple[Edge, ...]]:
    """All admissible edge words of the given length, lexicographically."""
    _require_ints(length=length)
    if length < 0:
        raise ValidationError("length must be nonnegative")
    if length == 0:
        return [()]
    edges = edge_set(M)
    by_source: dict[int, list[Edge]] = {}
    for e in edges:
        by_source.setdefault(e[0], []).append(e)
    return words_of_length(edges, lambda e: by_source.get(e[1], ()), length)


# ---------------------------------------------------------------------------
# Dimension group

class DimGroupElement(Value):
    __slots__ = ("matrix", "vector", "level")


POSITIVE = "positive"
NEGATIVE = "negative"
UNDECIDED = "undecided"


class PositivityVerdict(Value):
    __slots__ = ("status", "power")
    _defaults = {"power": None}


class DimensionGroup:
    """The inductive limit of Z^n under multiplication by A, with the
    automorphism induced by the shift.  Equality is exact: the rational
    kernels of A^k stabilize by k = n, so (v,m) = (w,m) iff A^n(v-w) = 0.
    Positivity is semi-decided by pushing up to a bounded level."""

    def __init__(self, A: Sequence[Sequence[int]]):
        A = as_matrix(A)
        if not is_square(A):
            raise ValidationError("the base matrix must be square")
        if not is_nonneg(A):
            raise ValidationError("the base matrix must be nonnegative")
        self.matrix = A
        self.dim = len(A)

    def element(self, vector: Sequence[int], level: int = 0) -> DimGroupElement:
        try:
            vector = tuple(vector)
        except TypeError:
            raise ValidationError(
                f"the vector must be a sequence of integers, got {short_repr(vector)}") from None
        for x in (*vector, level):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValidationError(
                    f"vector entries and levels must be integers, got {short_repr(x)}")
        if len(vector) != self.dim:
            raise ValidationError(f"vector length {len(vector)} != dimension {self.dim}")
        if level < 0:
            raise ValidationError("levels are nonnegative")
        return DimGroupElement(self.matrix, vector, level)

    def _mine(self, x: DimGroupElement) -> None:
        if x.matrix != self.matrix:
            raise ValidationError("element belongs to a different dimension group")

    def _lift(self, x: DimGroupElement, level: int) -> tuple[int, ...]:
        v = x.vector
        for _ in range(level - x.level):
            v = mat_vec(self.matrix, v)
        return v

    def equal(self, x: DimGroupElement, y: DimGroupElement) -> bool:
        self._mine(x), self._mine(y)
        m = max(x.level, y.level)
        d = tuple(a - b for a, b in zip(self._lift(x, m), self._lift(y, m)))
        return all(c == 0 for c in mat_vec(mat_pow(self.matrix, self.dim), d))

    def add(self, x: DimGroupElement, y: DimGroupElement) -> DimGroupElement:
        self._mine(x), self._mine(y)
        m = max(x.level, y.level)
        v = tuple(a + b for a, b in zip(self._lift(x, m), self._lift(y, m)))
        return DimGroupElement(self.matrix, v, m)

    def tau(self, x: DimGroupElement) -> DimGroupElement:
        """The shift automorphism: multiplication by A at the same level."""
        self._mine(x)
        return DimGroupElement(self.matrix, mat_vec(self.matrix, x.vector), x.level)

    def tau_inv(self, x: DimGroupElement) -> DimGroupElement:
        """Inverse of tau: the same vector one level higher."""
        self._mine(x)
        return DimGroupElement(self.matrix, x.vector, x.level + 1)

    def positive_bounded(self, x: DimGroupElement, k_max: int) -> PositivityVerdict:
        self._mine(x)
        _require_ints(k_max=k_max)
        if k_max < 0:
            raise ValidationError("the search bound must be nonnegative")
        v = x.vector
        for k in range(k_max + 1):
            if all(c >= 0 for c in v):
                return PositivityVerdict(POSITIVE, k)
            if all(c <= 0 for c in v):
                return PositivityVerdict(NEGATIVE, k)
            v = mat_vec(self.matrix, v)
        return PositivityVerdict(UNDECIDED)


def trace_powers(A: Matrix, k_max: int) -> list[int]:
    """[_, tr A, tr A^2, ..., tr A^k]: the periodic-point counts of the
    edge shift, by :func:`~ckshift.intmat.power_sums`."""
    if not is_square(A):
        raise ValidationError("trace powers need a square matrix")
    _require_ints(k_max=k_max)
    if k_max < 0:
        raise ValidationError("k_max must be nonnegative")
    return power_sums(A, k_max)
