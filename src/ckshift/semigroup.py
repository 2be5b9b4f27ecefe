"""The inverse semigroup of shift monomials and its evaluation as partial
injections on level spectra.

A monomial (alpha, h, beta) is the partial bijection  beta.x -> alpha.x
for x in the clopen set h, with h inside the follower sets of both words'
last letters: ``normalize`` meets h with both where it starts, and every
other constructor keeps it.  Products resolve by prefix comparison of the
inner words, conflicting prefixes give the zero element, and every element
normalizes to a unique form with minimal word lengths and canonical h.
The integer |alpha| - |beta| grades the semigroup.  Evaluation at a
sufficiently deep level records the exact induced injection between
spectrum members and is the independent oracle for normal-form equality.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Optional, Sequence

from .clopen import (CK4_FAILS, CK4_NOT_FINITELY_SUPPORTED, ClopenSet,
                     ck4_identity, empty_clopen, follower_set, full_space,
                     members_at_level, prepend_word, strip_word)
from .errors import (DomainError, UnsupportedPresentationError, ValidationError, _require_ints,
                     short_repr)
from .graphs import valid_vertex, vertex_count
from .pathspace import (MarkovModel, SpectrumPoint, spectrum_level, truncated_point,
                        word_admissible)
from .value import Value


class Monomial(Value):
    """S(alpha, h, beta): acts by  beta.x -> alpha.x  on x in h."""

    __slots__ = ("model", "alpha", "h", "beta")

    @property
    def is_zero(self) -> bool:
        return self.h.is_empty


def zero(model: MarkovModel) -> Monomial:
    return Monomial(model, (), empty_clopen(model), ())


def identity(model: MarkovModel) -> Monomial:
    return Monomial(model, (), full_space(model), ())


def make_monomial(model: MarkovModel, alpha: Sequence[int], h: ClopenSet,
                  beta: Sequence[int]) -> Monomial:
    """Validate and normalize a raw triple."""
    alpha, beta = tuple(alpha), tuple(beta)
    for word in (alpha, beta):
        if not word_admissible(model.graph, word):
            raise ValidationError(f"word {word} is not admissible")
    if h.model != model:
        raise ValidationError("the support set belongs to a different model")
    return normalize(Monomial(model, alpha, h, beta))


def generator(model: MarkovModel, i: int) -> Monomial:
    """S_i: maps x to i.x on the follower set of i."""
    if not valid_vertex(model.graph, i):
        raise ValidationError(f"unknown vertex {i}")
    return Monomial(model, (i,), follower_set(model, i), ())


def adjoint(a: Monomial) -> Monomial:
    return Monomial(a.model, a.beta, a.h, a.alpha)


def normalize(a: Monomial) -> Monomial:
    """The unique minimal form: meet h with the last letters' follower
    sets, strip shared last letters (transporting h by prepending the
    stripped letter, which the new last letters have an edge to) and
    canonicalize h; an empty support collapses to zero.  Idempotent."""
    alpha, beta, h = a.alpha, a.beta, a.h
    for word in (alpha, beta):
        if word:
            h = h.meet(follower_set(a.model, word[-1]))
    while alpha and beta and alpha[-1] == beta[-1] and not h.is_empty:
        letter = alpha[-1]
        alpha, beta = alpha[:-1], beta[:-1]
        h = prepend_word((letter,), h)
    if h.is_empty:
        return zero(a.model)
    return Monomial(a.model, alpha, h, beta)


def compose(a: Monomial, b: Monomial, normalized: bool = True) -> Monomial:
    """The product ab (b acts first).  The inner words a.beta and b.alpha
    must be prefix-comparable; otherwise the product is zero.  Its h
    already lies in the follower sets: if b.alpha = a.beta + u, a point x
    of ``strip_word(u, a.h)`` has u.x valid, so x is in V(u[-1]) (x is in
    a.h if u is empty), and h is in b.h; the other case is symmetric."""
    if a.model != b.model:
        raise ValidationError("monomials belong to different models")
    if a.is_zero or b.is_zero:
        return zero(a.model)
    x, y = a.beta, b.alpha
    if y[:len(x)] == x:
        u = y[len(x):]
        alpha = a.alpha + u
        beta = b.beta
        h = b.h.meet(strip_word(u, a.h))
    elif x[:len(y)] == y:
        v = x[len(y):]
        alpha = a.alpha
        beta = b.beta + v
        h = a.h.meet(strip_word(v, b.h))
    else:
        return zero(a.model)
    if h.is_empty:
        return zero(a.model)
    out = Monomial(a.model, alpha, h, beta)
    return normalize(out) if normalized else out


def product(model: MarkovModel, factors: Iterable[Monomial]) -> Monomial:
    out = identity(model)
    for f in factors:
        out = compose(out, f)
    return out


def cocycle(a: Monomial) -> int:
    """|alpha| - |beta| of the normal form; additive under composition."""
    if a.is_zero:
        raise DomainError("the zero element has no cocycle value")
    n = normalize(a)
    return len(n.alpha) - len(n.beta)


def projection_p(model: MarkovModel, i: int) -> Monomial:
    """P_i = S_i S_i^*: the idempotent supported on the cylinder at i."""
    s = generator(model, i)
    return compose(s, adjoint(s))


def projection_q(model: MarkovModel, i: int) -> Monomial:
    """Q_i = S_i^* S_i: the idempotent supported on the follower set of i."""
    s = generator(model, i)
    return compose(adjoint(s), s)


# ---------------------------------------------------------------------------
# Evaluation

class PartialInjection(Value):
    """An injective partial map from level-``src_level`` points to
    level-``dst_level`` points, recorded exactly (no truncation)."""

    __slots__ = ("src_level", "dst_level", "pairs")

    def __init__(self, src_level: int, dst_level: int,
                 pairs: frozenset[tuple[SpectrumPoint, SpectrumPoint]]):
        srcs = {s for s, _ in pairs}
        dsts = {d for _, d in pairs}
        if len(srcs) != len(pairs) or len(dsts) != len(pairs):
            raise ValidationError("mapping is not a partial injection")
        object.__setattr__(self, "src_level", src_level)
        # the empty map carries no target level of its own
        object.__setattr__(self, "dst_level", dst_level if pairs else src_level)
        object.__setattr__(self, "pairs", pairs)

    def as_dict(self) -> dict[SpectrumPoint, SpectrumPoint]:
        return dict(self.pairs)

    def compose(self, other: "PartialInjection") -> "PartialInjection":
        """self after other; other's images must live at self's source level."""
        if other.dst_level != self.src_level:
            raise ValidationError(
                f"level mismatch: inner map lands at {other.dst_level}, "
                f"outer map reads level {self.src_level}")
        mine = self.as_dict()
        pairs = frozenset((x, mine[y]) for x, y in other.pairs if y in mine)
        return PartialInjection(other.src_level, self.dst_level, pairs)

    def inverse(self) -> "PartialInjection":
        return PartialInjection(self.dst_level, self.src_level,
                                frozenset((d, s) for s, d in self.pairs))


def min_evaluation_level(a: Monomial) -> int:
    return max(len(a.alpha), len(a.beta)) + a.h.level


def evaluate(a: Monomial, level: int) -> PartialInjection:
    """The exact injection induced on level members:  beta.w -> alpha.w.
    Needs level >= max(|alpha|, |beta|) + level(h) so membership of the
    transported tails is decided."""
    _require_ints(level=level)
    if a.is_zero:
        return PartialInjection(level, level, frozenset())
    need = min_evaluation_level(a)
    if level < need:
        raise ValidationError(f"evaluation level {level} below required {need}")
    dom = members_at_level(prepend_word(a.beta, a.h), level)
    c = len(a.alpha) - len(a.beta)
    pairs = []
    for q in dom:
        tail = SpectrumPoint(q.word[len(a.beta):], q.boundary)
        img = SpectrumPoint(a.alpha + tail.word, tail.boundary)
        pairs.append((q, img))
    return PartialInjection(level, level + c, frozenset(pairs))


def decision_level(*monomials: Monomial) -> int:
    """The smallest level at which evaluation separates the given normal
    forms: one past the longest word, raised if a support set needs more."""
    levels = [1]
    for a in monomials:
        levels.append(max(len(a.alpha), len(a.beta)) + 1)
        if not a.is_zero:
            levels.append(min_evaluation_level(a))
    return max(levels)


def semantically_equal(a: Monomial, b: Monomial) -> bool:
    if a.model != b.model:
        raise ValidationError("monomials belong to different models")
    lvl = decision_level(a, b)
    return evaluate(a, lvl) == evaluate(b, lvl)


# ---------------------------------------------------------------------------
# Monomial word expressions ("S(1,2)* . S(2)")

_TERM = re.compile(r"S\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)\s*(\*?)", re.ASCII)


def parse_monomial(model: MarkovModel, text: str) -> Monomial:
    """Parse a generator-word expression: terms ``S(i1,...,ik)`` with an
    optional adjoint star, joined by ``.``; ``1`` denotes the identity."""
    out = identity(model)
    for chunk in text.split("."):
        chunk = chunk.strip()
        if not chunk:
            raise ValidationError("empty factor in monomial expression")
        if chunk == "1":
            continue
        m = _TERM.fullmatch(chunk)
        if not m:
            raise ValidationError(f"cannot parse monomial factor {short_repr(chunk)}")
        word = tuple(int(v) for v in m.group(1).split(","))
        factor = product(model, (generator(model, i) for i in word))
        if m.group(2):
            factor = adjoint(factor)
        out = compose(out, factor)
    return out


# ---------------------------------------------------------------------------
# Cuntz-Krieger relations

class RelationCheck(Value):
    __slots__ = ("name", "passed", "witness")
    _defaults = {"witness": None}


class Ck4Failure(Value):
    __slots__ = ("E", "F", "witness")


class CkReport(Value):
    __slots__ = ("ck1", "ck2", "ck3", "ck4_failed", "ck4_first_failure", "ck4_checked",
                 "ck4_not_finitely_supported")

    @property
    def ck4_passed(self) -> bool:
        return not self.ck4_failed

    @property
    def all_passed(self) -> bool:
        return (self.ck1.passed and self.ck2.passed and self.ck3.passed
                and self.ck4_passed)


def verify_ck_relations(model: MarkovModel,
                        vertices: Optional[Sequence[int]] = None,
                        ck4_pairs: Optional[Sequence[tuple[Sequence[int], Sequence[int]]]] = None,
                        ) -> CkReport:
    """Decide, with P_i = S_iS_i^* and Q_i = S_i^*S_i the identities on U_i
    (the cylinder at i) and V_i (the follower set of i): the Q_i commute
    (CK1), the P_i are orthogonal (CK2), P_jQ_i = A(i,j)P_j (CK3), and the
    finite-support product identity (CK4).  Infinite models need a vertex
    window and E,F sample; finite models default to all vertices and pairs.

    CK1-3 are closed form.  The V_i are sets, so they commute.  U_i and U_j
    are disjoint when i != j, and every U_i is non-empty (``validate_model``
    gives each vertex a terminal path), so CK2 fails exactly at (v, v) for
    the first vertex v of the window that occurs in it again.  A point of
    U_j starts with j, so U_j meets V_i in U_j when A(i,j) = 1 and not at
    all otherwise.  Explicit pairs go to
    :func:`~ckshift.clopen.ck4_identity`: (E, F) fails exactly when some J
    in the family has E inside J and F disjoint from J, with witness (∅;J)
    for the first such J.  So on all 4^m pairs of subsets of the m window
    positions every support is finite, the first pair (∅, ∅) fails iff the
    family is non-empty, and the failures are counted by
    inclusion-exclusion over the family's masks of window positions."""
    g = model.graph
    n = vertex_count(g)
    if vertices is None:
        if n is None:
            raise UnsupportedPresentationError(
                "infinite model: supply the vertex window to check")
        vertices = range(1, n + 1)
    vertices = list(vertices)
    for i in vertices:
        if not valid_vertex(g, i):
            raise ValidationError(f"unknown vertex {i}")
    counts = Counter(vertices)
    bad2 = next(((v, v) for v in vertices if counts[v] > 1), None)
    ck1, ck2, ck3 = (RelationCheck("CK1", True), RelationCheck("CK2", bad2 is None, bad2),
                     RelationCheck("CK3", True))

    if ck4_pairs is not None:
        results = [(E, F, ck4_identity(model, E, F)) for E, F in ck4_pairs]
        fails = [Ck4Failure(tuple(sorted(E)), tuple(sorted(F)), res.witness)
                 for E, F, res in results if res.status == CK4_FAILS]
        skipped = sum(res.status == CK4_NOT_FINITELY_SUPPORTED for *_, res in results)
        return CkReport(ck1, ck2, ck3, len(fails), next(iter(fails), None), len(results), skipped)
    if n is None:
        raise UnsupportedPresentationError(
            "infinite model: supply the E,F subsets for the product identity")
    family = model.boundary_sorted()
    # sum over subfamilies S of (-1)^(|S|+1) 2^|meet S| 2^(m - |join S|) on
    # position masks, merging the S with equal (meet S, join S)
    terms: dict[tuple[int, int], int] = {}
    for pat in family:
        j = sum(1 << p for p, v in enumerate(vertices) if pat.contains(v, g))
        nxt = dict(terms)
        nxt[j, j] = nxt.get((j, j), 0) + 1
        for (meet, join), c in terms.items():
            nxt[meet & j, join | j] = nxt.get((meet & j, join | j), 0) - c
        terms = nxt
    m = len(vertices)
    failed = sum(c << (meet.bit_count() + m - join.bit_count())
                 for (meet, join), c in terms.items())
    first = Ck4Failure((), (), truncated_point((), family[0])) if family else None
    return CkReport(ck1, ck2, ck3, failed, first, 4 ** m, 0)


# ---------------------------------------------------------------------------
# The tail-equivalence partition (kernel of the grading, level by level)

def tail_partition(model: MarkovModel, max_shifts: int,
                   level: int) -> list[list[SpectrumPoint]]:
    """Partition the level spectrum by "some k <= max_shifts of shifts
    identifies the points".  Full words of the level share a class iff
    their tails after max_shifts letters agree; truncated points also need
    equal length and boundary set.  Classes are nested as max_shifts grows.
    Points and classes come in spectrum order, which is ``sort_key`` order.
    """
    _require_ints(max_shifts=max_shifts, level=level)
    if level < max_shifts:
        raise ValidationError("the level must be at least the shift bound")
    if max_shifts < 0:
        raise ValidationError("the shift bound must be nonnegative")
    buckets: dict[object, list[SpectrumPoint]] = {}
    for pt in spectrum_level(model, level).points:
        if pt.is_full:
            key: object = ("full", pt.word[max_shifts:])
        else:
            k = min(max_shifts, len(pt.word))
            key = ("trunc", len(pt.word), pt.boundary, pt.word[k:])
        buckets.setdefault(key, []).append(pt)
    return list(buckets.values())
