"""The Boolean algebra of clopen subsets of a terminal-path space,
realized as explicit member sets at spectrum levels.

A clopen set stored at level n means the union of the projective-limit
preimages of its members.  Raising the level replaces members by their
fibers and never changes the set; the canonical form is the minimal level
at which the set is expressible, with members kept as a frozenset, so set
equality is structural equality.  ``make_clopen`` is the one validating
constructor.  ``ClopenSet(...)`` trusts its members, and the operations
here lower members built from valid ones unchecked, so they do not raise
on a hand-built set of invalid points.  Nothing here looks inside a graph
presentation: the graph is read through its edges and successors, and
the CK4 support comes from ``graphs.ck4_support``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import UnsupportedPresentationError, ValidationError, _require_ints
from .graphs import ck4_support, is_infinite, valid_vertex
from .pathspace import (MarkovModel, SpectrumPoint, fiber, point_valid_at,
                        project_point, spectrum_level, word_admissible)
from .value import Value


class ClopenSet(Value):
    __slots__ = ("model", "level", "members")

    @property
    def is_empty(self) -> bool:
        return not self.members

    def sorted_members(self) -> list[SpectrumPoint]:
        return sorted(self.members, key=SpectrumPoint.sort_key)

    # -- lattice operations (canonical results) ----------------------------

    def _pair(self, other: "ClopenSet") -> tuple[frozenset, frozenset, int]:
        if self.model != other.model:
            raise ValidationError("clopen sets belong to different models")
        n = max(self.level, other.level)
        return (members_at_level(self, n), members_at_level(other, n), n)

    def meet(self, other: "ClopenSet") -> "ClopenSet":
        a, b, n = self._pair(other)
        return _canonical(self.model, n, a & b)

    def join(self, other: "ClopenSet") -> "ClopenSet":
        a, b, n = self._pair(other)
        return _canonical(self.model, n, a | b)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        a, b, n = self._pair(other)
        return _canonical(self.model, n, a - b)

    def leq(self, other: "ClopenSet") -> bool:
        a, b, _ = self._pair(other)
        return a <= b

    def complement(self) -> "ClopenSet":
        if is_infinite(self.model.graph):
            raise UnsupportedPresentationError(
                "the full space of an infinite graph is not a finite member list")
        rest = [p for p in spectrum_level(self.model, self.level).points
                if p not in self.members]
        return _canonical(self.model, self.level, rest)

    def serialize(self) -> dict:
        return {"level": self.level,
                "members": [p.render() for p in self.sorted_members()]}


def _validate_members(model: MarkovModel, level: int,
                      members: Iterable[SpectrumPoint]) -> frozenset[SpectrumPoint]:
    members = tuple(members)
    for p in members:
        if not point_valid_at(p, level):
            raise ValidationError(
                f"{p.render()} is not a level-{level} point")
        if not word_admissible(model.graph, p.word):
            raise ValidationError(f"{p.render()} is not an admissible word")
        if not p.is_full:
            if p.boundary not in model.boundary:
                raise ValidationError(
                    f"{p.render()} caps with a set outside the boundary family")
            if p.word and not p.boundary.contains(p.word[-1], model.graph):
                raise ValidationError(
                    f"{p.render()} does not end inside its boundary set")
    return frozenset(members)


def _lower_once(model: MarkovModel, level: int,
                members: frozenset[SpectrumPoint]) -> Optional[frozenset[SpectrumPoint]]:
    """Members at level-1 when the set is a union of whole fibers, else None."""
    if level == 0:
        return None
    images = {project_point(p, level) for p in members}
    for q in images:
        for p in fiber(model, q, level - 1):
            if p not in members:
                return None
    return frozenset(images)


def _canonical(model: MarkovModel, level: int,
               members: Iterable[SpectrumPoint]) -> ClopenSet:
    """The canonical set of valid level members: lowered to minimal level."""
    mem = frozenset(members)
    while (lowered := _lower_once(model, level, mem)) is not None:
        mem, level = lowered, level - 1
    return ClopenSet(model, level if mem else 0, mem)


def make_clopen(model: MarkovModel, level: int,
                members: Iterable[SpectrumPoint]) -> ClopenSet:
    """Canonical clopen set: validates members and lowers to minimal level."""
    _require_ints(level=level)
    return _canonical(model, level, _validate_members(model, level, members))


def members_at_level(cl: ClopenSet, n: int) -> frozenset[SpectrumPoint]:
    """The member set of ``cl`` re-expressed at level n >= level(cl)."""
    _require_ints(n=n)
    if n < cl.level:
        raise ValidationError(f"cannot lower a level-{cl.level} set to level {n}")
    mem = set(cl.members)
    for lvl in range(cl.level, n):
        nxt: set[SpectrumPoint] = set()
        for p in mem:
            nxt.update(fiber(cl.model, p, lvl))
        mem = nxt
    return frozenset(mem)


def raise_level(cl: ClopenSet, n: int) -> ClopenSet:
    """Same set, materialized at level n (not canonicalized downwards)."""
    return ClopenSet(cl.model, n, members_at_level(cl, n))


def empty_clopen(model: MarkovModel) -> ClopenSet:
    return ClopenSet(model, 0, frozenset())


def full_space(model: MarkovModel, level: int = 0) -> ClopenSet:
    """The whole space: the complement of the empty set at ``level``."""
    return ClopenSet(model, level, frozenset()).complement()


def cylinder(model: MarkovModel, word: Sequence[int]) -> ClopenSet:
    """Z(word): all terminal paths starting with the given letters.  At
    level len(word)-1 this is the single full-path member; the capped
    finite paths through the word live in its fibers."""
    word = tuple(word)
    if not word:
        return full_space(model)
    if not word_admissible(model.graph, word):
        return empty_clopen(model)
    return _canonical(model, len(word) - 1, [SpectrumPoint(word)])


def vertex_cylinder(model: MarkovModel, i: int) -> ClopenSet:
    """U_i: the cylinder of paths starting at ``i``."""
    u = cylinder(model, (i,))
    if u.is_empty:
        raise ValidationError(f"unknown or unusable vertex {i}")
    return u


def follower_set(model: MarkovModel, i: int) -> ClopenSet:
    """V_i: the shift image of U_i, the follower set {x : i.x admissible}."""
    if not valid_vertex(model.graph, i):
        raise ValidationError(f"unknown or unusable vertex {i}")
    members = [SpectrumPoint((j,)) for j in model.graph.successors(i)]  # may raise: infinite row
    return _canonical(model, 0, members + [SpectrumPoint((), pat) for pat in model.caps(i)])


def base_sets(model: MarkovModel, i: int) -> tuple[ClopenSet, ClopenSet]:
    """(U_i, V_i)."""
    return vertex_cylinder(model, i), follower_set(model, i)


# ---------------------------------------------------------------------------
# Word surgery on clopen sets (used by the monomial calculus)

def prepend_word(word: Sequence[int], cl: ClopenSet) -> ClopenSet:
    """{word . x : x in cl, word . x admissible}."""
    word = tuple(word)
    if not word:
        return cl
    model = cl.model
    g = model.graph
    if not word_admissible(g, word):
        return empty_clopen(model)
    out = []
    for p in cl.members:
        if p.word:
            if not g.edge(word[-1], p.word[0]):
                continue
        elif p.is_full:
            raise AssertionError("full points always carry a word")
        elif not p.boundary.contains(word[-1], g):
            continue
        out.append(SpectrumPoint(word + p.word, p.boundary))
    return _canonical(model, cl.level + len(word), out)


def strip_word(word: Sequence[int], cl: ClopenSet) -> ClopenSet:
    """{x : word . x in cl} — the transport inverse to prepend_word."""
    word = tuple(word)
    if not word:
        return cl
    base = max(cl.level, len(word))
    out = [SpectrumPoint(p.word[len(word):], p.boundary)
           for p in members_at_level(cl, base) if p.word[:len(word)] == word]
    return _canonical(cl.model, base - len(word), out)


# ---------------------------------------------------------------------------
# The finite-support product identity (CK4)

CK4_HOLDS = "holds"
CK4_FAILS = "fails"
CK4_NOT_FINITELY_SUPPORTED = "not_finitely_supported"


class Ck4Result(Value):
    __slots__ = ("status", "witness", "support")
    _defaults = {"witness": None, "support": None}

    @property
    def holds(self) -> bool:
        return self.status == CK4_HOLDS


def ck4_identity(model: MarkovModel, E: Iterable[int], F: Iterable[int]) -> Ck4Result:
    """Compare the Boolean combination  /\\_E V_j  /\\_F V_k^c  with the
    union of the U_i over the support {i : A(E,F,i) = 1}.  When the support
    is infinite the identity's premise fails and nothing is imposed.

    The letter parts always agree (a point with first letter i lies in the
    combination iff i is in the support), so failures are exactly the
    empty-word boundary points (∅;J) with E inside J and F disjoint from J.
    Every presentation is decided by that letter analysis, and the witness
    is (∅;J) for the first such J in ``sort_key`` order, the least point
    where the two sets differ.  The tests compare it with the explicit
    clopen computation.
    """
    E, F = tuple(E), tuple(F)  # not sets: True would merge into vertex 1 unchecked
    support = ck4_support(model.graph, E, F)
    if support is None:
        return Ck4Result(CK4_NOT_FINITELY_SUPPORTED)
    g = model.graph
    for pat in model.boundary_sorted():
        if all(pat.contains(j, g) for j in E) and \
                not any(pat.contains(k, g) for k in F):
            return Ck4Result(CK4_FAILS, witness=SpectrumPoint((), pat), support=support)
    return Ck4Result(CK4_HOLDS, support=support)
