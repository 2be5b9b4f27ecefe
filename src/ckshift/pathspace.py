"""The terminal-path model of a one-sided Markov shift.

A point is either an infinite admissible vertex sequence or a finite word
paired with a boundary set containing its last letter.  The space is the
projective limit of finite level spectra: at level n these are the full
words of length n+1 in lexicographic order, then the shorter words capped
by a boundary set by decreasing length, then the empty-word boundary
points, all from one walk.  This module computes the boundary family of
column cluster patterns, validates models, enumerates levels, applies the
shift and the level projections, and scans for periodic points and
essential-freeness violations.  Model validation asks ``graphs`` for the
zero rows and checks them against the family, whatever the presentation;
words and preperiod prefixes come a length at a time from
``graphs.walk_levels``, or ``graphs.words_of_length`` for one length.
"""

from __future__ import annotations

import collections
import itertools
from typing import Iterable, Optional, Sequence

from .errors import (DomainError, UnsupportedPresentationError, ValidationError, _require_ints,
                     short_repr)
from .graphs import (BandedTailGraph, BlockPatternGraph, GraphSpec, Loop,
                     _class_digraph, finite_form, primitive_closed_walks, valid_vertex,
                     vertex_count, walk_levels, words_of_length, zero_rows)
from .value import Value


# ---------------------------------------------------------------------------
# Boundary patterns

class BoundaryPattern(Value):
    """A subset of the vertex set: finitely many explicit vertices plus,
    for block-pattern graphs, whole infinite classes.  Construct through
    :func:`make_pattern` so equal subsets get equal representations."""

    __slots__ = ("finite", "classes", "_text")
    _fields = ("finite", "classes")

    def __init__(self, finite: frozenset[int], classes: frozenset[int]):
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "classes", classes)
        parts = [str(v) for v in sorted(finite)] + [f"c{c}" for c in sorted(classes)]
        object.__setattr__(self, "_text", "{" + ",".join(parts) + "}")

    @property
    def is_empty(self) -> bool:
        return not self.finite and not self.classes

    def contains(self, v: int, g: GraphSpec) -> bool:
        if v in self.finite:
            return True
        return bool(self.classes) and isinstance(g, BlockPatternGraph) \
            and g.class_of(v) in self.classes

    def sort_key(self):
        return (tuple(sorted(self.finite)), tuple(sorted(self.classes)))

    def render(self) -> str:
        return self._text


def make_pattern(g: GraphSpec, finite: Iterable[int] = (),
                 classes: Iterable[int] = ()) -> BoundaryPattern:
    """Canonical pattern: finite classes are expanded into explicit
    vertices, so structural equality is extensional equality."""
    fin = set()
    n = vertex_count(g)
    for v in finite:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValidationError(f"pattern vertices are positive integers, got {short_repr(v)}")
        if n is not None and v > n:
            raise ValidationError(f"pattern vertex {v} exceeds graph size {n}")
        fin.add(v)
    cls = set()
    for c in classes:
        if not isinstance(g, BlockPatternGraph):
            raise ValidationError("class patterns only apply to block-pattern graphs")
        if not isinstance(c, int) or isinstance(c, bool) or c < 1 or c > g.num_classes:
            raise ValidationError(f"unknown class id {short_repr(c)}")
        card, start = g.class_sizes[c - 1], g.starts[c - 1]
        if card is None:
            cls.add(c)
        else:
            fin.update(range(start, start + card))
    return BoundaryPattern(frozenset(fin), frozenset(cls))


def full_pattern(g: GraphSpec) -> BoundaryPattern:
    """The pattern denoting the whole vertex set, where representable."""
    n = vertex_count(g)
    if n is not None:
        return make_pattern(g, finite=range(1, n + 1))
    if isinstance(g, BlockPatternGraph):
        return make_pattern(g, classes=range(1, g.num_classes + 1))
    raise UnsupportedPresentationError(
        "the full vertex set of a banded tail is not a representable pattern")


def cluster_patterns(g: GraphSpec) -> frozenset[BoundaryPattern]:
    """The boundary family forced by the graph: the cluster points of the
    net of in-neighbor (column) sets.  A pattern J is a cluster point iff
    every finite window W has infinitely many columns agreeing with J on W.

    Finite graphs have none.  For a block pattern only the finitely many
    distinct column patterns occur, so the cluster points are exactly the
    in-neighbor patterns of the infinite classes.  For a banded tail every
    column is a finite set marching off to infinity and only finitely many
    columns meet any window, so the empty pattern is the only cluster point.
    """
    if isinstance(g, BandedTailGraph):
        return frozenset({make_pattern(g)})
    h, _, sizes = _class_digraph(g)
    if sizes[-1] is None:  # only the last class can be infinite
        return frozenset({make_pattern(g, classes=h.pred[-1])})
    return frozenset()


# ---------------------------------------------------------------------------
# Models

class MarkovModel(Value):
    """A graph together with a boundary family containing all its cluster
    patterns.  ``dense_domain`` records whether the family is exactly the
    cluster family; only then is the shift's domain dense in the space."""

    __slots__ = ("graph", "boundary", "dense_domain", "_sorted")
    _fields = ("graph", "boundary", "dense_domain")

    def __init__(self, graph: GraphSpec, boundary: frozenset[BoundaryPattern],
                 dense_domain: bool):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "dense_domain", dense_domain)
        object.__setattr__(self, "_sorted", tuple(
            sorted(boundary, key=BoundaryPattern.sort_key)))

    def boundary_sorted(self) -> tuple[BoundaryPattern, ...]:
        """The family in ``sort_key`` order, sorted once at construction."""
        return self._sorted

    def caps(self, v: int) -> list[BoundaryPattern]:
        """The family's patterns that contain ``v``, in ``boundary_sorted()`` order."""
        return [pat for pat in self._sorted if pat.contains(v, self.graph)]


def validate_model(g: GraphSpec, boundary: Iterable[BoundaryPattern]) -> MarkovModel:
    """Check that the family contains every cluster pattern and that each
    vertex either has an outgoing edge or lies in some member of the
    family (so every vertex heads a terminal path)."""
    fam = frozenset(boundary)
    forced = cluster_patterns(g)
    for pattern in sorted(forced, key=BoundaryPattern.sort_key):
        if pattern not in fam:
            raise ValidationError(
                f"boundary family misses the cluster pattern {pattern.render()}")

    def covered(v: int) -> bool:
        return any(p.contains(v, g) for p in fam)

    # Past the family's explicit vertices only a class pattern covers a
    # vertex, and it covers the whole run, so one probe there decides the
    # run's tail.  A bare probe leaves the run to explicit vertices alone,
    # so the scan from the run's start stops at the probe at the latest.
    top = max((v for p in fam for v in p.finite), default=0)
    for start, length in zero_rows(g):
        probe = max(start, top + 1)
        if (length is None or probe < start + length) and covered(probe):
            continue
        run = itertools.count(start) if length is None else range(start, start + length)
        bare = next((v for v in run if not covered(v)), None)
        if bare is not None:
            raise ValidationError(
                f"vertex {bare} has no outgoing edge and lies in no boundary set")
    return MarkovModel(g, fam, dense_domain=(fam == forced))


def dense_model(g: GraphSpec) -> MarkovModel:
    """The model with boundary family exactly the cluster patterns."""
    return validate_model(g, cluster_patterns(g))


# ---------------------------------------------------------------------------
# Spectrum points

class SpectrumPoint(Value):
    """A member of a level spectrum: a full admissible word (``boundary``
    is None; at level n the word has length n+1) or a truncated point, a
    word of length <= n capped by a boundary set containing its last
    letter.  The level is carried by the enclosing enumeration."""

    __slots__ = ("word", "boundary")
    _defaults = {"boundary": None}

    @property
    def is_full(self) -> bool:
        return self.boundary is None

    def sort_key(self):
        if self.boundary is None:
            return (0, self.word)
        return (1, -len(self.word), self.word, self.boundary.sort_key())

    def render(self) -> str:
        word = _WORD_FORMAT[len(self.word)] % self.word
        return word if self.boundary is None else f"{word};{self.boundary._text}"

    def pretty(self) -> str:
        text = self.render()
        return f"(∅{text})" if text.startswith(";") else f"({text})"


class _WordFormats(dict):
    """``"%d,...,%d"`` by word length; letters are ints, which ``%d`` writes as str does."""

    def __missing__(self, length: int) -> str:
        text = self[length] = ",".join(["%d"] * length)
        return text


_WORD_FORMAT = _WordFormats()


def full_point(word: Sequence[int]) -> SpectrumPoint:
    """The full point on ``word``, whose letters must be ints; whether it is
    a path is the model's question (``word_admissible``, ``make_clopen``)."""
    word = tuple(word)
    for v in word:
        if type(v) is not int:  # not bool, nor an int subclass with its own str
            raise ValidationError(f"letters are integers, got {short_repr(v)}")
    return SpectrumPoint(word)


def truncated_point(word: Sequence[int], pattern: BoundaryPattern) -> SpectrumPoint:
    return SpectrumPoint(full_point(word).word, pattern)


def point_valid_at(p: SpectrumPoint, level: int) -> bool:
    if p.is_full:
        return len(p.word) == level + 1
    return len(p.word) <= level


def word_admissible(g: GraphSpec, word: Sequence[int]) -> bool:
    if not all(valid_vertex(g, v) for v in word):
        return False
    return all(g.edge(a, b) for a, b in zip(word, word[1:]))


class SpectrumSlice(Value):
    __slots__ = ("points", "partial")


def spectrum_level(model: MarkovModel, n: int,
                   window: Optional[int] = None) -> SpectrumSlice:
    """The level-n spectrum in ``SpectrumPoint.sort_key`` order: full words
    of length n+1, then truncated words by decreasing length, then the
    empty-word boundary points, each length's points built in one pass.
    Nothing is sorted: each length's words are lexicographic as successors
    ascend, and caps follow ``boundary_sorted()``.  When no vertex has a
    cap, only length n+1 is built (``words_of_length``).  For infinite
    graphs a window must be supplied; the result is the window-restricted
    sub-spectrum, flagged partial."""
    _require_ints(level=n)
    if n < 0:
        raise ValidationError("level must be nonnegative")
    if window is not None:
        _require_ints(window=window)
    g = model.graph
    fin = finite_form(g)
    if fin is not None:
        starts: Sequence[int] = fin.vertices()
        succ = fin.succ
    elif window is None:
        raise UnsupportedPresentationError(
            "spectrum of an infinite graph needs a window bound")
    elif window < 0:
        raise ValidationError(f"window must be nonnegative, got {window}")
    else:  # a window row is tested edge by edge when a word first ends in it
        starts, succ = range(1, window + 1), None

    def extend(v: int) -> Sequence[int]:
        return succ[v - 1] if succ is not None else [j for j in starts if g.edge(v, j)]

    fam = model.boundary_sorted()
    caps = {v: model.caps(v) for v in starts} if fam else {}
    if any(caps.values()):
        *shorter, last = walk_levels(starts, extend, n + 1)
        points = [SpectrumPoint(w) for w in last]
        for level in reversed(shorter):
            points += [SpectrumPoint(w, pat) for w in level for pat in caps[w[-1]]]
    else:
        points = [SpectrumPoint(w) for w in words_of_length(starts, extend, n + 1)]
    points += [SpectrumPoint((), pat) for pat in fam]
    return SpectrumSlice(tuple(points), fin is None)


def project_point(p: SpectrumPoint, from_level: int) -> SpectrumPoint:
    """The projection from level ``from_level`` to ``from_level - 1``:
    full words drop their last letter, maximal-length truncated words drop
    their boundary cap, everything else is fixed."""
    if type(from_level) is not int or from_level < 1:  # hot: the helper only words the error
        _require_ints(from_level=from_level)
        raise ValidationError("projection needs a source level >= 1")
    if not point_valid_at(p, from_level):
        raise ValidationError(f"point {p.render()} is not a level-{from_level} point")
    if p.is_full:
        return SpectrumPoint(p.word[:-1])
    if len(p.word) == from_level:
        return SpectrumPoint(p.word)
    return p


def fiber(model: MarkovModel, p: SpectrumPoint, at_level: int) -> tuple[SpectrumPoint, ...]:
    """All level-(at_level+1) points projecting onto ``p``, in ``sort_key``
    order: successors ascend in every presentation, and caps follow
    ``boundary_sorted()``."""
    if type(at_level) is not int or not point_valid_at(p, at_level):  # as in project_point
        _require_ints(at_level=at_level)
        raise ValidationError(f"point {p.render()} is not a level-{at_level} point")
    if not p.is_full:
        return (p,)
    last = p.word[-1]
    try:
        succ = model.graph.successors(last)
    except UnsupportedPresentationError:
        raise UnsupportedPresentationError(
            f"vertex {last} has infinitely many successors; "
            "the fiber is not finitely enumerable")
    return tuple([SpectrumPoint(p.word + (j,)) for j in succ]
                 + [SpectrumPoint(p.word, pat) for pat in model.caps(last)])


def shift_point(p):
    """Remove the first letter; level bookkeeping drops by one.  Accepts a
    spectrum point or a plain word tuple.  Points of word length 0 lie
    outside the shift's domain, and a full length-1 word is a level-0
    cylinder whose image is no longer a cylinder."""
    if isinstance(p, tuple):
        if not p:
            raise DomainError("the empty word lies outside the shift's domain")
        return p[1:]
    if not p.word:
        raise DomainError(f"{p.pretty()} lies outside the shift's domain")
    if p.is_full:
        if len(p.word) == 1:
            raise DomainError(
                "a level-0 full path shifts onto a follower set, not a cylinder")
        return SpectrumPoint(p.word[1:])
    return SpectrumPoint(p.word[1:], p.boundary)


# ---------------------------------------------------------------------------
# Periodic points

class PeriodicPointRecord(Value):
    """The eventually periodic path ``prefix . loop . loop ...``; the
    preperiod and period are minimal, so the record is the point."""

    __slots__ = ("preperiod", "period", "prefix", "loop", "isolated")


class PeriodicScan(Value):
    """A scan's records, with strict counts by divisor compiled at construction:
    each preperiod-0 period is counted at its multiples up to P = max_period,
    O(records + P log P); without such records (no cycle) no table is kept."""

    __slots__ = ("records", "max_period", "max_preperiod", "_dividing")
    _fields = ("records", "max_period", "max_preperiod")

    def __init__(self, records: tuple, max_period: int, max_preperiod: int):
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "max_period", max_period)
        object.__setattr__(self, "max_preperiod", max_preperiod)
        periods = collections.Counter(r.period for r in records if r.preperiod == 0)
        dividing = [0] * (max_period + 1) if periods else []
        for p, count in periods.items():
            dividing[p::p] = [c + count for c in dividing[p::p]]
        object.__setattr__(self, "_dividing", dividing)

    def strict_count_dividing(self, k: int) -> int:
        """Number of strictly periodic points whose minimal period divides k."""
        if type(k) is not int or not 1 <= k <= self.max_period:
            raise ValidationError(
                f"k must be an integer in 1..{self.max_period}, got {short_repr(k)}")
        return self._dividing[k] if self._dividing else 0


def periodic_points(model: MarkovModel, max_period: int,
                    max_preperiod: int) -> PeriodicScan:
    """All eventually periodic paths with minimal period <= max_period and
    minimal preperiod <= max_preperiod.  Each point appears once: the loop
    is primitive and based where the periodic tail starts, and the prefix
    is shortest (its last letter differs from the loop's last letter).
    Loops come by length from ``primitive_closed_walks``, prefixes a length
    at a time from ``walk_levels``; the records are sorted once."""
    fin = finite_form(model.graph)
    if fin is None:
        raise UnsupportedPresentationError("periodic-point search needs a finite graph")
    _require_ints(max_period=max_period, max_preperiod=max_preperiod)
    if max_period < 1:
        raise ValidationError("max_period must be >= 1")
    if max_preperiod < 0:
        raise ValidationError("max_preperiod must be >= 0")

    records = []
    # A closed walk has no exit iff each of its vertices has one successor.
    forced = {v for v, out in enumerate(fin.succ, start=1) if len(out) == 1}
    pred = fin.pred

    # Distinct base points are distinct points of the shift, so rotations
    # of a closed walk are separate records.
    for base in primitive_closed_walks(fin, max_period):
        loop = Loop(base + (base[0],))
        isolated = forced.issuperset(base)
        records.append(PeriodicPointRecord(0, len(base), (), loop, isolated))
        # Preperiod words grow leftwards, a walk along the in-neighbours.
        # The prefix is minimal exactly when its last letter, the walk's
        # first, differs from the loop's last letter; shorter prefixes are
        # separate records of their own.  The CLI scans at preperiod 0,
        # where the walk is skipped, not set up for nothing.
        if max_preperiod:
            starts = [i for i in pred[base[0] - 1] if i != base[-1]]
            records += [PeriodicPointRecord(len(w), len(base), w[::-1], loop, isolated)
                        for level in walk_levels(starts, lambda v: pred[v - 1], max_preperiod)
                        for w in level]
    records.sort(key=lambda r: (r.preperiod, r.prefix, r.loop.vertices))
    return PeriodicScan(tuple(records), max_period, max_preperiod)


def strict_period_counts(g: GraphSpec, max_k: int) -> list[int]:
    """counts[k] = number of points with T^k x = x, for 1 <= k <= max_k
    (index 0 unused).  Each such point is a closed walk of length k read
    as an infinite path, so the counts come from walk vectors pushed
    through the successor lists."""
    fin = finite_form(g)
    if fin is None:
        raise UnsupportedPresentationError("periodic counts need a finite graph")
    _require_ints(max_k=max_k)
    if max_k < 0:
        raise ValidationError("max_k must be nonnegative")
    n, succ = fin.size, fin.succ
    counts = [0] * (max_k + 1)
    for start in range(1, n + 1):
        vec = [0] * (n + 1)
        vec[start] = 1
        for k in range(1, max_k + 1):
            new = [0] * (n + 1)
            for i in range(1, n + 1):
                c = vec[i]
                if c:
                    for j in succ[i - 1]:
                        new[j] += c
            vec = new
            counts[k] += vec[start]
    return counts


# ---------------------------------------------------------------------------
# Essential freeness (bounded shadow)

class FreenessScanResult(Value):
    __slots__ = ("violation_found", "witness")
    _defaults = {"witness": None}


def essential_freeness_scan(model: MarkovModel, m0: int, n0: int,
                            depth: int) -> FreenessScanResult:
    """Look for a cylinder on which the m0-fold and n0-fold shifts agree.

    A cylinder Z(w), |w| <= depth, is a witness when it has at least one
    admissible extension to length depth + (n0 - m0) and every such
    extension e satisfies e[m0+t] = e[n0+t] coordinatewise.  Returns the
    first witness in (length, lexicographic) order, or reports none.  This
    is a bounded, word-level shadow of essential freeness: truncated
    boundary points are not consulted, and the unbounded statement is
    settled by condition (L).

    Agreeing words come in closed form.  Let m0 < n0, d = n0 - m0, full =
    depth + d >= n0 + d.  A word e of length full agrees iff e[i] = e[i-d]
    for n0 <= i < full, iff (i - d >= m0; induct on i) e is u = e[:n0] then
    u[m0:] repeated.  It is admissible iff u is and u[-1] -> u[m0] is an
    edge: for i > n0, (e[i-1], e[i]) = (e[i-d-1], e[i-d]) is an edge of u if
    i - d < n0, else an earlier tail pair.  So words stop at length n0.
    """
    fin = finite_form(model.graph)
    if fin is None:
        raise UnsupportedPresentationError("the freeness scan needs a finite graph")
    _require_ints(m0=m0, n0=n0, depth=depth)
    if m0 == n0 or m0 < 0 or n0 < 0:
        raise ValidationError("the two shift powers must be distinct naturals")
    m0, n0 = min(m0, n0), max(m0, n0)
    if depth < n0:
        raise ValidationError(f"depth {depth} is smaller than the shift power {n0}")
    d = n0 - m0
    full = depth + d
    n, succ, rows = fin.size, fin.succ, fin.rows
    reps = -(-(full - n0) // d)
    agreeing = [u + (u[m0:] * reps)[:full - n0]
                for u in words_of_length(fin.vertices(), lambda v: succ[v - 1], n0)
                if rows[u[-1] - 1][u[m0] - 1]]

    # ext[r][v - 1] = number of admissible words of r further letters from v,
    # capped at cap: a group below holds at most len(agreeing) < cap words,
    # so the cap keeps every comparison.  A capped row is a function of the
    # row before it, so from the first repeated row on, the rows cycle.
    cap, seen, row = len(agreeing) + 1, {}, (1,) * n
    while len(seen) < full and row not in seen:
        seen[row] = len(seen)
        row = tuple([min(cap, sum([row[j - 1] for j in out])) for out in succ])
    ext, first = list(seen), seen.get(row, len(seen))
    # The words are lexicographic, so the agreeing words under one prefix
    # are consecutive and prefixes of one length come in order.
    for ln in range(1, depth + 1):
        r = full - ln
        counts = ext[r if r < first else first + (r - first) % (len(ext) - first)]
        for pre, group in itertools.groupby(agreeing, key=lambda w: w[:ln]):
            if sum(1 for _ in group) == counts[pre[-1] - 1]:
                return FreenessScanResult(True, pre)
    return FreenessScanResult(False, None)
