"""Directed-graph presentations of 0/1 transition matrices and the loop
predicates that classify the associated shift algebras.

Three presentations are supported.  ``FiniteGraph`` is an explicit n x n
matrix.  ``BlockPatternGraph`` groups vertices into classes whose mutual
adjacency is a constant block; the last class may be infinite.
``BandedTailGraph`` is a finite prefix followed by an infinite tail in
which ``i -> j`` iff ``j - i`` lies in a fixed set of positive offsets,
with finitely many coupling edges from the prefix into the tail.

Vertices are 1-based integers.  ``A(i, j) = 1`` permits the transition
``i -> j``; a path is a vertex word whose consecutive pairs are edges.
Every structural question the other layers ask about a graph is answered
here: the predicates, the zero rows (``zero_rows``) and the CK4 support
(``ck4_support``).  Finite graphs and block patterns share one code path:
each presentation is decided on its class digraph (``_class_digraph``),
where a finite graph is its own class digraph of singleton classes and a
block pattern's class digraph is ``block``, compiled once at
construction.  The loop predicates read one bit-row closure,
``_closure``, of the class digraph or, for a banded tail, whose tail edges
climb and never re-enter the prefix, of a finite window of its successor
rows.  Words come one length at a time from per-letter successor tails
(``walk_levels``), or for one length by squaring them (``words_of_length``).
"""

from __future__ import annotations

import bisect
import itertools
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import UnsupportedPresentationError, ValidationError, short_repr
from .value import Value


def _check_01_rows(rows, what: str) -> tuple[tuple[int, ...], ...]:
    out = []
    for r, row in enumerate(rows):
        clean = []
        for c, entry in enumerate(row):
            if not isinstance(entry, int) or isinstance(entry, bool) or entry not in (0, 1):
                raise ValidationError(
                    f"{what}[{r+1}][{c+1}] must be 0 or 1, got {short_repr(entry)}")
            clean.append(entry)
        out.append(tuple(clean))
    return tuple(out)


class FiniteGraph(Value):
    """Explicit 0/1 adjacency matrix on vertices 1..n.

    ``succ[i - 1]`` and ``pred[i - 1]`` hold the successors and the
    in-neighbours of vertex ``i`` in increasing order, compiled once at
    construction; the public methods check the vertex, hot loops index
    the tuples directly.
    """

    __slots__ = ("rows", "succ", "pred")
    _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = _check_01_rows(rows, "rows")
        n = len(rows)
        if n == 0:
            raise ValidationError("rows must describe at least one vertex")
        for r, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(
                    f"rows must be square: row {r+1} has length {len(row)}, expected {n}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "succ", tuple(
            tuple(j + 1 for j, bit in enumerate(row) if bit) for row in rows))
        object.__setattr__(self, "pred", tuple(
            tuple(i + 1 for i, bit in enumerate(col) if bit) for col in zip(*rows)))

    @property
    def size(self) -> int:
        return len(self.rows)

    def vertices(self) -> range:
        return range(1, self.size + 1)

    def _check(self, v: int) -> None:
        if not 1 <= v <= self.size:
            raise ValidationError(f"vertex {v} outside 1..{self.size}")

    def edge(self, i: int, j: int) -> bool:
        self._check(i), self._check(j)
        return self.rows[i - 1][j - 1] == 1

    def successors(self, i: int) -> tuple[int, ...]:
        self._check(i)
        return self.succ[i - 1]

    def out_degree(self, i: int) -> int:
        self._check(i)
        return len(self.succ[i - 1])


class BlockPatternGraph(Value):
    """Vertices partitioned into contiguous classes; adjacency depends only
    on the (source class, target class) pair via ``block``.

    ``class_sizes`` holds one positive integer per class, or ``None`` for an
    infinite class.  Since classes occupy contiguous 1-based ranges, only the
    last class may be infinite.  Construction compiles ``starts``, the first
    vertex of each class, and ``class_graph``, the class digraph ``block``
    as a ``FiniteGraph``; the vertex maps read both and never rescan the
    classes.
    """

    __slots__ = ("class_sizes", "block", "starts", "class_graph", "_finite")
    _fields = ("class_sizes", "block")

    def __init__(self, class_sizes: tuple[Optional[int], ...],
                 block: tuple[tuple[int, ...], ...]):
        sizes = tuple(class_sizes)
        if not sizes:
            raise ValidationError("block pattern needs at least one class")
        for k, card in enumerate(sizes):
            if card is None:
                if k != len(sizes) - 1:
                    raise ValidationError(
                        f"class {k+1} is infinite but not last; "
                        "contiguous vertex ranges allow only a final infinite class")
            elif not isinstance(card, int) or isinstance(card, bool) or card < 1:
                raise ValidationError(
                    f"class {k+1} cardinality must be a positive integer or infinite, "
                    f"got {short_repr(card)}")
        block = _check_01_rows(block, "block")
        if len(block) != len(sizes) or any(len(row) != len(sizes) for row in block):
            raise ValidationError(
                f"block must be {len(sizes)}x{len(sizes)} to match the class list")
        object.__setattr__(self, "class_sizes", sizes)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "starts", tuple(itertools.accumulate(sizes[:-1], initial=1)))
        object.__setattr__(self, "class_graph", FiniteGraph(block))
        object.__setattr__(self, "_finite", None)

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    def class_of(self, v: int) -> int:
        if v < 1:
            raise ValidationError(f"vertex ids are positive, got {v}")
        n = self.total_size()
        if n is not None and v > n:
            raise ValidationError(f"vertex {v} exceeds the finite vertex range")
        return bisect.bisect_right(self.starts, v)

    def total_size(self) -> Optional[int]:
        """Number of vertices, or None when some class is infinite."""
        last = self.class_sizes[-1]
        return None if last is None else self.starts[-1] + last - 1

    def edge(self, i: int, j: int) -> bool:
        return self.block[self.class_of(i) - 1][self.class_of(j) - 1] == 1

    def out_degree(self, i: int) -> Optional[int]:
        """Out-degree of a vertex, or None when infinite."""
        cards = [self.class_sizes[c - 1] for c in self.class_graph.succ[self.class_of(i) - 1]]
        return None if None in cards else sum(cards)

    def successors(self, i: int) -> tuple[int, ...]:
        out: list[int] = []
        for c in self.class_graph.succ[self.class_of(i) - 1]:
            card = self.class_sizes[c - 1]
            if card is None:
                raise UnsupportedPresentationError(
                    f"vertex {i} has infinitely many successors; restrict to a window")
            out.extend(range(self.starts[c - 1], self.starts[c - 1] + card))
        return tuple(out)

    def materialize(self) -> FiniteGraph:
        """The explicit matrix, built on the first call and kept: only word
        enumeration needs it, the predicates work on the classes."""
        if self._finite is None:
            if self.total_size() is None:
                raise UnsupportedPresentationError(
                    "cannot materialize an infinite block pattern")
            rows = []
            for card, pattern in zip(self.class_sizes, self.block):
                row = tuple(bit for bit, width in zip(pattern, self.class_sizes)
                            for _ in range(width))
                rows.extend([row] * card)
            object.__setattr__(self, "_finite", FiniteGraph(tuple(rows)))
        return self._finite


class BandedTailGraph(Value):
    """Finite ``cutoff`` x ``cutoff`` prefix, then an infinite tail where
    ``i -> j`` iff ``j - i`` is one of the ``offsets``, kept distinct and
    increasing whatever the input order.  ``cross[i][k]`` switches on the
    edge from prefix vertex ``i`` to ``i + offsets[k]`` in that kept order
    whenever that target lands in the tail.  ``succ[i - 1]``, compiled at
    construction, lists prefix vertex ``i``'s successors in increasing order.
    """

    __slots__ = ("prefix", "cutoff", "offsets", "cross", "succ")
    _fields = ("prefix", "cutoff", "offsets", "cross")

    def __init__(self, prefix: tuple[tuple[int, ...], ...], cutoff: int,
                 offsets: tuple[int, ...], cross: tuple[tuple[int, ...], ...]):
        if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
            raise ValidationError(
                f"cutoff must be a nonnegative integer, got {short_repr(cutoff)}")
        prefix = _check_01_rows(prefix, "prefix")
        if len(prefix) != cutoff or any(len(r) != cutoff for r in prefix):
            raise ValidationError(
                f"prefix must be {cutoff}x{cutoff} (cutoff={cutoff})")
        for o in offsets:
            if not isinstance(o, int) or isinstance(o, bool) or o < 1:
                raise ValidationError(f"offsets must be positive integers, got {short_repr(o)}")
        offs = tuple(sorted(set(offsets)))
        cross = _check_01_rows(cross, "cross")
        if len(cross) != cutoff or any(len(r) != len(offs) for r in cross):
            raise ValidationError(
                f"cross must be {cutoff}x{len(offs)} "
                "(one column per distinct offset, in increasing order)")
        for i, row in enumerate(cross, start=1):
            for k, bit in enumerate(row):
                if bit and i + offs[k] <= cutoff:
                    raise ValidationError(
                        f"cross[{i}][{k+1}] couples {i} -> {i + offs[k]} inside the "
                        "prefix; prefix edges belong in the prefix matrix")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "cross", cross)
        object.__setattr__(self, "succ", tuple(
            tuple(j for j, bit in enumerate(row, start=1) if bit)
            + tuple(i + o for o, bit in zip(offs, out) if bit)
            for i, (row, out) in enumerate(zip(prefix, cross), start=1)))

    def edge(self, i: int, j: int) -> bool:
        if i < 1 or j < 1:
            raise ValidationError("vertex ids are positive")
        if i <= self.cutoff:
            return self.prefix[i - 1][j - 1] == 1 if j <= self.cutoff else j in self.succ[i - 1]
        return j > self.cutoff and (j - i) in self.offsets

    def successors(self, i: int) -> tuple[int, ...]:
        if i < 1:
            raise ValidationError("vertex ids are positive")
        if i <= self.cutoff:
            return self.succ[i - 1]
        return tuple(i + o for o in self.offsets)

    def out_degree(self, i: int) -> int:
        return len(self.successors(i))

    def truncate(self, window: int) -> FiniteGraph:
        """Restriction to vertices 1..window as an explicit matrix."""
        if type(window) is not int or window < max(self.cutoff, 1):
            raise ValidationError(
                f"window must be an integer covering the prefix, got {short_repr(window)}")
        outs = [set(self.succ[i - 1]) if i <= self.cutoff else {i + o for o in self.offsets}
                for i in range(1, window + 1)]
        return FiniteGraph(tuple(tuple(int(j in out) for j in range(1, window + 1))
                                 for out in outs))


GraphSpec = Union[FiniteGraph, BlockPatternGraph, BandedTailGraph]


def vertex_count(g: GraphSpec) -> Optional[int]:
    """Number of vertices, or None for an infinite presentation."""
    if isinstance(g, FiniteGraph):
        return g.size
    if isinstance(g, BlockPatternGraph):
        return g.total_size()
    return None


def finite_form(g: GraphSpec) -> Optional[FiniteGraph]:
    """The graph as an explicit finite matrix, when it has one."""
    if isinstance(g, FiniteGraph):
        return g
    if isinstance(g, BlockPatternGraph) and g.total_size() is not None:
        return g.materialize()
    return None


def is_infinite(g: GraphSpec) -> bool:
    return vertex_count(g) is None


def valid_vertex(g: GraphSpec, v) -> bool:
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        return False
    n = vertex_count(g)
    return n is None or v <= n


# ---------------------------------------------------------------------------
# Loops

class Loop(Value):
    """A closed path (i_0, ..., i_n) with i_n = i_0 and n >= 1."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]):
        w = tuple(vertices)
        if len(w) < 2 or w[0] != w[-1]:
            raise ValidationError("a loop is a closed word (i_0,...,i_n=i_0) with n >= 1")
        object.__setattr__(self, "vertices", w)

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def base_word(self) -> tuple[int, ...]:
        return self.vertices[:-1]


class LoopRecord(Value):
    __slots__ = ("loop", "has_outgoing_edge")


def loop_has_outgoing_edge(g: GraphSpec, loop: Loop) -> bool:
    """An outgoing edge is an edge (i_k, j) with j != i_{k+1} (cyclically)."""
    word = loop.vertices
    return any(g.out_degree(a) != 1 or g.successors(a) != (b,)
               for a, b in zip(word, word[1:]))


def _canonical_rotation(word: tuple[int, ...]) -> tuple[int, ...]:
    return min(word[k:] + word[:k] for k in range(len(word)))


class _Tails(dict):
    """Tails by letter: ``step(letter)``, computed when a word first ends in it."""

    def __init__(self, step: Callable):
        self.step = step

    def __missing__(self, v):
        return self.setdefault(v, self.step(v))


def walk_levels(starts: Iterable, extend: Callable, max_len: int) -> Iterator[list[tuple]]:
    """The words of lengths 1..max_len, one lexicographic list per length:
    each begins with a letter of ``starts`` and goes on with the letters of
    ``extend(last letter)``, which are cached per letter."""
    tails = _Tails(lambda v: tuple([(j,) for j in extend(v)]))
    for k in range(max_len):
        level = [w + t for w in level for t in tails[w[-1]]] if k else [(v,) for v in starts]
        yield level


def words_of_length(starts: Iterable, extend: Callable, length: int) -> list[tuple]:
    """``walk_levels``' list for one length, by repeated squaring: the tails of
    2k letters are those of k letters, each followed by the k-letter tails of
    its last letter, so a chain of L letters costs O(L) tuple copies."""
    tails = _Tails(lambda v: tuple([(j,) for j in extend(v)]))
    words = [(v,) for v in starts] if length > 0 else []
    more = length - 1
    while more > 0:
        if more & 1:
            words = [w + t for w in words for t in tails[w[-1]]]
        more >>= 1
        if more:
            tails = _Tails(lambda v, half=tails: tuple([t + u for t in half[v]
                                                        for u in half[t[-1]]]))
    return words


def primitive_closed_walks(g: FiniteGraph, max_len: int) -> Iterator[tuple[int, ...]]:
    """Every primitive closed walk of length 1..max_len as its base word
    (i_0, ..., i_{n-1}), with i_{n-1} -> i_0, by length and then
    lexicographically.  Rotations are distinct walks and are all listed.

    A closed walk of length p is u^(p/d) for one primitive closed walk u of
    length d | p: ``powers[p]``, the count of those at proper divisors d, is
    the number of proper powers, so a length holding both kinds is filtered."""
    succ, rows = g.succ, g.rows
    found, powers = {}, [0] * (max_len + 1)
    for p, level in enumerate(walk_levels(g.vertices(), lambda v: succ[v - 1], max_len), 1):
        closed = [w for w in level if rows[w[-1] - 1][w[0] - 1]]
        if powers[p] == len(closed):  # no closed walk, or proper powers only
            continue
        if powers[p]:
            proper = {u * (p // d) for d, us in found.items() if p % d == 0 for u in us}
            closed = [w for w in closed if w not in proper]
        if 2 * p <= max_len:  # kept only while a multiple of p is to come
            found[p] = closed
            powers[2 * p::p] = [c + len(closed) for c in powers[2 * p::p]]
        yield from closed


def enumerate_loops(g: GraphSpec, max_len: int) -> list[LoopRecord]:
    """All primitive loops of length <= max_len, one per rotation class
    (lexicographically minimal base point and word), in (length, word) order.
    """
    fin = finite_form(g)
    if fin is None:
        raise UnsupportedPresentationError("loop enumeration needs a finite graph")
    if max_len < 0:
        raise ValidationError("max_len must be nonnegative")
    found = {_canonical_rotation(base) for base in primitive_closed_walks(fin, max_len)}
    records = []
    for base in sorted(found, key=lambda w: (len(w), w)):
        loop = Loop(base + (base[0],))
        records.append(LoopRecord(loop, loop_has_outgoing_edge(fin, loop)))
    return records


# ---------------------------------------------------------------------------
# Predicates

def _class_digraph(g: Union[FiniteGraph, BlockPatternGraph]) -> tuple[
        FiniteGraph, Sequence[int], Sequence[Optional[int]]]:
    """The class digraph, the first vertex each class stands for, and each
    class's size (``None`` when infinite); classes are 1-based, so class
    ``c`` is entry ``c - 1``.  A finite graph is its own class digraph of
    singleton classes.  Adjacency in a block pattern depends only on the
    classes and no class is empty, so a path joins two vertices iff one
    joins their classes: the class digraph decides every block pattern,
    finite or infinite.  Any other object raises ``ValidationError``."""
    if isinstance(g, FiniteGraph):
        return g, range(1, g.size + 1), (1,) * g.size
    if isinstance(g, BlockPatternGraph):
        return g.class_graph, g.starts, g.class_sizes
    raise ValidationError(f"unknown graph presentation {type(g).__name__}")


def zero_rows(g: GraphSpec) -> list[tuple[int, Optional[int]]]:
    """The vertices without an outgoing edge, as runs ``(first vertex,
    length)`` in increasing order, the length ``None`` for an infinite run.
    A run is one class of the class digraph, or one prefix vertex or the
    whole tail of a banded tail."""
    if isinstance(g, BandedTailGraph):
        tail = [] if g.offsets else [(g.cutoff + 1, None)]  # no offsets: empty tail rows
        return [(i, 1) for i, out in enumerate(g.succ, start=1) if not out] + tail
    h, first, sizes = _class_digraph(g)
    return [(first[c], sizes[c]) for c, out in enumerate(h.succ) if not out]


def has_no_zero_rows(g: GraphSpec) -> bool:
    """Every vertex has at least one outgoing edge."""
    return not zero_rows(g)


def ck4_support(g: GraphSpec, E: Sequence[int], F: Sequence[int]) -> Optional[frozenset[int]]:
    """{i : A(j,i)=1 for j in E and A(k,i)=0 for k in F}, or None when the
    set is infinite.  Every vertex of E and F is checked before any row is
    read."""
    for v in (*E, *F):
        if not valid_vertex(g, v):
            raise ValidationError(f"unknown vertex {short_repr(v)}: outside the vertex set")
    if isinstance(g, BandedTailGraph):
        # rows are finite, so a nonempty E forces a finite support
        if not E:
            return None  # complement constraints alone leave a cofinite set
        candidates = set.intersection(*(set(g.successors(j)) for j in E))
        return frozenset(i for i in candidates if not any(g.edge(k, i) for k in F))
    # adjacency depends only on the classes, so the support is a union of classes
    h, first, sizes = _class_digraph(g)
    sources = {bisect.bisect_right(first, j) for j in E}
    blocked = {bisect.bisect_right(first, k) for k in F}
    support: set[int] = set()
    for c, into in enumerate(h.pred):
        if sources.issubset(into) and blocked.isdisjoint(into):
            if sizes[c] is None:
                return None
            support.update(range(first[c], first[c] + sizes[c]))
    return frozenset(support)


def _closure(g: GraphSpec) -> tuple[Sequence[Sequence[int]], Sequence[int],
                                     Sequence[Optional[int]], list[int]]:
    """The successor rows, first vertices and sizes of the classes that
    decide ``g`` (``_class_digraph``'s), and Warshall's closure over int
    bit rows: bit ``j - 1`` of ``reach[i - 1]`` is set iff a path of length
    >= 1 leads from class ``i`` to class ``j``.

    A banded tail stands in as its window 1..top, top = cutoff + 2 * max
    offset + 2, of singletons with their successors up to top.  Tail edges
    climb and nothing re-enters the prefix, so a path ending at j never
    passes max(cutoff, j), and no tail vertex lies on a cycle.  Cross
    targets lie below top, so prefix rows are whole and condition (L)'s
    forced singletons are exact.  Tail vertex cutoff + 1 reaches neither
    itself nor a loop, so both witnesses lie in the window, and top, a
    tail vertex, has no successor in it; a row full on the window is full,
    as beyond top, v - max offset is a tail vertex with an edge to v.
    """
    if isinstance(g, BandedTailGraph):
        top = g.cutoff + 2 * max(g.offsets, default=0) + 2
        first, sizes = range(1, top + 1), (1,) * top
        succ = tuple(tuple(j for j in g.successors(i) if j <= top) for i in first)
    else:
        h, first, sizes = _class_digraph(g)
        succ = h.succ
    reach = [sum(1 << (j - 1) for j in out) for out in succ]
    entered = sum(1 << (j - 1) for j in set().union(*succ))
    for k in range(len(reach)):
        bit, row = 1 << k, reach[k]
        if row and entered & bit:  # no path passes through a sink or a source
            reach = [r | row if r & bit else r for r in reach]
    return succ, first, sizes, reach


class ConditionLVerdict(Value):
    __slots__ = ("holds", "witness")
    _defaults = {"witness": None}

    def __bool__(self) -> bool:
        return self.holds


def _loop_verdicts(g: GraphSpec) -> tuple[ConditionLVerdict, tuple[bool, Optional[tuple[int, int]]],
                                            tuple[bool, Optional[int]]]:
    """Condition (L), irreducibility and loop reachability, each with its
    witness, read from one ``_closure``; ``classify`` needs all three, and
    a predicate asked alone pays only a scan of the closure rows more.

    Call a class *forced* when it is a singleton with one successor class.
    Class c lies on an exit-free loop iff c is in reach[c] and reach[c] is
    all forced.  (=>) Each vertex of an exit-free loop has out-degree 1,
    and an edge into a class is an edge to each of its vertices, so the
    next vertex's class is a singleton and the only successor class: every
    class on the loop is forced, the loop is the one walk from c, and
    reach[c] is its classes.  (<=) The walk along the one successor class
    from c stays in reach[c], so it visits singletons only, each vertex
    with out-degree 1, and as c is in reach[c] it returns to c: an
    exit-free loop.  Classes follow vertex order, so the walk from the
    least such c, the witness, is the lexicographically least exit-free
    loop.
    """
    succ, first, sizes, reach = _closure(g)
    forced = sum(1 << (c - 1) for c, out in enumerate(succ, start=1)
                 if len(out) == 1 and sizes[c - 1] == 1)
    cl = ConditionLVerdict(True, None)
    for c, row in enumerate(reach, start=1):
        if row >> (c - 1) & 1 and not row & ~forced:
            loop = [c, succ[c - 1][0]]
            while loop[-1] != c:
                loop.append(succ[loop[-1] - 1][0])
            cl = ConditionLVerdict(False, Loop(tuple(first[v - 1] for v in loop)))
            break
    full = (1 << len(reach)) - 1
    irr = next(((False, (first[i], first[(~row & (row + 1)).bit_length() - 1]))
                for i, row in enumerate(reach) if row != full), (True, None))
    # a vertex on a cycle lies in its own row, so it meets on_cycle
    on_cycle = sum(1 << i for i, row in enumerate(reach) if row >> i & 1)
    rl = next(((False, first[i]) for i, row in enumerate(reach) if not row & on_cycle),
              (True, None))
    return cl, irr, rl


def condition_l(g: GraphSpec) -> ConditionLVerdict:
    """Every loop has at least one outgoing edge; otherwise the
    lexicographically least exit-free loop (``_loop_verdicts``)."""
    return _loop_verdicts(g)[0]


def irreducible_with_witness(g: GraphSpec) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff every ordered vertex pair (i, j) is joined by a path of
    length >= 1; otherwise the lexicographically first unjoined pair."""
    return _loop_verdicts(g)[1]


def is_irreducible(g: GraphSpec) -> bool:
    return irreducible_with_witness(g)[0]


def reaches_loop_with_witness(g: GraphSpec) -> tuple[bool, Optional[int]]:
    """True iff every vertex has a path to a vertex lying on some loop;
    otherwise the minimal vertex that reaches none."""
    return _loop_verdicts(g)[2]


def every_vertex_reaches_loop(g: GraphSpec) -> bool:
    return reaches_loop_with_witness(g)[0]


# ---------------------------------------------------------------------------
# Classification

CRITERIA_MET = "criteria-met"
CRITERIA_FAILED = "criteria-failed"
NOT_APPLICABLE = "not-applicable"


class Verdict(Value):
    __slots__ = ("status", "witness", "reason")
    _defaults = {"witness": None, "reason": ""}

    @property
    def met(self) -> bool:
        return self.status == CRITERIA_MET


class ClassificationReport(Value):
    __slots__ = ("no_zero_rows", "condition_l", "irreducible", "irreducible_witness",
                 "every_vertex_reaches_loop", "loop_witness", "simple", "purely_infinite")


def classify(g: GraphSpec) -> ClassificationReport:
    """Assemble the graph predicates and the resulting sufficient-criteria
    verdicts: simple needs condition (L) plus irreducibility, purely
    infinite needs condition (L) plus every vertex reaching a loop.  With a
    zero row the shift hypotheses fail and both verdicts are not-applicable.
    """
    nzr = has_no_zero_rows(g)
    cl, (irr, irr_wit), (rl, rl_wit) = _loop_verdicts(g)
    if not nzr:
        simple = pi = Verdict(NOT_APPLICABLE, reason="graph has a zero row")
    elif not cl.holds:
        simple = pi = Verdict(CRITERIA_FAILED, witness=cl.witness, reason="condition (L) fails")
    else:
        simple = (Verdict(CRITERIA_MET) if irr else
                  Verdict(CRITERIA_FAILED, witness=irr_wit, reason="not irreducible"))
        pi = (Verdict(CRITERIA_MET) if rl else
              Verdict(CRITERIA_FAILED, witness=rl_wit, reason="some vertex reaches no loop"))
    return ClassificationReport(nzr, cl, irr, irr_wit, rl, rl_wit, simple, pi)
