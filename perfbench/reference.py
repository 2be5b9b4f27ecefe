"""Computations the output checks compare against, written apart from
ckshift: integer matrix products and traces, walk counts, the CK4 letter
condition, level spectra and the action of the generators S_i and S_i*
on them.  Nothing here imports ckshift.
"""

from __future__ import annotations

import itertools

# ---------------------------------------------------------------------------
# Integer matrices (lists or tuples of rows)


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matpow(a, k):
    out = identity(len(a))
    for _ in range(k):
        out = matmul(out, a)
    return out


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def traces(a, k_max):
    """[0, tr A, tr A^2, ..., tr A^k_max] by repeated multiplication."""
    out, cur = [0], identity(len(a))
    for _ in range(k_max):
        cur = matmul(cur, a)
        out.append(trace(cur))
    return out


def eye_minus(a):
    n = len(a)
    return [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]


def as_lists(m):
    return [list(row) for row in m]


# ---------------------------------------------------------------------------
# Finite graphs: rows[i][j] = 1 permits i+1 -> j+1


def successors(rows, v):
    return [j + 1 for j, bit in enumerate(rows[v - 1]) if bit]


def closed_walks(rows, k):
    """Closed walks of length k, counted by pushing a walk vector from
    every start vertex (the number of points with T^k x = x)."""
    n = len(rows)
    total = 0
    for start in range(1, n + 1):
        vec = {start: 1}
        for _ in range(k):
            nxt = {}
            for v, c in vec.items():
                for j in successors(rows, v):
                    nxt[j] = nxt.get(j, 0) + c
            vec = nxt
        total += vec.get(start, 0)
    return total


def words_ending(rows, length):
    """ends[v] = number of admissible words of the given length ending at v."""
    n = len(rows)
    ends = {v: 1 for v in range(1, n + 1)}
    for _ in range(length - 1):
        nxt = {v: 0 for v in range(1, n + 1)}
        for v, c in ends.items():
            for j in successors(rows, v):
                nxt[j] += c
        ends = nxt
    return ends


def spectrum_count(rows, level, family):
    """|level spectrum|: full words of length level+1, words of length
    1..level capped by each boundary set holding their last letter, and
    one empty-word point per boundary set."""
    count = sum(words_ending(rows, level + 1).values())
    for r in range(1, level + 1):
        ends = words_ending(rows, r)
        for J in family:
            count += sum(ends[v] for v in J)
    return count + len(family)


def words(rows, length):
    """All admissible words of the given length."""
    out = [(v,) for v in range(1, len(rows) + 1)]
    for _ in range(length - 1):
        out = [w + (j,) for w in out for j in successors(rows, w[-1])]
    return out


# ---------------------------------------------------------------------------
# Boundary sets and spectrum points as plain tuples.  A point is
# (word, J) with J None for a full word, else a sorted tuple of vertices.


def render_set(J):
    return "{" + ",".join(str(v) for v in sorted(J)) + "}"


def render_point(p):
    word, J = p
    text = ",".join(str(v) for v in word)
    return text if J is None else f"{text};{render_set(J)}"


def spectrum(rows, level, family):
    pts = [(w, None) for w in words(rows, level + 1)]
    for r in range(1, level + 1):
        for w in words(rows, r):
            pts.extend((w, J) for J in family if w[-1] in J)
    pts.extend(((), J) for J in family)
    return pts


def parse_point(text):
    """Inverse of render_point: "1,2" / "1,2;{1,2}" / ";{1,2}"."""
    word_text, _, set_text = text.partition(";")
    word = tuple(int(v) for v in word_text.split(",") if v)
    if not set_text:
        return word, None
    return word, tuple(int(v) for v in set_text.strip("{}").split(",") if v)


def project(p, level):
    """The image of a point under the projections down to ``level``."""
    word, J = p
    if J is None or len(word) > level:
        return word[:level + 1], None
    return p


def monomial_evaluation(rows, family, alpha, beta, h_level, h_members, level):
    """What the triple S(alpha, h, beta) means on the level-``level``
    spectrum: beta.x -> alpha.x for every x whose projection to the level
    of h is a member of h, as rendered (source, image) pairs."""
    alpha, beta = tuple(alpha), tuple(beta)
    members = {parse_point(m) for m in h_members}
    pairs = set()
    for x in spectrum(rows, level - len(beta), family):
        if project(x, h_level) not in members:
            continue
        word, J = x
        if beta and not (rows[beta[-1] - 1][word[0] - 1] if word else beta[-1] in J):
            continue
        if alpha and not (rows[alpha[-1] - 1][word[0] - 1] if word else alpha[-1] in J):
            continue
        pairs.add((render_point((beta + word, J)), render_point((alpha + word, J))))
    return pairs


def apply_generator(rows, v, adjoint, p):
    """S_v (x -> v.x on the follower set of v) or S_v* (v.x -> x) on one
    point; None outside the domain."""
    word, J = p
    if adjoint:
        return (word[1:], J) if word and word[0] == v else None
    if word:
        return ((v,) + word, J) if rows[v - 1][word[0] - 1] else None
    return ((v,), J) if J is not None and v in J else None


def word_evaluation(rows, family, factors, level):
    """The product S_f1 S_f2 ... S_fk (the last factor acts first) on the
    level-``level`` spectrum, as rendered (source, image) pairs; None when
    some intermediate level would drop below what an adjoint needs."""
    lvl = level
    for v, adjoint in reversed(factors):
        if adjoint:
            if lvl < 1:
                return None
            lvl -= 1
        else:
            lvl += 1
    pairs = set()
    for p in spectrum(rows, level, family):
        q = p
        for v, adjoint in reversed(factors):
            q = apply_generator(rows, v, adjoint, q)
            if q is None:
                break
        if q is not None:
            pairs.add((render_point(p), render_point(q)))
    return pairs


# ---------------------------------------------------------------------------
# CK4 by the letter condition


def subsets(items):
    """Every subset, by size then lexicographically (the order ck-verify
    walks the (E, F) pairs in)."""
    out = []
    for r in range(len(items) + 1):
        out.extend(itertools.combinations(items, r))
    return out


def ck4_failures_finite(n, family):
    """The (E, F) pairs at which CK4 must fail on a finite graph with the
    given boundary family: some J in the family with E inside J and F
    disjoint from J.  On a finite graph every support is finite."""
    vs = list(range(1, n + 1))
    out = []
    for E in subsets(vs):
        for F in subsets(vs):
            if any(set(E) <= set(J) and not set(F) & set(J) for J in family):
                out.append((list(E), list(F)))
    return out


def block_class_of(sizes, v):
    start = 1
    for k, card in enumerate(sizes):
        if card is None or v < start + card:
            return k
        start += card
    raise ValueError(f"vertex {v} outside the block pattern")


def block_cluster_family(sizes, block):
    """The cluster patterns of a block pattern: for each infinite class,
    the set of classes with an edge into it (as class indices)."""
    return [frozenset(s for s in range(len(sizes)) if block[s][c])
            for c in range(len(sizes)) if sizes[c] is None]


def windowed_ck4_expectation(graph, window):
    """Expected (checked, not finitely supported, first failing pair) for
    the windowed ck-verify of a block-pattern or banded graph with its
    cluster family, over the pairs ({i}, {}) then ({}, {i})."""
    pairs = [((i,), ()) for i in window] + [((), (i,)) for i in window]
    if graph["type"] == "block":
        sizes = [None if c["card"] == "inf" else c["card"] for c in graph["classes"]]
        block = graph["block"]
        family = block_cluster_family(sizes, block)

        def infinite_support(E, F):
            for c in range(len(sizes)):
                if all(block[block_class_of(sizes, j)][c] for j in E) and \
                        not any(block[block_class_of(sizes, k)][c] for k in F):
                    if sizes[c] is None:
                        return True
            return False

        def contains(J, v):
            return block_class_of(sizes, v) in J
    else:
        family = [frozenset()]  # a banded tail's only cluster pattern is empty

        def infinite_support(E, F):
            return not E  # rows are finite, so only E = {} leaves a cofinite set

        def contains(J, v):
            return False
    nfs, first = 0, None
    for E, F in pairs:
        if infinite_support(E, F):
            nfs += 1
            continue
        bad = [J for J in family
               if all(contains(J, j) for j in E) and not any(contains(J, k) for k in F)]
        if bad and first is None:
            first = (list(E), list(F))
    return len(pairs), nfs, first


# ---------------------------------------------------------------------------
# Shift equivalence


def verify_elementary(A, R, S, B):
    return matmul(R, S) == as_lists(A) and matmul(S, R) == as_lists(B)


def verify_lag(A, B, R, S, k):
    return (matmul(A, R) == matmul(R, B) and matmul(S, A) == matmul(B, S)
            and matmul(R, S) == matpow(A, k) and matmul(S, R) == matpow(B, k))


def verify_chain(A, B, pairs):
    cur = as_lists(A)
    for R, S in pairs:
        if matmul(R, S) != cur:
            return False
        cur = matmul(S, R)
    return cur == as_lists(B)


def edge_words(M, length):
    """All edge words of the given length; an edge is (i, j, copy)."""
    edges = [(i + 1, j + 1, c + 1) for i, row in enumerate(M)
             for j, m in enumerate(row) for c in range(m)]
    out = [(e,) for e in edges]
    for _ in range(length - 1):
        out = [w + (e,) for w in out for e in edges if e[0] == w[-1][1]]
    return out


def dimension_group_equal(A, x, y):
    """(v, m) = (w, m') in the inductive limit of Z^n under A: lift both
    to level M = max(m, m') and test A^n (lift v - lift w) = 0."""
    (v, m), (w, mm) = x, y
    top = max(m, mm)
    lv = [row[0] for row in matmul(matpow(A, top - m), [[c] for c in v])]
    lw = [row[0] for row in matmul(matpow(A, top - mm), [[c] for c in w])]
    d = [[a - b] for a, b in zip(lv, lw)]
    return all(row[0] == 0 for row in matmul(matpow(A, len(A)), d))
