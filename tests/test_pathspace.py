import itertools
import random
import sys

import pytest

import ckshift as ck
from ckshift.errors import (DomainError, UnsupportedPresentationError,
                            ValidationError)
from ckshift.graphs import finite_form, loop_has_outgoing_edge, primitive_closed_walks
from ckshift.pathspace import (PeriodicPointRecord, PeriodicScan, SpectrumPoint, fiber,
                               full_point, strict_period_counts, truncated_point)
from ckshift.sse import trace_powers

from conftest import all_finite_graphs, walks


class TestClusterPatterns:
    def test_finite_graphs_have_none(self, golden_mean, full2, two_cycle):
        for g in (golden_mean, full2, two_cycle):
            assert ck.cluster_patterns(g) == frozenset()

    def test_ray(self, ray):
        assert ck.cluster_patterns(ray) == frozenset({ck.make_pattern(ray)})

    def test_all_ones_infinite(self, all_ones_infinite):
        g = all_ones_infinite
        assert ck.cluster_patterns(g) == frozenset({ck.make_pattern(g, classes=(1,))})

    def test_mixed_block(self):
        # finite class 1 feeds the infinite class 2; columns of class 2 see both
        g = ck.BlockPatternGraph((2, None), ((0, 1), (1, 1)))
        (pat,) = ck.cluster_patterns(g)
        assert pat == ck.make_pattern(g, finite=(1, 2), classes=(2,))

    def test_window_empirics_ray(self, ray):
        # for any finite window, all large columns miss it entirely
        for w in (3, 5, 8):
            for j in range(w + 2, w + 12):
                assert not any(ray.edge(v, j) for v in range(1, w + 1))

    def test_window_empirics_all_ones(self, all_ones_infinite):
        # every column meets every window in everything: the full pattern
        g = all_ones_infinite
        (pat,) = ck.cluster_patterns(g)
        for v in (1, 5, 100):
            assert pat.contains(v, g)

    def test_window_invariance_banded(self):
        g = ck.BandedTailGraph(((1,),), 1, (2,), ((1,),))
        assert ck.cluster_patterns(g) == frozenset({ck.make_pattern(g)})


class TestValidateModel:
    def test_full_shift_dense(self, full2):
        m = ck.validate_model(full2, ())
        assert m.dense_domain

    def test_toeplitz_not_dense(self, toeplitz_model):
        assert not toeplitz_model.dense_domain

    def test_ray_missing_pattern(self, ray):
        with pytest.raises(ValidationError, match="misses the cluster pattern"):
            ck.validate_model(ray, ())

    def test_hypothesis_failure_names_vertex(self):
        g = ck.FiniteGraph(((0, 1), (0, 0)))
        with pytest.raises(ValidationError, match="vertex 2"):
            ck.validate_model(g, ())

    def test_banded_without_offsets_names_an_uncovered_tail_vertex(self):
        g = ck.BandedTailGraph((), 0, (), ())
        family = [ck.make_pattern(g), ck.make_pattern(g, finite=(1,))]
        with pytest.raises(ValidationError) as err:
            ck.validate_model(g, family)
        assert str(err.value) == "vertex 2 has no outgoing edge and lies in no boundary set"

    def test_banded_without_offsets_names_the_prefix_vertex_first(self):
        g = ck.BandedTailGraph(((0,),), 1, (), ((),))
        with pytest.raises(ValidationError) as err:
            ck.validate_model(g, [ck.make_pattern(g)])
        assert str(err.value) == "vertex 1 has no outgoing edge and lies in no boundary set"

    def test_infinite_zero_class_names_its_first_bare_vertex(self):
        # vertex 2 heads the bare infinite class but lies in {2}
        g = ck.BlockPatternGraph((1, None), ((1, 1), (0, 0)))
        for J, bare in (((2,), 3), ((2, 3), 4), ((3,), 2)):
            family = [ck.make_pattern(g, finite=(1,)), ck.make_pattern(g, finite=J)]
            with pytest.raises(ValidationError) as err:
                ck.validate_model(g, family)
            assert str(err.value) == \
                f"vertex {bare} has no outgoing edge and lies in no boundary set"

    def test_far_explicit_vertex_needs_no_scan(self, monkeypatch):
        # the class pattern covers the probe past 10^9, so nothing is scanned
        g = ck.BlockPatternGraph((1, None), ((1, 1), (0, 0)))
        family = [ck.make_pattern(g, finite=(1,)), ck.make_pattern(g, classes=(2,)),
                  ck.make_pattern(g, finite=(10 ** 9,))]
        calls, contains = [], ck.BoundaryPattern.contains
        monkeypatch.setattr(ck.BoundaryPattern, "contains",
                            lambda pat, v, h: calls.append(v) or contains(pat, v, h))
        model = ck.validate_model(g, family)
        assert not model.dense_domain and len(calls) <= len(family)

    def test_first_bare_vertex_against_brute_scan(self):
        # the first bare vertex, from a scan past every explicit vertex
        def brute(g, family):
            top = max((v for p in family for v in p.finite), default=0)
            last = g.total_size() or top + sum(g.class_sizes[:-1]) + 2
            for v in range(1, last + 1):
                if not any(g.block[g.class_of(v) - 1]) and \
                        not any(p.contains(v, g) for p in family):
                    return f"vertex {v} has no outgoing edge and lies in no boundary set"
            return None

        rng = random.Random(15)
        for k in (1, 2, 3):
            for _ in range(150):
                sizes = tuple(rng.randint(1, 3) for _ in range(k - 1)) + \
                    (rng.choice((None, 1, 2, 3)),)
                g = ck.BlockPatternGraph(sizes, tuple(
                    tuple(rng.choice((0, 0, 1)) for _ in range(k)) for _ in range(k)))
                family = set(ck.cluster_patterns(g))
                for _ in range(rng.randint(0, 3)):
                    n = g.total_size() or 8
                    family.add(ck.make_pattern(
                        g, finite=rng.sample(range(1, n + 1), rng.randint(0, min(n, 3))),
                        classes=[k] if sizes[-1] is None and rng.random() < 0.3 else ()))
                try:
                    ck.validate_model(g, family)
                    got = None
                except ValidationError as exc:
                    got = str(exc)
                assert got == brute(g, family), (sizes, g.block, family)

    def test_zero_row_covered_by_boundary(self):
        g = ck.FiniteGraph(((0, 1), (0, 0)))
        m = ck.validate_model(g, [ck.make_pattern(g, finite=(2,))])
        assert not m.dense_domain  # boundary strictly exceeds the (empty) cluster family

    def test_pattern_canonicalization(self):
        # a finite class listed as a class equals its vertex expansion
        g = ck.BlockPatternGraph((2, None), ((1, 1), (1, 1)))
        assert ck.make_pattern(g, classes=(1,)) == ck.make_pattern(g, finite=(1, 2))


def brute_spectrum(model, n):
    """Oracle: build the level set from scratch by filtering all tuples."""
    g = model.graph
    letters = list(g.vertices())
    full = {full_point(w) for w in itertools.product(letters, repeat=n + 1)
            if all(g.edge(a, b) for a, b in zip(w, w[1:]))}
    trunc = set()
    for r in range(0, n + 1):
        for w in itertools.product(letters, repeat=r):
            if not all(g.edge(a, b) for a, b in zip(w, w[1:])):
                continue
            for pat in model.boundary:
                if not w or pat.contains(w[-1], g):
                    trunc.add(truncated_point(w, pat))
    return full | trunc


class TestSpectrum:
    def test_toeplitz_count(self, toeplitz_model):
        sl = ck.spectrum_level(toeplitz_model, 1)
        assert len(sl.points) == 7
        assert len([p for p in sl.points if p.is_full]) == 4

    def test_dense_full_shift(self, full2_model):
        sl = ck.spectrum_level(full2_model, 2)
        assert len(sl.points) == 8 and all(p.is_full for p in sl.points)

    def test_golden_mean_level1(self, golden_model):
        assert [p.word for p in ck.spectrum_level(golden_model, 1).points] == \
            [(1, 1), (1, 2), (2, 1)]

    def test_against_brute_oracle(self, toeplitz_model, golden_model):
        for model in (toeplitz_model, golden_model):
            for n in range(0, 4):
                assert set(ck.spectrum_level(model, n).points) == \
                    brute_spectrum(model, n)

    def test_empty_family_lists_only_full_words(self, golden_model, golden_mean):
        sl = ck.spectrum_level(golden_model, 5)
        assert sl.points == tuple(full_point(w) for w in brute_words(golden_mean, 6, (1, 2)))

    def test_deterministic_order(self, toeplitz_model):
        a = [p.render() for p in ck.spectrum_level(toeplitz_model, 3).points]
        b = [p.render() for p in ck.spectrum_level(toeplitz_model, 3).points]
        assert a == b

    def test_infinite_needs_window(self, ray):
        m = ck.dense_model(ray)
        with pytest.raises(UnsupportedPresentationError, match="window"):
            ck.spectrum_level(m, 2)
        sl = ck.spectrum_level(m, 2, window=5)
        assert sl.partial
        assert full_point((1, 2, 3)) in set(sl.points)

    def test_infinite_block_windowed(self, all_ones_infinite):
        m = ck.dense_model(all_ones_infinite)
        sl = ck.spectrum_level(m, 1, window=2)
        # matches the Toeplitz count on the same window: the boundary
        # pattern is the full vertex set here as well
        assert sl.partial and len(sl.points) == 7

    def test_full_pattern(self, full2, all_ones_infinite, ray):
        assert ck.full_pattern(full2) == ck.make_pattern(full2, finite=(1, 2))
        pat = ck.full_pattern(all_ones_infinite)
        assert pat.contains(123, all_ones_infinite)
        with pytest.raises(UnsupportedPresentationError):
            ck.full_pattern(ray)

    def test_projection_validates_level(self):
        with pytest.raises(ValidationError):
            ck.project_point(full_point((1, 2)), 3)  # wrong word length
        with pytest.raises(ValidationError):
            ck.project_point(full_point((1,)), 0)  # no level below 0

    def test_points_take_int_letters_only(self, toeplitz_model):
        # "%d" writes every letter of a point as str does
        (pat,) = toeplitz_model.boundary
        for word in ((True, 2), (1, 2.0), ("1",), (1, None)):
            with pytest.raises(ValidationError, match="letters are integers"):
                full_point(word)
            with pytest.raises(ValidationError, match="letters are integers"):
                truncated_point(word, pat)
        assert full_point([1, 2]).render() == "1,2" and full_point(()).pretty() == "()"


@pytest.mark.parametrize("call", [
    lambda m: ck.spectrum_level(m, True),
    lambda m: ck.spectrum_level(m, 1.0),
    lambda m: ck.periodic_points(m, 2.0, 0),
    lambda m: ck.periodic_points(m, True, 0),
    lambda m: ck.periodic_points(m, 2, False),
    lambda m: ck.essential_freeness_scan(m, 0, 1, True),
    lambda m: ck.essential_freeness_scan(m, 0, 1, 3.0),
    lambda m: ck.essential_freeness_scan(m, False, 1, 3),
    lambda m: ck.essential_freeness_scan(m, 0, "1", 3),
    lambda m: ck.periodic_points(m, 2, 0).strict_count_dividing(2.0),
    lambda m: ck.periodic_points(m, 2, 0).strict_count_dividing("2"),
    lambda m: ck.periodic_points(m, 2, 0).strict_count_dividing(True),
    lambda m: ck.spectrum_level(m, 1, window=True),
    lambda m: ck.spectrum_level(m, 1, window=2.0),
    lambda m: ck.tail_partition(m, 1.5, 3),
    lambda m: ck.strict_period_counts(m.graph, 2.0),
    lambda m: ck.strict_period_counts(m.graph, True),
    lambda m: ck.evaluate(ck.generator(m, 1), 2.0),
    lambda m: ck.raise_level(ck.full_space(m), 1.5),
    lambda m: ck.make_clopen(m, True, []),
    lambda m: fiber(m, full_point((1, 2)), True),
    lambda m: fiber(m, full_point((1, 2)), 1.0),
    lambda m: fiber(m, full_point((1,)), False),
    lambda m: ck.project_point(full_point((1, 2)), 1.0),
    lambda m: ck.project_point(full_point((1, 2)), True),
])
def test_integer_arguments_reject_bools_and_non_ints(call, golden_model):
    # the message names the argument
    with pytest.raises(ValidationError, match=r"^\w+ must be an integer"):
        call(golden_model)


def test_negative_period_bound_is_rejected(golden_mean):
    # it used to give an empty list
    with pytest.raises(ValidationError, match="^max_k must be nonnegative"):
        ck.strict_period_counts(golden_mean, -1)
    assert ck.strict_period_counts(golden_mean, 0) == [0]


def test_negative_window_is_rejected(ray):
    # it used to give an empty spectrum
    with pytest.raises(ValidationError, match="window must be nonnegative"):
        ck.spectrum_level(ck.dense_model(ray), 1, window=-1)


def brute_words(g, length, vertices):
    """Oracle: every vertex tuple of the length, filtered by the edges."""
    return [w for w in itertools.product(vertices, repeat=length)
            if all(g.edge(a, b) for a, b in zip(w, w[1:]))]


def full_words(model, length, window=None):
    """The admissible words of a length >= 1: the full points one level down."""
    return [p.word for p in ck.spectrum_level(model, length - 1, window).points if p.is_full]


def word_model(g):
    """The dense model, or the full-pattern family where a row is zero."""
    try:
        return ck.dense_model(g)
    except ValidationError:
        return ck.validate_model(g, [ck.full_pattern(g)])


def oracle_words(g, length, window=None):
    """The former per-length enumeration: one walk for each word length."""
    fin = finite_form(g)
    if fin is not None:
        starts = fin.vertices()

        def extend(word):
            return fin.succ[word[-1] - 1]
    else:
        starts = range(1, window + 1)

        def extend(word):
            return [j for j in starts if g.edge(word[-1], j)]
    return [tuple(w) for w in walks(starts, extend, length) if len(w) == length]


def spectrum_oracle(model, n, window=None):
    """Reference for ``spectrum_level``: full words, then each shorter
    length walked again and its layer sorted, then the empty-word points."""
    g = model.graph
    pts = [full_point(w) for w in oracle_words(g, n + 1, window)]
    fam = model.boundary_sorted()
    for r in range(n, 0, -1):
        layer = [truncated_point(w, pat) for w in oracle_words(g, r, window)
                 for pat in fam if pat.contains(w[-1], g)]
        pts.extend(sorted(layer, key=SpectrumPoint.sort_key))
    pts.extend(truncated_point((), pat) for pat in fam)
    return tuple(pts)


def random_families(g, rng, count=2):
    """``count`` families of one to three random vertex subsets."""
    vertices = list(g.vertices())
    return [[ck.make_pattern(g, finite=[v for v in vertices if rng.random() < 0.5])
             for _ in range(rng.randint(1, 3))] for _ in range(count)]


def assert_matches_oracle(model, levels, window=None):
    for n in levels:
        pts = ck.spectrum_level(model, n, window).points
        assert pts == spectrum_oracle(model, n, window), (model, n, window)
        assert pts == tuple(sorted(pts, key=SpectrumPoint.sort_key)), (model, n, window)


class TestAdmissibleWords:
    def test_finite_against_product_oracle(self):
        for size in (1, 2, 3):
            for g in all_finite_graphs(size):
                model = word_model(g)
                for length in range(1, 5):
                    assert full_words(model, length) == \
                        brute_words(g, length, g.vertices()), (g.rows, length)
                empty = [p for p in ck.spectrum_level(model, 2).points if not p.word]
                assert empty == [truncated_point((), pat) for pat in model.boundary_sorted()]

    def test_windowed_against_product_oracle(self, ray, all_ones_infinite):
        g = ck.BlockPatternGraph((2, None), ((0, 1), (1, 1)))
        for graph in (ray, all_ones_infinite, g):
            for length in range(1, 4):
                assert full_words(ck.dense_model(graph), length, window=4) == \
                    brute_words(graph, length, range(1, 5))

    def test_finite_block_uses_its_matrix(self):
        g = ck.BlockPatternGraph((1, 2), ((0, 1), (1, 1)))
        assert full_words(ck.dense_model(g), 3) == brute_words(g, 3, range(1, 4))


class TestOneWalkSpectrum:
    """``spectrum_level`` against the former multi-pass enumeration."""

    def test_every_small_finite_graph(self):
        rng = random.Random(10)
        for size in (1, 2, 3):
            for g in all_finite_graphs(size):
                for family in [[]] + random_families(g, rng):
                    try:
                        model = ck.validate_model(g, family)
                    except ValidationError:  # a zero row outside every member
                        model = ck.validate_model(g, family + [ck.full_pattern(g)])
                    assert_matches_oracle(model, range(0, 5))

    def test_windowed_block_and_banded(self, ray, all_ones_infinite):
        mixed = ck.BlockPatternGraph((2, None), ((0, 1), (1, 1)))
        banded = ck.BandedTailGraph(((0, 1, 0), (1, 0, 1), (0, 0, 1)), 3, (1, 2),
                                    ((0, 0), (0, 1), (1, 1)))
        models = [ck.dense_model(g) for g in (ray, all_ones_infinite, mixed, banded)]
        models.append(ck.validate_model(mixed, ck.cluster_patterns(mixed) | {
            ck.make_pattern(mixed, finite=(2,)), ck.make_pattern(mixed, classes=(2,))}))
        models.append(ck.validate_model(banded, ck.cluster_patterns(banded) | {
            ck.make_pattern(banded, finite=(1, 3)), ck.make_pattern(banded, finite=(5,))}))
        for model in models:
            for window in (0, 1, 2, 5):  # 1 and 2 lie below the banded cutoff
                assert_matches_oracle(model, range(0, 4), window)

    def test_window_rows_use_each_edge_once(self, monkeypatch):
        g = ck.BandedTailGraph(((1, 1), (1, 0)), 2, (1, 3), ((0, 1), (1, 1)))
        model = ck.validate_model(g, [ck.make_pattern(g), ck.make_pattern(g, finite=(2,))])
        edge, asked = ck.BandedTailGraph.edge, []
        monkeypatch.setattr(ck.BandedTailGraph, "edge",
                            lambda self, i, j: asked.append((i, j)) or edge(self, i, j))
        for window in (1, 4, 6):
            asked.clear()
            sl = ck.spectrum_level(model, 4, window)
            assert len(asked) == len(set(asked)) <= window * window
            assert set(asked) <= set(itertools.product(range(1, window + 1), repeat=2))
            assert sl.points == spectrum_oracle(model, 4, window)

    def test_fiber_and_tail_partition_come_sorted(self):
        rng = random.Random(12)
        for g in all_finite_graphs(2):
            for family in random_families(g, rng):
                try:
                    model = ck.validate_model(g, family)
                except ValidationError:
                    continue
                for n in range(0, 3):
                    for q in ck.spectrum_level(model, n).points:
                        got = fiber(model, q, n)
                        assert got == tuple(sorted(got, key=SpectrumPoint.sort_key))
                    for k in range(0, n + 1):
                        classes = ck.tail_partition(model, k, n)
                        want = sorted((sorted(c, key=SpectrumPoint.sort_key) for c in classes),
                                      key=lambda c: c[0].sort_key())
                        assert classes == want, (g.rows, family, n, k)

    def test_caps_feed_fibers_and_follower_sets(self, all_ones_infinite):
        banded = ck.BandedTailGraph(((1, 1), (0, 0)), 2, (1,), ((0,), (1,)))
        block = ck.BlockPatternGraph((1, None), ((1, 1), (1, 0)))
        for g, family in ((banded, [(), (2,), (1, 2), (2, 5)]),
                          (block, [(), (1,)]), (all_ones_infinite, [])):
            model = ck.validate_model(g, ck.cluster_patterns(g) | {
                ck.make_pattern(g, finite=f) for f in family})
            for v in range(1, 7):
                want = [p for p in model.boundary_sorted() if p.contains(v, g)]
                assert model.caps(v) == want, (g, v)
                try:
                    succ = g.successors(v)
                except UnsupportedPresentationError:
                    continue  # an infinite row has no finite fiber
                assert fiber(model, full_point((v,)), 0) == tuple(
                    [full_point((v, j)) for j in succ] + [truncated_point((v,), p) for p in want])
                assert ck.follower_set(model, v).members == frozenset(
                    [full_point((j,)) for j in succ] + [truncated_point((), p) for p in want])


class TestDeepOneVertexLoop:
    """Word lengths far past the interpreter's recursion limit."""

    DEPTH = sys.getrecursionlimit() + 500

    @pytest.fixture
    def loop_model(self):
        return ck.dense_model(ck.FiniteGraph(((1,),)))

    def test_spectrum(self, loop_model):
        sl = ck.spectrum_level(loop_model, self.DEPTH)
        assert sl.points == (full_point((1,) * (self.DEPTH + 1)),)

    def test_periodic_points(self, loop_model):
        scan = ck.periodic_points(loop_model, self.DEPTH, 0)
        assert [(r.period, r.loop.vertices, r.isolated) for r in scan.records] == \
            [(1, (1, 1), True)]

    def test_essential_freeness(self, loop_model):
        res = ck.essential_freeness_scan(loop_model, 0, 2, self.DEPTH)
        assert res.violation_found and res.witness == (1,)


class TestProjection:
    def test_full_path_drops_last(self):
        assert ck.project_point(full_point((1, 2, 1)), 2) == full_point((1, 2))

    def test_truncated_identity(self, toeplitz_model):
        (pat,) = toeplitz_model.boundary
        p = truncated_point((1,), pat)
        assert ck.project_point(p, 2) == p

    def test_truncated_maximal_drops_cap(self, toeplitz_model):
        (pat,) = toeplitz_model.boundary
        p = truncated_point((1, 2), pat)
        assert ck.project_point(p, 2) == full_point((1, 2))

    def test_empty_word_fixed(self, toeplitz_model):
        (pat,) = toeplitz_model.boundary
        p = truncated_point((), pat)
        assert ck.project_point(p, 5) == p

    def test_projective_coherence(self, toeplitz_model, golden_model):
        # the projection maps level n+1 onto level n, fibers partition it
        for model in (toeplitz_model, golden_model):
            for n in range(0, 3):
                lower = set(ck.spectrum_level(model, n).points)
                upper = set(ck.spectrum_level(model, n + 1).points)
                assert {ck.project_point(p, n + 1) for p in upper} == lower
                fibers = [set(fiber(model, q, n)) for q in lower]
                assert set().union(*fibers) == upper
                assert sum(len(f) for f in fibers) == len(upper)


class TestShift:
    def test_word(self):
        assert ck.shift_point((1, 2, 1, 1)) == (2, 1, 1)

    def test_truncated_to_empty(self, toeplitz_model):
        (pat,) = toeplitz_model.boundary
        assert ck.shift_point(truncated_point((1,), pat)) == truncated_point((), pat)

    def test_empty_domain_error(self, toeplitz_model):
        (pat,) = toeplitz_model.boundary
        with pytest.raises(DomainError):
            ck.shift_point(truncated_point((), pat))
        with pytest.raises(DomainError):
            ck.shift_point(())

    def test_commutes_with_projection(self, toeplitz_model):
        # T(pi(x)) = pi(T(x)) wherever both sides are defined
        for n in (2, 3):
            for p in ck.spectrum_level(toeplitz_model, n).points:
                if len(p.word) < 2:
                    continue
                lhs = ck.shift_point(ck.project_point(p, n))
                rhs = ck.project_point(ck.shift_point(p), n - 1)
                assert lhs == rhs, p.render()


def brute_periodic_points(g, max_period, max_preperiod, horizon=14):
    """Oracle: expand every (prefix, primitive cycle) pair into the first
    `horizon` letters of the corresponding path."""
    pts = set()
    letters = list(g.vertices())
    for p in range(1, max_period + 1):
        for cyc in itertools.product(letters, repeat=p):
            if not all(g.edge(a, b) for a, b in zip(cyc, cyc[1:])):
                continue
            if not g.edge(cyc[-1], cyc[0]):
                continue
            if any(p % d == 0 and cyc == cyc[:d] * (p // d) for d in range(1, p)):
                continue
            for m in range(0, max_preperiod + 1):
                for pre in itertools.product(letters, repeat=m):
                    word = pre + cyc
                    if not all(g.edge(a, b) for a, b in zip(word, word[1:])):
                        continue
                    if pre and pre[-1] == cyc[-1]:
                        continue
                    expand = pre + cyc * ((horizon // p) + 1)
                    pts.add(expand[:horizon])
    return pts


class TestPeriodicPoints:
    def test_golden_mean(self, golden_model):
        scan = ck.periodic_points(golden_model, 2, 0)
        assert [(r.period, r.loop.vertices) for r in scan.records] == \
            [(1, (1, 1)), (2, (1, 2, 1)), (2, (2, 1, 2))]
        assert scan.strict_count_dividing(1) == 1
        assert scan.strict_count_dividing(2) == 3

    def test_two_cycle_isolated(self, two_cycle):
        scan = ck.periodic_points(ck.dense_model(two_cycle), 2, 0)
        assert len(scan.records) == 2 and all(r.isolated for r in scan.records)

    def test_full_shift_fixed_points(self, full2_model):
        scan = ck.periodic_points(full2_model, 1, 0)
        assert len(scan.records) == 2 and not any(r.isolated for r in scan.records)

    def test_records_against_brute_expansion(self):
        rng = random.Random(11)
        pool = [r for r in itertools.product((0, 1), repeat=3) if any(r)]
        for _ in range(25):
            g = ck.FiniteGraph(tuple(rng.choice(pool) for _ in range(3)))
            model = ck.dense_model(g)
            for q in (0, 2):
                scan = ck.periodic_points(model, 3, q)
                got = set()
                for r in scan.records:
                    expand = r.prefix + r.loop.base_word * 20
                    got.add(expand[:14])
                assert got == brute_periodic_points(g, 3, q), (g.rows, q)

    def test_counts_match_walk_counts_and_traces(self):
        for size in (1, 2, 3):
            for g in all_finite_graphs(size):
                counts = strict_period_counts(g, 6)
                assert counts == trace_powers(g.rows, 6), g.rows
        # record-derived counts agree with the walk counts
        for g in all_finite_graphs(2, no_zero_rows_only=True):
            scan = ck.periodic_points(ck.dense_model(g), 6, 0)
            counts = strict_period_counts(g, 6)
            for k in range(1, 7):
                assert scan.strict_count_dividing(k) == counts[k]

    def test_strict_counts_match_per_record_count(self):
        # the compiled period histogram against a scan of every record per k
        for size in (1, 2, 3):
            for g in all_finite_graphs(size):
                model = ck.validate_model(g, [ck.full_pattern(g)])
                scan = ck.periodic_points(model, 6, 2)
                for k in range(1, 7):
                    assert scan.strict_count_dividing(k) == sum(
                        1 for r in scan.records if r.preperiod == 0 and k % r.period == 0)
                with pytest.raises(ValidationError, match=r"integer in 1\.\.6, got 7"):
                    scan.strict_count_dividing(7)
        acyclic = ck.FiniteGraph(((0, 1), (0, 0)))
        scan = ck.periodic_points(ck.validate_model(acyclic, [ck.full_pattern(acyclic)]), 50, 0)
        assert scan.records == () and scan.strict_count_dividing(50) == 0

    def test_isolated_matches_loop_exits(self):
        # the out-degree table agrees with the letter-by-letter exit check
        for g in all_finite_graphs(3):
            scan = ck.periodic_points(ck.validate_model(g, [ck.full_pattern(g)]), 5, 0)
            for r in scan.records:
                assert r.isolated == (not loop_has_outgoing_edge(g, r.loop)), (g.rows, r)

    def test_preperiod_minimality(self, golden_model):
        scan = ck.periodic_points(golden_model, 1, 1)
        # 2(1)^inf is the only preperiod-1 point onto the fixed point
        extra = [r for r in scan.records if r.preperiod == 1]
        assert [(r.prefix, r.loop.vertices) for r in extra] == [((2,), (1, 1))]

    def test_infinite_rejected(self, ray):
        with pytest.raises(UnsupportedPresentationError):
            ck.periodic_points(ck.dense_model(ray), 2, 0)

    def test_matches_leftward_frontier_exhaustive(self):
        # every graph on 1-3 vertices, against the frontier that grew the
        # prefixes one letter to the left per preperiod
        for size in (1, 2, 3):
            for g in all_finite_graphs(size):
                model = ck.validate_model(g, [ck.full_pattern(g)])
                for p in (1, 2, 3):
                    for q in (0, 1, 2, 3):
                        assert repr(ck.periodic_points(model, p, q)) == \
                            repr(frontier_periodic_points(g, p, q)), (g.rows, p, q)


def frontier_periodic_points(g, max_period, max_preperiod):
    """Oracle: the leftward preperiod frontier, every prefix kept and the
    minimal ones recorded."""
    records = []
    forced = {v for v, out in enumerate(g.succ, start=1) if len(out) == 1}
    for base in primitive_closed_walks(g, max_period):
        loop = ck.Loop(base + (base[0],))
        isolated = forced.issuperset(base)
        records.append(PeriodicPointRecord(0, len(base), (), loop, isolated))
        frontier = [()]
        for m in range(1, max_preperiod + 1):
            new = []
            for pre in frontier:
                target = pre[0] if pre else base[0]
                new.extend((i,) + pre for i in g.pred[target - 1])
            for w in new:
                if w[-1] != base[-1]:
                    records.append(PeriodicPointRecord(m, len(base), w, loop, isolated))
            frontier = new
    records.sort(key=lambda r: (r.preperiod, r.prefix, r.loop.vertices))
    return PeriodicScan(tuple(records), max_period, max_preperiod)


def brute_freeness_scan(model, m0, n0, depth):
    """Oracle: literal cylinder-by-cylinder, extension-by-extension scan."""
    m0, n0 = min(m0, n0), max(m0, n0)
    d = n0 - m0
    full = depth + d
    words = {length: full_words(model, length) for length in (full,)}
    for length in range(1, depth + 1):
        for gamma in full_words(model, length):
            exts = [w for w in words[full] if w[:length] == gamma]
            if not exts:
                continue
            if all(all(w[m0 + t] == w[n0 + t] for t in range(full - n0))
                   for w in exts):
                return True, gamma
    return False, None


def freeness_oracle(model, m0, n0, depth):
    """Oracle: the scan that walked each agreeing word letter by letter,
    every letter at or past position n0 forced to repeat the one d back."""
    fin = finite_form(model.graph)
    m0, n0 = min(m0, n0), max(m0, n0)
    d = n0 - m0
    full = depth + d
    n, succ, rows = fin.size, fin.succ, fin.rows
    ext = [[1] * (n + 1)]
    for _ in range(full):
        prev = ext[-1]
        ext.append([0] + [sum(prev[j] for j in succ[v - 1]) for v in range(1, n + 1)])

    def grow(word):
        pos = len(word)
        if pos >= n0:
            forced = word[pos - d]
            return (forced,) if rows[word[-1] - 1][forced - 1] else ()
        return succ[word[-1] - 1]

    agreeing = [tuple(w) for w in walks(fin.vertices(), grow, full) if len(w) == full]
    for ln in range(1, depth + 1):
        for pre, group in itertools.groupby(agreeing, key=lambda w: w[:ln]):
            if sum(1 for _ in group) == ext[full - ln][pre[-1]]:
                return True, pre
    return False, None


class TestEssentialFreeness:
    def test_matches_letter_by_letter_scan_exhaustive(self):
        # every graph on 1-3 vertices, zero rows included, every pair of
        # shift powers up to 4 and every depth from n0 to 8
        scans = 0
        for size in (1, 2, 3):
            for g in all_finite_graphs(size):
                model = ck.validate_model(g, [ck.full_pattern(g)])
                for n0 in range(1, 5):
                    for m0 in range(n0):
                        for depth in range(n0, 9):
                            got = ck.essential_freeness_scan(model, m0, n0, depth)
                            assert (got.violation_found, got.witness) == \
                                freeness_oracle(model, m0, n0, depth), (g.rows, m0, n0, depth)
                            scans += 1
        assert scans == 31800

    def test_capped_table_on_random_graphs(self):
        # deep scans, where the capped extension counts repeat and cycle
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 5)
            density = rng.choice((0.3, 0.5, 0.8))
            g = ck.FiniteGraph(tuple(tuple(int(rng.random() < density) for _ in range(n))
                                     for _ in range(n)))
            model = ck.validate_model(g, [ck.full_pattern(g)])
            for n0 in (1, 2, 3):
                for m0 in range(n0):
                    depth = rng.randint(n0, 40)
                    got = ck.essential_freeness_scan(model, m0, n0, depth)
                    assert (got.violation_found, got.witness) == \
                        freeness_oracle(model, m0, n0, depth), (g.rows, m0, n0, depth)

    def test_full_shift_free(self, full2_model):
        res = ck.essential_freeness_scan(full2_model, 0, 1, 4)
        assert not res.violation_found

    def test_two_cycle_violation(self, two_cycle):
        res = ck.essential_freeness_scan(ck.dense_model(two_cycle), 0, 2, 4)
        assert res.violation_found and res.witness == (1,)

    def test_single_loop_violation(self):
        m = ck.dense_model(ck.FiniteGraph(((1,),)))
        res = ck.essential_freeness_scan(m, 0, 1, 2)
        assert res.violation_found and res.witness == (1,)

    def test_against_brute_oracle(self):
        rng = random.Random(5)
        pool = [r for r in itertools.product((0, 1), repeat=3) if any(r)]
        for _ in range(20):
            g = ck.FiniteGraph(tuple(rng.choice(pool) for _ in range(3)))
            model = ck.dense_model(g)
            for m0, n0 in ((0, 1), (0, 2), (1, 2)):
                got = ck.essential_freeness_scan(model, m0, n0, 4)
                want = brute_freeness_scan(model, m0, n0, 4)
                assert (got.violation_found, got.witness) == want, (g.rows, m0, n0)

    def test_swapped_powers(self, two_cycle):
        m = ck.dense_model(two_cycle)
        a = ck.essential_freeness_scan(m, 2, 0, 4)
        b = ck.essential_freeness_scan(m, 0, 2, 4)
        assert (a.violation_found, a.witness) == (b.violation_found, b.witness)

    def test_depth_too_small(self, full2_model):
        with pytest.raises(ValidationError, match="depth"):
            ck.essential_freeness_scan(full2_model, 0, 3, 2)
        with pytest.raises(ValidationError, match="distinct"):
            ck.essential_freeness_scan(full2_model, 1, 1, 4)

    def test_dead_end_graph(self):
        # zero-row graphs: extensions that cannot reach full depth do not witness
        g = ck.FiniteGraph(((0, 1), (0, 0)))
        model = ck.validate_model(g, [ck.make_pattern(g, finite=(2,))])
        res = ck.essential_freeness_scan(model, 0, 1, 2)
        want = brute_freeness_scan(model, 0, 1, 2)
        assert (res.violation_found, res.witness) == want
