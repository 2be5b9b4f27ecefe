import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckshift as ck
from ckshift.errors import UnsupportedPresentationError, ValidationError
from ckshift.formats import parse_graph
from ckshift.graphs import (is_infinite, loop_has_outgoing_edge, primitive_closed_walks,
                            walk_levels, words_of_length)
from ckshift.pathspace import full_point

from conftest import all_finite_graphs, is_primitive, walks

DATA = Path(__file__).parent / "data"


def brute_condition_l(g, max_len):
    """Oracle: enumerate loops directly and look for one without an exit."""
    for rec in ck.enumerate_loops(g, max_len):
        if len(set(rec.loop.base_word)) == rec.loop.length and not rec.has_outgoing_edge:
            return False
    return True


class TestNoZeroRows:
    def test_examples(self):
        assert ck.has_no_zero_rows(ck.FiniteGraph(((1, 1), (1, 0))))
        assert not ck.has_no_zero_rows(ck.FiniteGraph(((1, 1), (0, 0))))

    def test_ray_by_truncation_oracle(self, ray):
        # every tail row holds exactly the next vertex
        assert ck.has_no_zero_rows(ray)
        trunc = ray.truncate(ray.cutoff + 3)
        assert all(any(row) for row in trunc.rows[:-1])  # last row exits the window

    def test_offsetless_tail_has_zero_rows(self):
        g = ck.BandedTailGraph(((1,),), 1, (), ((),))
        assert not ck.has_no_zero_rows(g)

    def test_block(self, all_ones_infinite):
        assert ck.has_no_zero_rows(all_ones_infinite)
        assert not ck.has_no_zero_rows(ck.BlockPatternGraph((2, None), ((1, 1), (0, 0))))

    def test_zero_row_runs(self, ray):
        # one run per class of the class digraph, prefix vertex or tail
        assert ck.graphs.zero_rows(ck.FiniteGraph(((0, 0, 0), (1, 0, 1), (0, 0, 0)))) == \
            [(1, 1), (3, 1)]
        assert ck.graphs.zero_rows(ck.BlockPatternGraph((2, 3, None), ((0, 0, 0), (1, 1, 1),
                                                                    (0, 0, 0)))) == \
            [(1, 2), (6, None)]
        assert ck.graphs.zero_rows(ck.BandedTailGraph(((0, 0), (1, 0)), 2, (), ((), ()))) == \
            [(1, 1), (3, None)]
        assert ck.graphs.zero_rows(ck.BandedTailGraph(((0,),), 1, (1,), ((1,),))) == []
        assert ck.graphs.zero_rows(ray) == []

    def test_zero_row_runs_match_materialized_exhaustive(self):
        for g in block_patterns(max_classes=2):
            fin = g.materialize()
            bare = [v for v in fin.vertices() if not fin.succ[v - 1]]
            runs = ck.graphs.zero_rows(g)
            assert [v for start, card in runs for v in range(start, start + card)] == bare
            assert ck.has_no_zero_rows(g) == (not bare) == ck.has_no_zero_rows(fin)


class TestConditionL:
    def test_examples(self):
        assert ck.condition_l(ck.FiniteGraph(((1, 1), (1, 0)))).holds
        v = ck.condition_l(ck.FiniteGraph(((0, 1), (1, 0))))
        assert not v.holds and v.witness.vertices == (1, 2, 1)
        v = ck.condition_l(ck.FiniteGraph(((1,),)))
        assert not v.holds and v.witness.vertices == (1, 1)

    def test_matches_loop_enumeration_exhaustive_small(self):
        for size in (1, 2, 3):
            for g in all_finite_graphs(size, no_zero_rows_only=True):
                assert ck.condition_l(g).holds == brute_condition_l(g, 8), g.rows

    def test_matches_loop_enumeration_sampled_size4_depth8(self):
        rng = random.Random(7)
        pool = [r for r in itertools.product((0, 1), repeat=4) if any(r)]
        for _ in range(60):
            g = ck.FiniteGraph(tuple(rng.choice(pool) for _ in range(4)))
            assert ck.condition_l(g).holds == brute_condition_l(g, 8), g.rows

    def test_matches_loop_enumeration_exhaustive_size4(self):
        # simple loops in a 4-vertex graph never exceed length 4, so the
        # depth-4 enumeration decides the same predicate as any deeper one
        for g in all_finite_graphs(4, no_zero_rows_only=True):
            assert ck.condition_l(g).holds == brute_condition_l(g, 4), g.rows

    def test_witness_against_closure_oracle(self):
        # the witness is the loop through the least vertex v on a cycle whose
        # closure holds only out-degree-1 vertices, following v's successors
        for size in (1, 2, 3):
            for g in all_finite_graphs(size):
                closure = brute_reach(g)
                bad = [v for v in range(size) if closure[v][v]
                       and all(len(g.succ[u]) == 1 for u in range(size) if closure[v][u])]
                want = None
                if bad:
                    loop = [bad[0] + 1, g.succ[bad[0]][0]]
                    while loop[-1] != loop[0]:
                        loop.append(g.succ[loop[-1] - 1][0])
                    want = ck.Loop(tuple(loop))
                assert ck.condition_l(g) == ck.graphs.ConditionLVerdict(not bad, want), g.rows

    def test_witness_is_exit_free(self):
        for g in all_finite_graphs(3, no_zero_rows_only=True):
            v = ck.condition_l(g)
            if not v.holds:
                assert not loop_has_outgoing_edge(g, v.witness)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_monotone_under_adding_edges(self, n, data):
        rows = [data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
                for _ in range(n)]
        for r in rows:
            if not any(r):
                r[data.draw(st.integers(0, n - 1))] = 1
        g = ck.FiniteGraph(tuple(map(tuple, rows)))
        if not ck.condition_l(g).holds:
            return
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        rows[i] = list(rows[i])
        rows[i][j] = 1
        assert ck.condition_l(ck.FiniteGraph(tuple(map(tuple, rows)))).holds

    def test_infinite_cases(self, ray, all_ones_infinite):
        assert ck.condition_l(ray).holds  # no cycles at all
        assert ck.condition_l(all_ones_infinite).holds
        # an isolated singleton self-loop class fails (L)
        g = ck.BlockPatternGraph((1, None), ((1, 0), (1, 1)))
        v = ck.condition_l(g)
        assert not v.holds and v.witness.vertices == (1, 1)
        # a two-vertex class feeding a singleton self-loop class: the
        # feeder vertices have out-degree 1 but only the loop is exit-free
        g = ck.BlockPatternGraph((2, 1, None),
                                 ((0, 1, 0), (0, 1, 0), (0, 0, 1)))
        v = ck.condition_l(g)
        assert not v.holds and v.witness.vertices == (3, 3)
        # prefix 2-cycle with no exits, plus a disjoint tail
        g = ck.BandedTailGraph(((0, 1), (1, 0)), 2, (1,), ((0,), (0,)))
        v = ck.condition_l(g)
        assert not v.holds and v.witness.vertices == (1, 2, 1)


def brute_reach(g):
    """Oracle: positive transitive closure by boolean matrix powers."""
    n = g.size
    a = [[bool(g.rows[i][j]) for j in range(n)] for i in range(n)]
    closure = [row[:] for row in a]
    for _ in range(n):
        closure = [[closure[i][j] or any(closure[i][k] and a[k][j] for k in range(n))
                    for j in range(n)] for i in range(n)]
    return closure


def random_banded_tails(seed, count):
    """Seeded banded tails with prefixes of 0..4 vertices and 0..3 offsets
    below 5, with a wide window: it covers every cross edge and three more
    vertices than the window the predicates decide a banded tail on."""
    rng = random.Random(seed)
    for _ in range(count):
        cutoff = rng.randint(0, 4)
        offsets = tuple(sorted(rng.sample(range(1, 5), rng.randint(0, 3))))
        density = rng.random()
        prefix = tuple(tuple(int(rng.random() < density) for _ in range(cutoff))
                       for _ in range(cutoff))
        cross = tuple(tuple(rng.randint(0, 1) if i + o > cutoff else 0 for o in offsets)
                      for i in range(1, cutoff + 1))
        g = ck.BandedTailGraph(prefix, cutoff, offsets, cross)
        yield g, cutoff + 2 * max(offsets, default=0) + 5


class TestBandedConditionL:
    def test_against_truncation_oracle(self):
        # A loop without an exit is a cycle through v on which every vertex
        # that v reaches has out-degree 1.  Cycles live in the prefix, and
        # the window keeps every prefix vertex's out-degree.
        for g, window in random_banded_tails(13, 300):
            fin = g.truncate(window)
            closure = brute_reach(fin)
            forced = [sum(row) == 1 for row in fin.rows]
            bad = [v + 1 for v in range(window) if closure[v][v]
                   and all(forced[u] for u in range(window) if closure[v][u])]
            verdict = ck.condition_l(g)
            assert verdict.holds == (not bad), g
            if bad:
                loop = verdict.witness.vertices
                assert loop[0] == min(bad) and set(loop) <= set(bad), g
                assert not loop_has_outgoing_edge(g, verdict.witness), g


class TestIrreducible:
    def test_examples(self):
        assert ck.is_irreducible(ck.FiniteGraph(((1, 1), (1, 0))))
        assert not ck.is_irreducible(ck.FiniteGraph(((1, 0), (0, 1))))
        assert ck.is_irreducible(ck.FiniteGraph(((0, 1), (1, 0))))

    def test_against_closure_oracle(self):
        # the witness is the lexicographically first pair (i, j) with no path
        for size in (1, 2, 3):
            for g in all_finite_graphs(size):
                closure = brute_reach(g)
                want = next(((i + 1, j + 1) for i in range(size) for j in range(size)
                             if not closure[i][j]), None)
                assert ck.is_irreducible(g) == (want is None), g.rows
                assert ck.graphs.irreducible_with_witness(g) == (want is None, want), g.rows

    def test_banded_against_truncation_oracle(self):
        # paths below the window never leave it, so the first unjoined pair
        # of a wider truncation is the banded tail's witness
        for g, window in random_banded_tails(11, 300):
            closure = brute_reach(g.truncate(window))
            want = next((i + 1, j + 1) for i in range(window) for j in range(window)
                        if not closure[i][j])
            assert ck.graphs.irreducible_with_witness(g) == (False, want), g

    def test_infinite(self, ray, all_ones_infinite):
        assert ck.is_irreducible(all_ones_infinite)
        ok, witness = ck.graphs.irreducible_with_witness(ray)
        assert not ok and witness == (1, 1)  # the ray never returns


class TestReachesLoop:
    def test_examples(self):
        assert ck.every_vertex_reaches_loop(ck.FiniteGraph(((1, 1), (1, 0))))
        assert not ck.every_vertex_reaches_loop(ck.FiniteGraph(((0, 1), (0, 0))))
        assert ck.every_vertex_reaches_loop(ck.FiniteGraph(((0, 1), (1, 1))))

    def test_against_closure_oracle(self):
        # the witness is the least vertex that reaches no cycle
        for size in (1, 2, 3):
            for g in all_finite_graphs(size):
                closure = brute_reach(g)
                on_cycle = {i for i in range(size) if closure[i][i]}
                want = next((i + 1 for i in range(size) if i not in on_cycle
                             and not any(closure[i][j] for j in on_cycle)), None)
                assert ck.every_vertex_reaches_loop(g) == (want is None), g.rows
                assert ck.graphs.reaches_loop_with_witness(g) == (want is None, want), g.rows

    def test_infinite(self, ray, all_ones_infinite):
        assert ck.every_vertex_reaches_loop(all_ones_infinite)
        ok, witness = ck.graphs.reaches_loop_with_witness(ray)
        assert not ok and witness == 1  # first tail vertex

    def test_banded_prefix_witness(self):
        # vertex 1 has no loop and its only edge leads into the tail
        g = ck.BandedTailGraph(((0,),), 1, (1,), ((1,),))
        assert ck.graphs.reaches_loop_with_witness(g) == (False, 1)
        pi = ck.classify(g).purely_infinite
        assert pi.witness == 1 and pi.reason == "some vertex reaches no loop"

    def test_banded_against_truncation_oracle(self):
        # loops live in the prefix and the tail only moves outwards, so the
        # least vertex reaching no loop is the least such vertex of a wider
        # truncation
        for g, window in random_banded_tails(5, 300):
            closure = brute_reach(g.truncate(window))
            on_cycle = {i for i in range(window) if closure[i][i]}
            want = next(i + 1 for i in range(window) if i not in on_cycle
                        and not any(closure[i][j] for j in on_cycle))
            assert ck.graphs.reaches_loop_with_witness(g) == (False, want), g


class TestEnumerateLoops:
    def test_golden_mean(self):
        recs = ck.enumerate_loops(ck.FiniteGraph(((1, 1), (1, 0))), 2)
        assert [r.loop.vertices for r in recs] == [(1, 1), (1, 2, 1)]
        assert all(r.has_outgoing_edge for r in recs)

    def test_two_cycle(self, two_cycle):
        recs = ck.enumerate_loops(two_cycle, 2)
        assert [(r.loop.vertices, r.has_outgoing_edge) for r in recs] == [((1, 2, 1), False)]

    def test_single_self_loop(self):
        recs = ck.enumerate_loops(ck.FiniteGraph(((1,),)), 1)
        assert [(r.loop.vertices, r.has_outgoing_edge) for r in recs] == [((1, 1), False)]

    def test_zero_length(self, full2):
        assert ck.enumerate_loops(full2, 0) == []

    def test_rotation_dedup_and_primitivity(self, full2):
        recs = ck.enumerate_loops(full2, 2)
        words = [r.loop.base_word for r in recs]
        assert words == [(1,), (2,), (1, 2)]  # no (1,1) power, no (2,1) rotation

    def test_infinite_rejected(self, ray):
        with pytest.raises(UnsupportedPresentationError):
            ck.enumerate_loops(ray, 3)


class TestWalks:
    def test_preorder_is_lexicographic(self):
        # a word comes right before its extensions, so the generator's
        # order is plain tuple order over all admissible words
        for g in all_finite_graphs(3, no_zero_rows_only=True):
            got = [tuple(w) for w in walks(g.vertices(), lambda w: g.succ[w[-1] - 1], 4)]
            want = sorted(w for n in range(1, 5)
                          for w in itertools.product(g.vertices(), repeat=n)
                          if all(g.rows[a - 1][b - 1] for a, b in zip(w, w[1:])))
            assert got == want, g.rows

    def test_yields_one_buffer_and_no_recursion(self):
        depth = 20000  # far past the interpreter's recursion limit
        seen = {id(w) for w in walks((1,), lambda w: (1,), depth)}
        assert len(seen) == 1
        assert sum(1 for _ in walks((1,), lambda w: (1,), depth)) == depth
        assert list(walks((1,), lambda w: (1,), 0)) == []

    def test_is_primitive_against_rotations(self):
        # a word is a proper power iff it equals a nontrivial rotation of itself
        for n in range(1, 9):
            for w in itertools.product((1, 2), repeat=n):
                power = any(w[k:] + w[:k] == w for k in range(1, n))
                assert is_primitive(w) == (not power), w
                assert is_primitive(list(w)) == (not power), w

    def test_primitive_closed_walks_against_brute(self):
        # by length, then lexicographically
        for g in all_finite_graphs(3):
            want = [w for n in range(1, 5) for w in itertools.product(g.vertices(), repeat=n)
                    if all(g.rows[a - 1][b - 1] for a, b in zip(w, w[1:] + w[:1]))
                    and not any(w[k:] + w[:k] == w for k in range(1, len(w)))]
            assert list(primitive_closed_walks(g, 4)) == want, g.rows

    @staticmethod
    def filtered_closed_walks(g, max_len):
        """Every closed walk of the reference enumerator, each tested by
        ``is_primitive``, in (length, lexicographic) order."""
        found = [tuple(w) for w in walks(g.vertices(), lambda w: g.succ[w[-1] - 1], max_len)
                 if g.rows[w[-1] - 1][w[0] - 1] and is_primitive(w)]
        return sorted(found, key=lambda w: (len(w), w))

    def test_power_count_against_is_primitive(self):
        # the count of proper powers decides most lengths without a filter
        for size in (1, 2, 3):
            for g in all_finite_graphs(size):
                assert list(primitive_closed_walks(g, 8)) == \
                    self.filtered_closed_walks(g, 8), g.rows
        rng = random.Random(41)
        for n in (4, 4, 4, 5, 5, 5):
            for density in (0.3, 0.5, 0.7):
                g = ck.FiniteGraph(tuple(tuple(int(rng.random() < density) for _ in range(n))
                                         for _ in range(n)))
                assert list(primitive_closed_walks(g, 7)) == \
                    self.filtered_closed_walks(g, 7), g.rows


class TestLevels:
    """``walk_levels`` and ``words_of_length`` against the reference ``walks``."""

    @staticmethod
    def reference(starts, extend, max_len):
        by_length = [[] for _ in range(max_len)]
        for w in walks(starts, lambda w: extend(w[-1]), max_len):
            by_length[len(w) - 1].append(tuple(w))
        return by_length

    def check(self, starts, extend, max_len):
        want = self.reference(starts, extend, max_len)
        assert list(walk_levels(starts, extend, max_len)) == want
        for length in range(1, max_len + 1):
            assert words_of_length(starts, extend, length) == want[length - 1], length

    def test_every_small_graph(self):
        for size in (1, 2, 3):
            for g in all_finite_graphs(size):
                self.check(g.vertices(), lambda v: g.succ[v - 1], 6)

    def test_lazy_windows_of_infinite_graphs(self):
        block = ck.BlockPatternGraph((2, 1, None), ((0, 1, 1), (1, 0, 1), (0, 1, 1)))
        banded = ck.BandedTailGraph(((0, 1), (1, 1)), 2, (1, 3), ((0, 1), (1, 1)))
        for g in (block, banded):
            window = range(1, 8)
            asked = []

            def extend(v):
                asked.append(v)
                return [j for j in window if g.edge(v, j)]

            self.check(window, extend, 6)
            for enumerate_words in (lambda: list(walk_levels(window, extend, 6)),
                                    lambda: words_of_length(window, extend, 6)):
                asked.clear()
                enumerate_words()
                assert sorted(asked) == sorted(set(asked))  # one row per letter

    def test_empty_and_dead_ends(self):
        assert list(walk_levels((1, 2), lambda v: (), 3)) == [[(1,), (2,)], [], []]
        assert list(walk_levels((1,), lambda v: (1,), 0)) == []
        for length in (-1, 0):
            assert words_of_length((1,), lambda v: (1,), length) == []
        assert words_of_length((), lambda v: (1,), 5) == []

    def test_long_chain_is_linear(self):
        length = 20000  # far past the interpreter's recursion limit
        start = time.perf_counter()
        (word,) = words_of_length((1,), lambda v: (1,), length)
        assert time.perf_counter() - start < 1.0
        assert word == (1,) * length


class TestCompiledAdjacency:
    def test_against_rows(self):
        for g in all_finite_graphs(3):
            for v in g.vertices():
                assert g.successors(v) == tuple(j for j in g.vertices() if g.rows[v - 1][j - 1])
                assert g.pred[v - 1] == tuple(i for i in g.vertices() if g.rows[i - 1][v - 1])
                assert g.out_degree(v) == sum(g.rows[v - 1])

    def test_not_part_of_equality(self):
        g = ck.FiniteGraph(((0, 1), (1, 1)))
        assert g == ck.FiniteGraph(((0, 1), (1, 1))) and hash(g) == hash(ck.FiniteGraph(g.rows))
        assert repr(g) == "FiniteGraph(rows=((0, 1), (1, 1)))"

    def test_block_materialized_once(self):
        g = ck.BlockPatternGraph((2, 3), ((0, 1), (1, 1)))
        fin = g.materialize()
        assert g.materialize() is fin and ck.finite_form(g) is fin
        assert g == ck.BlockPatternGraph((2, 3), ((0, 1), (1, 1)))

    def test_materialize_against_edges(self):
        for g in block_patterns(max_classes=2):
            n = g.total_size()
            assert g.materialize().rows == tuple(
                tuple(int(g.edge(i, j)) for j in range(1, n + 1)) for i in range(1, n + 1))


def block_patterns(max_classes=3, max_card=3):
    """Every finite block pattern with 1..max_classes classes of card 1..max_card."""
    for k in range(1, max_classes + 1):
        for sizes in itertools.product(range(1, max_card + 1), repeat=k):
            for bits in itertools.product((0, 1), repeat=k * k):
                yield ck.BlockPatternGraph(sizes, tuple(bits[r * k:(r + 1) * k]
                                                        for r in range(k)))


class TestBlockPatternsOnClasses:
    def test_class_digraph_matches_materialized_exhaustive(self):
        # materialize() is the reference: the vertex-level predicates on the
        # explicit matrix, witnesses included
        count = 0
        for g in block_patterns():
            fin = g.materialize()
            assert ck.classify(g) == ck.classify(fin), (g.class_sizes, g.block)
            assert not is_infinite(g)
            assert ck.cluster_patterns(g) == frozenset()
            assert ck.full_pattern(g) == ck.full_pattern(fin)
            count += 1
        assert count == 13974

    def test_vertex_maps_match_materialized_exhaustive(self):
        # the compiled class starts and class digraph against the explicit
        # matrix: per-vertex maps, and validate_model's verdict and message
        def model_error(h):
            try:
                ck.validate_model(h, ())
            except ValidationError as exc:
                return str(exc)
            return None

        for g in block_patterns():
            fin = g.materialize()
            owner = [c for c, card in enumerate(g.class_sizes, start=1) for _ in range(card)]
            for v in fin.vertices():
                assert g.successors(v) == fin.successors(v), (g.class_sizes, g.block, v)
                assert g.out_degree(v) == fin.out_degree(v), (g.class_sizes, g.block, v)
                assert g.class_of(v) == owner[v - 1], (g.class_sizes, g.block, v)
            with pytest.raises(ValidationError, match="exceeds the finite vertex range"):
                g.class_of(fin.size + 1)
            assert model_error(g) == model_error(fin), (g.class_sizes, g.block)

    def test_patterns_checked_against_vertex_count(self):
        g = ck.BlockPatternGraph((2, 3), ((0, 1), (1, 1)))
        assert ck.make_pattern(g, classes=(2,)) == ck.make_pattern(g, finite=(3, 4, 5))
        with pytest.raises(ValidationError, match="exceeds graph size 5"):
            ck.make_pattern(g, finite=(6,))

    def test_pattern_rejects_bool_ids(self):
        # True == 1, but neither a vertex nor a class id is a bool
        g = ck.BlockPatternGraph((2, None), ((1, 1), (1, 1)))
        with pytest.raises(ValidationError, match="^unknown class id True$"):
            ck.make_pattern(g, classes=(True, 2))
        with pytest.raises(ValidationError, match="^pattern vertices are positive integers, got True$"):
            ck.make_pattern(g, finite=(True,))

    def test_huge_class_needs_no_matrix(self):
        g = ck.BlockPatternGraph((10 ** 9, 2), ((1, 1), (0, 1)))
        rep = ck.classify(g)
        assert rep.condition_l.holds and not rep.irreducible
        assert rep.irreducible_witness == (10 ** 9 + 1, 1)
        assert ck.cluster_patterns(g) == frozenset()
        assert g._finite is None


class TestClassify:
    def test_golden_mean(self, golden_mean):
        rep = ck.classify(golden_mean)
        assert rep.simple.met and rep.purely_infinite.met

    def test_two_cycle_witness(self, two_cycle):
        rep = ck.classify(two_cycle)
        assert rep.simple.status == "criteria-failed"
        assert rep.purely_infinite.status == "criteria-failed"
        assert rep.simple.witness.vertices == (1, 2, 1)

    def test_full_shift(self, full2):
        rep = ck.classify(full2)
        assert rep.simple.met and rep.purely_infinite.met

    def test_zero_row_not_applicable(self):
        rep = ck.classify(ck.FiniteGraph(((0, 1), (0, 0))))
        assert not rep.no_zero_rows
        assert rep.simple.status == "not-applicable"
        assert rep.purely_infinite.status == "not-applicable"

    def test_permutation_equivariance(self):
        rng = random.Random(3)
        pool = [r for r in itertools.product((0, 1), repeat=3) if any(r)]
        for _ in range(40):
            rows = tuple(rng.choice(pool) for _ in range(3))
            g = ck.FiniteGraph(rows)
            perm = list(range(3))
            rng.shuffle(perm)
            prows = tuple(tuple(rows[perm[i]][perm[j]] for j in range(3))
                          for i in range(3))
            h = ck.FiniteGraph(prows)
            a, b = ck.classify(g), ck.classify(h)
            assert (a.condition_l.holds, a.irreducible, a.every_vertex_reaches_loop,
                    a.simple.status, a.purely_infinite.status) == \
                   (b.condition_l.holds, b.irreducible, b.every_vertex_reaches_loop,
                    b.simple.status, b.purely_infinite.status)

    def test_one_closure_per_call(self, monkeypatch, two_cycle, all_ones_infinite):
        # condition (L), irreducibility and loop reachability share one closure
        calls = []
        closure = ck.graphs._closure
        monkeypatch.setattr(ck.graphs, "_closure", lambda g: calls.append(g) or closure(g))
        far = parse_graph((DATA / "banded_far.json").read_text())
        for g in (two_cycle, all_ones_infinite, far):
            calls.clear()
            ck.classify(g)
            assert calls == [g]

    def test_agrees_with_the_predicates(self):
        for n in (1, 2, 3):
            for g in all_finite_graphs(n):
                rep = ck.classify(g)
                assert rep.condition_l == ck.condition_l(g)
                assert (rep.irreducible, rep.irreducible_witness) == \
                    ck.graphs.irreducible_with_witness(g)
                assert (rep.every_vertex_reaches_loop, rep.loop_witness) == \
                    ck.graphs.reaches_loop_with_witness(g)


class TestValidation:
    def test_nonsquare(self):
        with pytest.raises(ValidationError, match="square"):
            ck.FiniteGraph(((0, 1),))

    def test_non01(self):
        with pytest.raises(ValidationError, match="0 or 1"):
            ck.FiniteGraph(((2, 0), (0, 0)))

    def test_block_infinite_not_last(self):
        with pytest.raises(ValidationError, match="not last"):
            ck.BlockPatternGraph((None, 2), ((1, 1), (1, 1)))

    def test_block_shape(self):
        with pytest.raises(ValidationError, match="block"):
            ck.BlockPatternGraph((1, 2), ((1,),))

    def test_banded_cross_inside_prefix(self):
        with pytest.raises(ValidationError, match="inside the"):
            ck.BandedTailGraph(((0, 0), (0, 0)), 2, (1,), ((1,), (0,)))

    def test_banded_prefix_shape(self):
        with pytest.raises(ValidationError, match="prefix"):
            ck.BandedTailGraph(((0,),), 2, (1,), ((0,), (0,)))

    @pytest.mark.parametrize("cutoff", (True, False, -1, 1.0, "1", None))
    def test_banded_cutoff(self, cutoff):
        # a bool cutoff used to pass as 0 or 1, and -1 asked for a -1x-1 prefix
        prefix, cross = (((1,),), ((0,),)) if cutoff in (1, True) else ((), ())
        with pytest.raises(ValidationError, match="cutoff must be a nonnegative integer"):
            ck.BandedTailGraph(prefix, cutoff, (1,), cross)

    @pytest.mark.parametrize("window", (True, 1.0, "2", 0))
    def test_banded_truncate_window(self, window):
        # a bool window used to pass as 1
        with pytest.raises(ValidationError, match="window must be an integer"):
            ck.BandedTailGraph(((1,),), 1, (1,), ((1,),)).truncate(window)

    def test_banded_cross_columns_follow_distinct_sorted_offsets(self):
        g = ck.BandedTailGraph(((0,),), 1, (2, 1), ((1, 0),))
        assert g.succ == ((2,),)  # the first column is offset 1, not the listed 2
        with pytest.raises(ValidationError, match=r"cross must be 1x1 \(one column per "
                                                  r"distinct offset, in increasing order\)"):
            ck.BandedTailGraph(((0,),), 1, (1, 1), ((0, 0),))

    def test_banded_compiles_successors(self):
        g = ck.BandedTailGraph(((0, 1, 0), (1, 0, 1), (0, 0, 1)), 3, (2, 1),
                               ((0, 0), (0, 1), (1, 1)))
        assert g.succ == ((2,), (1, 3, 4), (3, 4, 5))
        assert [g.successors(v) for v in (1, 2, 3, 4)] == [(2,), (1, 3, 4), (3, 4, 5), (5, 6)]
        assert [j for j in range(1, 8) if g.edge(2, j)] == [1, 3, 4]
        # the compiled rows stay out of equality, hashing and repr
        h = ck.BandedTailGraph(g.prefix, 3, (1, 2), g.cross)
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
        assert "succ" not in repr(g)

    @pytest.mark.parametrize("v", (0, -3))
    def test_nonpositive_vertex_has_no_successors(self, v):
        # vertex 0 of a banded tail used to read the prefix's last row
        for g in (ck.FiniteGraph(((1, 1), (1, 0))),
                  ck.BlockPatternGraph((1, 1), ((1, 1), (1, 0))),
                  ck.BandedTailGraph(((1, 1), (1, 0)), 2, (1,), ((0,), (1,)))):
            with pytest.raises(ValidationError):
                g.successors(v)
            model = ck.dense_model(g)
            with pytest.raises(ValidationError):
                ck.pathspace.fiber(model, full_point((v,)), 0)

    @pytest.mark.parametrize("ask", (
        ck.graphs.zero_rows, ck.has_no_zero_rows, ck.condition_l,
        ck.graphs.irreducible_with_witness, ck.graphs.reaches_loop_with_witness,
        ck.cluster_patterns, lambda g: ck.graphs.ck4_support(g, (), ()),
        lambda g: ck.graphs.ck4_support(g, (1,), (2,))))
    def test_unknown_presentation(self, ask):
        with pytest.raises(ValidationError, match="unknown graph presentation str"):
            ask("not a graph")

    def test_empty(self):
        with pytest.raises(ValidationError, match="at least one vertex"):
            ck.FiniteGraph(())

    def test_vertex_range(self, full2):
        with pytest.raises(ValidationError, match="outside"):
            full2.edge(0, 1)
        with pytest.raises(ValidationError, match="outside"):
            full2.successors(3)

    def test_block_class_bookkeeping(self):
        g = ck.BlockPatternGraph((2, 1, None), ((0, 1, 0), (1, 0, 1), (0, 0, 1)))
        assert [g.class_of(v) for v in (1, 2, 3, 4, 99)] == [1, 1, 2, 3, 3]
        assert g.successors(1) == (3,)
        assert g.out_degree(4) is None
        assert g.starts == (1, 3, 4) and g.class_graph.succ == ((2,), (1, 3), (3,))
        with pytest.raises(UnsupportedPresentationError, match="infinitely many"):
            g.successors(3)
        # the compiled fields stay out of equality, hashing and repr
        h = ck.BlockPatternGraph((2, 1, None), g.block)
        assert g == h and hash(g) == hash(h)
        assert repr(g) == f"BlockPatternGraph(class_sizes=(2, 1, None), block={g.block!r})"
