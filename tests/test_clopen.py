import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckshift as ck
import ckshift.clopen as clopen
from ckshift.clopen import (make_clopen, members_at_level, prepend_word,
                            strip_word)
from ckshift.errors import UnsupportedPresentationError, ValidationError
from ckshift.pathspace import SpectrumPoint, full_point, truncated_point

from conftest import all_finite_graphs


class TestBaseSets:
    def test_full_shift_dense_v1_is_everything(self, full2_model):
        u1, v1 = ck.base_sets(full2_model, 1)
        u2, _ = ck.base_sets(full2_model, 2)
        assert u1.join(u2) == v1 == ck.full_space(full2_model)

    def test_toeplitz_v1_strictly_larger(self, toeplitz_model):
        u1, v1 = ck.base_sets(toeplitz_model, 1)
        u2, _ = ck.base_sets(toeplitz_model, 2)
        (pat,) = toeplitz_model.boundary
        assert truncated_point((), pat) in v1.members
        union = u1.join(u2)
        assert union.leq(v1) and union != v1

    def test_ray_v_is_next_cylinder(self, ray):
        m = ck.dense_model(ray)
        for i in (1, 4, 9):
            _, v = ck.base_sets(m, i)
            assert v == ck.vertex_cylinder(m, i + 1)

    def test_golden_mean_v2(self, golden_model):
        _, v2 = ck.base_sets(golden_model, 2)
        assert v2 == ck.vertex_cylinder(golden_model, 1)

    def test_unknown_vertex(self, full2_model):
        with pytest.raises(ValidationError):
            ck.base_sets(full2_model, 5)

    @pytest.mark.parametrize("half", (ck.vertex_cylinder, ck.follower_set))
    def test_each_half_checks_the_vertex(self, full2_model, half):
        for v in (0, 3, True, "1"):
            with pytest.raises(ValidationError, match=f"unknown or unusable vertex {v}"):
                half(full2_model, v)

    def test_block_cylinder_beside_an_infinite_row(self):
        # vertex 1 has infinitely many successors: U_1 is the level-0
        # cylinder, while V_1 is no finite member list
        m = ck.dense_model(ck.BlockPatternGraph((1, None), ((1, 1), (1, 1))))
        assert ck.vertex_cylinder(m, 1) == ck.cylinder(m, (1,))
        assert ck.vertex_cylinder(m, 1).serialize() == {"level": 0, "members": ["1"]}
        for half in (ck.follower_set, ck.base_sets):
            with pytest.raises(UnsupportedPresentationError):
                half(m, 1)


def random_clopen(model, rng, level=2):
    pts = list(ck.spectrum_level(model, level).points)
    chosen = [p for p in pts if rng.random() < 0.4]
    return make_clopen(model, level, chosen)


class TestBooleanOps:
    def test_meet_disjoint_first_letters(self, full2_model):
        u1 = ck.vertex_cylinder(full2_model, 1)
        u2 = ck.vertex_cylinder(full2_model, 2)
        assert u1.meet(u2).is_empty

    def test_complement_of_empty(self, toeplitz_model):
        assert ck.empty_clopen(toeplitz_model).complement() == \
            ck.full_space(toeplitz_model)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_lattice_laws(self, rng):
        g = ck.FiniteGraph(((1, 1), (1, 1)))
        model = ck.validate_model(g, [ck.make_pattern(g, finite=(1, 2))])
        a = random_clopen(model, rng)
        b = random_clopen(model, rng)
        c = random_clopen(model, rng)
        assert a.meet(b) == b.meet(a)
        assert a.join(b) == b.join(a)
        assert a.meet(b.join(c)) == a.meet(b).join(a.meet(c))
        assert a.join(b.meet(c)) == a.join(b).meet(a.join(c))
        # De Morgan
        assert a.meet(b).complement() == a.complement().join(b.complement())
        assert a.join(b).complement() == a.complement().meet(b.complement())
        assert a.complement().complement() == a
        assert a.difference(b) == a.meet(b.complement())
        assert a.meet(b).leq(a) and a.leq(a.join(b))

    def test_complement_against_difference_exhaustive(self):
        # every 3-vertex graph, dense where it can be and with the full
        # pattern: random sets at levels 0-2, canonical and raised
        rng = random.Random(3)
        for g in all_finite_graphs(3):
            for family in ((), (ck.full_pattern(g),)):
                try:
                    model = ck.validate_model(g, family)
                except ValidationError:
                    continue
                for level in (0, 1, 2):
                    cl = random_clopen(model, rng, level)
                    for a in (cl, ck.raise_level(cl, level + 1)):
                        assert a.complement() == \
                            ck.full_space(model, a.level).difference(a), (g.rows, family, a)

    def test_complement_on_infinite_graph(self, ray):
        u1 = ck.vertex_cylinder(ck.dense_model(ray), 1)
        with pytest.raises(UnsupportedPresentationError,
                           match="^the full space of an infinite graph is not a finite member list$"):
            u1.complement()

    def test_model_mismatch(self, full2_model, golden_model):
        with pytest.raises(ValidationError, match="different models"):
            ck.full_space(full2_model).meet(ck.full_space(golden_model))


class TestLevels:
    def test_raise_u1(self, full2_model):
        u1 = ck.vertex_cylinder(full2_model, 1)
        raised = ck.raise_level(u1, 1)
        assert raised.members == {full_point((1, 1)), full_point((1, 2))}

    def test_boundary_point_fixed(self, toeplitz_model):
        (pat,) = toeplitz_model.boundary
        single = make_clopen(toeplitz_model, 0, [truncated_point((), pat)])
        assert ck.raise_level(single, 3).members == {truncated_point((), pat)}

    def test_golden_u2_raised(self, golden_model):
        u2 = ck.vertex_cylinder(golden_model, 2)
        assert members_at_level(u2, 1) == {full_point((2, 1))}

    def test_canonical_minimal_level(self, toeplitz_model):
        # raising then canonicalizing returns the same object
        u1 = ck.vertex_cylinder(toeplitz_model, 1)
        again = make_clopen(toeplitz_model, 3, members_at_level(u1, 3))
        assert again == u1 and again.level == u1.level == 0

    def test_level_independence_of_ops(self, toeplitz_model):
        rng = random.Random(2)
        for _ in range(20):
            a = random_clopen(toeplitz_model, rng, level=1)
            b = random_clopen(toeplitz_model, rng, level=2)
            hi_a = make_clopen(toeplitz_model, 3, members_at_level(a, 3))
            hi_b = make_clopen(toeplitz_model, 3, members_at_level(b, 3))
            assert hi_a == a and hi_b == b
            assert hi_a.meet(hi_b) == a.meet(b)
            assert hi_a.join(hi_b) == a.join(b)

    def test_cannot_lower(self, full2_model):
        u1 = ck.vertex_cylinder(full2_model, 1)
        with pytest.raises(ValidationError):
            members_at_level(ck.raise_level(u1, 2), 1)


class TestMakeClopen:
    """``make_clopen`` is the one constructor that checks its members."""

    @staticmethod
    def golden(*family):
        g = ck.FiniteGraph(((1, 1), (1, 0)))
        return ck.validate_model(g, [ck.make_pattern(g, finite=J) for J in family])

    def test_rejects_inadmissible_truncated_word(self):
        model = self.golden((1, 2))
        (pat,) = model.boundary
        with pytest.raises(ValidationError, match=r"^2,2;\{1,2\} is not an admissible word$"):
            make_clopen(model, 3, [truncated_point((2, 2), pat)])
        assert make_clopen(model, 3, [truncated_point((1, 2), pat)]).leq(
            ck.full_space(model, 3))

    @pytest.mark.parametrize("family, level, word, cap, message", [
        ((1, 2), 0, (1, 2), None, "1,2 is not a level-0 point"),
        ((1, 2), 1, (2, 2), None, "2,2 is not an admissible word"),
        ((1, 2), 1, (0, 1), None, "0,1 is not an admissible word"),
        ((1, 2), 1, (1,), (1,), "1;{1} caps with a set outside the boundary family"),
        ((1,), 1, (2,), (1,), "2;{1} does not end inside its boundary set"),
    ])
    def test_rejects_invalid_member(self, family, level, word, cap, message):
        model = self.golden(family)
        g = model.graph
        point = full_point(word) if cap is None else \
            truncated_point(word, ck.make_pattern(g, finite=cap))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make_clopen(model, level, [point])


class TestWordSurgery:
    def test_prepend_strip_roundtrip(self, golden_model):
        v1 = ck.follower_set(golden_model, 1)
        lifted = prepend_word((1,), v1)
        assert lifted == ck.vertex_cylinder(golden_model, 1)
        assert strip_word((1,), lifted) == v1

    def test_strip_filters_prefix(self, full2_model):
        u12 = ck.cylinder(full2_model, (1, 2))
        assert strip_word((1,), u12) == ck.vertex_cylinder(full2_model, 2)
        assert strip_word((2,), u12).is_empty

    def test_prepend_respects_admissibility(self, golden_model):
        u2 = ck.vertex_cylinder(golden_model, 2)
        # 2 -> 2 is not admissible in the golden mean graph
        assert prepend_word((2,), u2).is_empty


def ck4_oracle(model):
    """CK4 on a finite model by the per-pair clopen computation: meet the
    follower sets and their complements, join the cylinders over the
    support, and take the least point of the symmetric difference.  The
    base sets are built once per model; the Boolean algebra runs per pair."""
    g = ck.finite_form(model.graph)
    full = ck.full_space(model)
    cylinder, follower = zip(*(ck.base_sets(model, i) for i in g.vertices()))

    def decide(E, F):
        support = frozenset(i for i in g.vertices()
                            if all(g.edge(j, i) for j in E)
                            and not any(g.edge(k, i) for k in F))
        lhs = full
        for j in sorted(E):
            lhs = lhs.meet(follower[j - 1])
        for k in sorted(F):
            lhs = lhs.meet(follower[k - 1].complement())
        rhs = ck.empty_clopen(model)
        for i in sorted(support):
            rhs = rhs.join(cylinder[i - 1])
        if lhs == rhs:
            return ck.Ck4Result("holds", support=support)
        n = max(lhs.level, rhs.level)
        diff = members_at_level(lhs, n) ^ members_at_level(rhs, n)
        return ck.Ck4Result("fails", witness=min(diff, key=SpectrumPoint.sort_key),
                            support=support)
    return decide


def vertex_subsets(n):
    return [c for r in range(n + 1)
            for c in itertools.combinations(range(1, n + 1), r)]


def valid_models(g, families):
    for family in families:
        try:
            yield ck.validate_model(g, [ck.make_pattern(g, finite=J) for J in family])
        except ValidationError:
            pass  # some vertex without an edge lies in no boundary set


def assert_matches_oracle(model):
    oracle = ck4_oracle(model)
    subsets = vertex_subsets(ck.finite_form(model.graph).size)
    for E in subsets:
        for F in subsets:
            expected = oracle(E, F)
            assert ck.ck4_identity(model, E, F) == expected, \
                (model.graph, model.boundary_sorted(), E, F)


class TestCk4Table:
    """The letter analysis against the per-pair clopen computation."""

    def test_every_small_graph_and_family(self):
        checked = 0
        for n in (1, 2):
            patterns = vertex_subsets(n)
            families = [fam for r in range(len(patterns) + 1)
                        for fam in itertools.combinations(patterns, r)]
            for g in all_finite_graphs(n):
                for model in valid_models(g, families):
                    assert_matches_oracle(model)
                    checked += 1
        assert checked == 232

    def test_every_three_vertex_graph(self):
        # one non-dense family per graph, cycling through four shapes
        shapes = ([(1, 2, 3)], [(1,), (2, 3)], [(), (1, 2, 3)], [(2,), (1, 3)])
        for k, g in enumerate(all_finite_graphs(3)):
            (model,) = valid_models(g, [shapes[k % 4]])
            assert_matches_oracle(model)

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=16, max_size=16),
           st.lists(st.frozensets(st.integers(1, 4)), min_size=0, max_size=3))
    def test_four_vertex_graphs(self, bits, family):
        g = ck.FiniteGraph(tuple(tuple(bits[4 * r:4 * r + 4]) for r in range(4)))
        # the drawn family, or the drawn family and the whole vertex set
        # when the drawn one leaves a vertex without a terminal path
        model = next(valid_models(g, [family, family + [frozenset({1, 2, 3, 4})]]))
        assert_matches_oracle(model)

    def test_finite_block_patterns_match_their_matrix(self):
        # decided on the classes, against the materialized matrix and the oracle
        for sizes in ((1,), (2,), (3,), (1, 2), (2, 1), (3, 1), (1, 1, 1)):
            k = len(sizes)
            # every block on one or two classes, one in seven on three
            for bits in itertools.islice(itertools.product((0, 1), repeat=k * k),
                                         0, None, 7 if k == 3 else 1):
                block = tuple(bits[r * k:r * k + k] for r in range(k))
                g = ck.BlockPatternGraph(sizes, block)
                n = g.total_size()
                for family in ([tuple(range(1, n + 1))], [(1,), tuple(range(2, n + 1))]):
                    model, flat = (ck.validate_model(h, [ck.make_pattern(h, finite=J)
                                                         for J in family])
                                   for h in (g, g.materialize()))
                    for E in vertex_subsets(n):
                        for F in vertex_subsets(n):
                            assert ck.ck4_identity(model, E, F) == \
                                ck.ck4_identity(flat, E, F), (sizes, block, family, E, F)
                    assert_matches_oracle(model)

    def test_pairs_reuse_the_models_family(self, toeplitz_model, monkeypatch):
        calls = []
        key, infinite = ck.BoundaryPattern.sort_key, clopen.is_infinite
        monkeypatch.setattr(ck.BoundaryPattern, "sort_key",
                            lambda pat: calls.append("sort_key") or key(pat))
        monkeypatch.setattr(clopen, "is_infinite",
                            lambda g: calls.append("infinite") or infinite(g))
        model = ck.validate_model(toeplitz_model.graph, toeplitz_model.boundary)
        calls.clear()
        results = [ck.ck4_identity(model, E, F)
                   for E in vertex_subsets(2) for F in vertex_subsets(2)]
        assert calls == [] and len(results) == 16
        assert model.boundary_sorted() is model.boundary_sorted()

    def test_rejects_bad_vertex(self, full2_model):
        with pytest.raises(ValidationError, match="outside"):
            ck.ck4_identity(full2_model, (3,), ())
        with pytest.raises(ValidationError, match="outside"):
            ck.ck4_identity(full2_model, (), (0,))


class TestCk4:
    def test_full_shift_dense_holds(self, full2_model):
        res = ck.ck4_identity(full2_model, (1,), ())
        assert res.holds and res.support == frozenset({1, 2})

    def test_toeplitz_fails_with_boundary_witness(self, toeplitz_model):
        res = ck.ck4_identity(toeplitz_model, (1,), ())
        (pat,) = toeplitz_model.boundary
        assert res.status == "fails"
        assert res.witness == truncated_point((), pat)

    def test_toeplitz_E_equals_I(self, toeplitz_model):
        res = ck.ck4_identity(toeplitz_model, (1, 2), ())
        (pat,) = toeplitz_model.boundary
        assert res.status == "fails" and res.witness == truncated_point((), pat)

    def test_all_ones_not_finitely_supported(self, all_ones_infinite):
        m = ck.dense_model(all_ones_infinite)
        assert ck.ck4_identity(m, (1,), ()).status == "not_finitely_supported"
        assert ck.ck4_identity(m, (), ()).status == "not_finitely_supported"

    def test_ray_finite_support(self, ray):
        m = ck.dense_model(ray)
        res = ck.ck4_identity(m, (3,), ())
        assert res.holds and res.support == frozenset({4})
        res = ck.ck4_identity(m, (), (3,))
        assert res.status == "not_finitely_supported"

    def test_ray_windowed_mixed_pairs(self, ray):
        m = ck.dense_model(ray)
        # nonempty E keeps the support finite whatever F adds
        res = ck.ck4_identity(m, (3,), (2,))
        assert res.holds and res.support == frozenset({4})
        res = ck.ck4_identity(m, (3,), (3,))
        assert res.holds and res.support == frozenset()  # overlapping E, F
        res = ck.ck4_identity(m, (2, 3), ())
        assert res.holds and res.support == frozenset()  # columns never share
        res = ck.ck4_identity(m, (3,), (4,))
        assert res.holds and res.support == frozenset({4})

    @pytest.mark.parametrize("E, F", [((0,), ()), ((2, 3), (0,)), ((), (0,)),
                                      ((1,), (0,))])
    def test_ray_rejects_bad_vertex(self, ray, E, F):
        # every vertex of E and F is checked before any row is read
        with pytest.raises(ValidationError, match="unknown vertex 0"):
            ck.ck4_identity(ck.dense_model(ray), E, F)

    def test_bool_vertex_rejected_on_every_presentation(self, full2_model, ray):
        # True == 1, but a vertex is never a bool
        models = [full2_model, ck.dense_model(ray),
                  ck.dense_model(ck.BlockPatternGraph((2, 1), ((1, 1), (1, 0)))),
                  ck.dense_model(ck.BlockPatternGraph((1, None), ((1, 1), (1, 1))))]
        for model in models:
            for E, F in (([True], []), ([], [True]), ([1, True], [2])):
                with pytest.raises(ValidationError,
                                   match="^unknown vertex True: outside the vertex set$"):
                    ck.ck4_identity(model, E, F)

    def test_banded_with_prefix_support(self):
        g = ck.BandedTailGraph(((1,),), 1, (2,), ((1,),))
        m = ck.dense_model(g)
        # vertex 1 feeds itself and, via the coupling, vertex 3
        res = ck.ck4_identity(m, (1,), ())
        assert res.holds and res.support == frozenset({1, 3})

    def test_dense_models_never_fail_exhaustive(self):
        for size in (1, 2, 3):
            for g in all_finite_graphs(size, no_zero_rows_only=True):
                model = ck.dense_model(g)
                verts = list(range(1, size + 1))
                subsets = [tuple(c) for r in range(size + 1)
                           for c in itertools.combinations(verts, r)]
                for E in subsets:
                    for F in subsets:
                        assert ck.ck4_identity(model, E, F).holds, (g.rows, E, F)

    def test_brute_membership_oracle(self, toeplitz_model):
        # recompute the combination pointwise at level 0 from the edges
        g = toeplitz_model.graph
        for E in ((), (1,), (2,), (1, 2)):
            for F in ((), (1,), (2,), (1, 2)):
                res = ck.ck4_identity(toeplitz_model, E, F)
                assert res.support is not None
                lhs = set()
                for p in ck.spectrum_level(toeplitz_model, 0).points:
                    if p.is_full:
                        inside = all(g.edge(j, p.word[0]) for j in E) and \
                            not any(g.edge(k, p.word[0]) for k in F)
                    else:
                        inside = all(p.boundary.contains(j, g) for j in E) and \
                            not any(p.boundary.contains(k, g) for k in F)
                    if inside:
                        lhs.add(p)
                rhs = {p for p in ck.spectrum_level(toeplitz_model, 0).points
                       if p.is_full and p.word[0] in res.support}
                assert res.holds == (lhs == rhs)


class TestSerialization:
    def test_clopen_json(self, toeplitz_model):
        _, v1 = ck.base_sets(toeplitz_model, 1)
        assert v1.serialize() == {"level": 0, "members": ["1", "2", ";{1,2}"]}

    def test_point_render(self, toeplitz_model):
        (pat,) = toeplitz_model.boundary
        assert full_point((1, 2)).render() == "1,2"
        assert truncated_point((1,), pat).render() == "1;{1,2}"
        assert truncated_point((), pat).pretty() == "(∅;{1,2})"
