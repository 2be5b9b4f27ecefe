"""The value-type contract: every immutable result and model class is
built from its fields, compared and hashed by them alone, shown by them,
and closed to mutation."""

import copy
import inspect
import pickle

import pytest

import ckshift as ck
from ckshift import clopen, formats, graphs, intmat, pathspace, semigroup, sse
from ckshift.errors import ValidationError
from ckshift.value import Value

MODULES = (graphs, pathspace, clopen, semigroup, intmat, sse, formats)
VALUE_CLASSES = sorted((obj for m in MODULES for obj in vars(m).values()
                        if isinstance(obj, type) and issubclass(obj, Value)
                        and obj.__module__ == m.__name__), key=lambda c: c.__name__)

# the slots derived at construction, which stay out of ==, hash and repr
DERIVED = {
    "FiniteGraph": ("succ", "pred"),
    "BlockPatternGraph": ("starts", "class_graph", "_finite"),
    "BandedTailGraph": ("succ",),
    "BoundaryPattern": ("_text",),
    "MarkovModel": ("_sorted",),
    "PeriodicScan": ("_dividing",),
    "ConjugacyPair": ("alpha_inv", "beta_inv"),
}

# the constructor defaults
DEFAULTS = {
    "ConditionLVerdict": {"witness": None},
    "Verdict": {"witness": None, "reason": ""},
    "SpectrumPoint": {"boundary": None},
    "FreenessScanResult": {"witness": None},
    "Ck4Result": {"witness": None, "support": None},
    "RelationCheck": {"witness": None},
    "PositivityVerdict": {"power": None},
}


def samples() -> dict:
    """One valid keyword-argument set per class, every parameter named in
    constructor order."""
    g = ck.FiniteGraph(((1, 1), (1, 0)))
    model = ck.dense_model(g)
    pat = ck.make_pattern(g, finite=(1,))
    pt = ck.full_point((1, 2))
    loop = ck.Loop((1, 2, 1))
    met = ck.Verdict("criteria-met")
    A, R, S = ((2,),), ((1,),), ((2,),)
    pair = ck.build_conjugacy(R, S, A, A)
    return {
        "FiniteGraph": dict(rows=((1, 1), (1, 0))),
        "BlockPatternGraph": dict(class_sizes=(2, None), block=((1, 0), (1, 1))),
        "BandedTailGraph": dict(prefix=((0,),), cutoff=1, offsets=(1,), cross=((1,),)),
        "Loop": dict(vertices=(1, 2, 1)),
        "LoopRecord": dict(loop=loop, has_outgoing_edge=True),
        "ConditionLVerdict": dict(holds=False, witness=loop),
        "Verdict": dict(status="criteria-failed", witness=(1, 2), reason="not irreducible"),
        "ClassificationReport": dict(
            no_zero_rows=True, condition_l=ck.ConditionLVerdict(True), irreducible=True,
            irreducible_witness=None, every_vertex_reaches_loop=True, loop_witness=None,
            simple=met, purely_infinite=met),
        "BoundaryPattern": dict(finite=frozenset({1}), classes=frozenset()),
        "MarkovModel": dict(graph=g, boundary=frozenset({pat}), dense_domain=False),
        "SpectrumPoint": dict(word=(1,), boundary=pat),
        "SpectrumSlice": dict(points=(pt,), partial=False),
        "PeriodicPointRecord": dict(preperiod=1, period=2, prefix=(2,), loop=loop,
                                    isolated=False),
        "PeriodicScan": dict(records=(), max_period=2, max_preperiod=0),
        "FreenessScanResult": dict(violation_found=True, witness=(1, 2)),
        "ClopenSet": dict(model=model, level=1, members=frozenset({pt})),
        "Ck4Result": dict(status="fails", witness=pt, support=frozenset({1})),
        "Monomial": dict(model=model, alpha=(1,), h=ck.follower_set(model, 1), beta=()),
        "PartialInjection": dict(src_level=1, dst_level=1, pairs=frozenset({(pt, pt)})),
        "RelationCheck": dict(name="CK2", passed=False, witness=(1, 1)),
        "Ck4Failure": dict(E=(1,), F=(), witness=pt),
        "CkReport": dict(ck1=ck.semigroup.RelationCheck("CK1", True),
                         ck2=ck.semigroup.RelationCheck("CK2", True),
                         ck3=ck.semigroup.RelationCheck("CK3", True), ck4_failed=0,
                         ck4_first_failure=None, ck4_checked=16,
                         ck4_not_finitely_supported=0),
        "BowenFranks": dict(factors=(1,), determinant=-1),
        "InvariantComparison": dict(bf_factors_equal=True, det_equal=True,
                                    charpoly_equal=False),
        "ConjugacyPair": dict(A=A, B=A, R=R, S=S, alpha=pair.alpha, beta=pair.beta),
        "DimGroupElement": dict(matrix=A, vector=(1,), level=0),
        "PositivityVerdict": dict(status="positive", power=1),
        "SmithForm": dict(factors=(1, 2), U=((0, 1), (1, 0)), V=((0, 1), (1, 0)),
                          D=((1, 0), (0, 2))),
        "Certificate": dict(A=A, B=A, pairs=((R, S),), lag=1),
    }


def test_every_value_class_has_a_sample():
    assert sorted(samples()) == [cls.__name__ for cls in VALUE_CLASSES]


@pytest.fixture(params=VALUE_CLASSES, ids=lambda cls: cls.__name__)
def case(request):
    cls = request.param
    return cls, samples()[cls.__name__]


def hashable(kwargs) -> bool:
    try:
        hash(tuple(kwargs.values()))
    except TypeError:
        return False
    return True


def test_signature_and_defaults(case):
    cls, kwargs = case
    params = inspect.signature(cls).parameters
    assert list(params) == list(kwargs)
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls.__name__, {})
    assert cls(*kwargs.values()) == cls(**kwargs)


def test_equal_fields_are_equal_and_hash_alike(case):
    cls, kwargs = case
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    fields = tuple(getattr(a, name) for name in kwargs)
    if hashable(kwargs):
        assert hash(a) == hash(b) == hash(fields)
    else:  # a dict field is unhashable
        with pytest.raises(TypeError):
            hash(a)


def test_derived_slots_stay_out_of_eq_hash_and_repr(case):
    cls, kwargs = case
    a, b = cls(**kwargs), cls(**kwargs)
    derived = DERIVED.get(cls.__name__, ())
    assert set(cls.__slots__) == set(kwargs) | set(derived)
    for name in derived:
        object.__setattr__(b, name, "tampered")
    assert a == b and repr(a) == repr(b)
    if hashable(kwargs):
        assert hash(a) == hash(b)


def test_repr_shows_the_fields(case):
    cls, kwargs = case
    a = cls(**kwargs)
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in kwargs)
    assert repr(a) == f"{cls.__name__}({shown})"


def test_other_classes_are_unequal(case):
    cls, kwargs = case
    twin = type(cls.__name__, (cls,), {"__slots__": ()})
    a, b = cls(**kwargs), twin(**kwargs)
    assert a != b and b != a
    assert a.__eq__(b) is NotImplemented
    assert a.__eq__(tuple(kwargs.values())) is NotImplemented


def test_immutable_and_slotted(case):
    cls, kwargs = case
    a = cls(**kwargs)
    for name in (*kwargs, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert not hasattr(a, "__dict__")


def test_copy_and_pickle_round_trip(case):
    cls, kwargs = case
    a = cls(**kwargs)
    for back in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(back) is cls and back == a


@pytest.mark.parametrize("build, match", [
    (lambda: ck.Loop((1, 2)), "closed word"),
    (lambda: ck.FiniteGraph(((0, 1),)), "square"),
    (lambda: ck.FiniteGraph(((0, 2), (1, 1))), "must be 0 or 1"),
    (lambda: ck.BlockPatternGraph((None, 1), ((1, 1), (1, 1))), "infinite but not last"),
    (lambda: ck.BlockPatternGraph((True,), ((1,),)), "positive integer"),
    (lambda: ck.BandedTailGraph((), 0, (0,), ()), "positive integers"),
    (lambda: ck.BandedTailGraph(((0, 0), (0, 0)), 2, (1,), ((1,), (0,))), "inside the prefix"),
    (lambda: ck.PartialInjection(0, 0, frozenset({((1,), (2,)), ((1,), (3,))})),
     "partial injection"),
])
def test_constructor_validation(build, match):
    with pytest.raises(ValidationError, match=match):
        build()


def test_empty_injection_lands_at_its_source_level():
    assert ck.PartialInjection(2, 5, frozenset()).dst_level == 2


def test_subclasses_keep_the_validating_constructor():
    # a bare subclass inherits its base's checks and derived slots, not a
    # constructor written from the fields
    graph = type("Graph", (ck.FiniteGraph,), {"__slots__": ()})
    with pytest.raises(ValidationError, match="square"):
        graph(((0, 1),))
    model = type("Model", (ck.MarkovModel,), {"__slots__": ()})
    g = ck.FiniteGraph(((1, 1), (1, 0)))
    pats = frozenset({ck.make_pattern(g, finite=(2,)), ck.make_pattern(g, finite=(1,))})
    assert model(g, pats, False).boundary_sorted() == ck.MarkovModel(g, pats, False)._sorted
    assert len(model(g, pats, False).boundary_sorted()) == 2
