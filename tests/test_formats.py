import pytest

import ckshift as ck
from ckshift import formats
from ckshift.errors import ValidationError


class TestGraphParsing:
    def test_finite(self):
        g = formats.parse_graph('{"type":"finite","rows":[[0,1],[1,0]]}')
        assert g == ck.FiniteGraph(((0, 1), (1, 0)))

    def test_block(self):
        g = formats.parse_graph('{"type":"block","classes":[{"card":"inf"}],"block":[[1]]}')
        assert g == ck.BlockPatternGraph((None,), ((1,),))

    def test_banded(self):
        g = formats.parse_graph(
            '{"type":"banded","prefix":[],"cutoff":0,"offsets":[1],"cross":[]}')
        assert g == ck.BandedTailGraph((), 0, (1,), ())

    def test_json_syntax_error_has_position(self):
        with pytest.raises(ValidationError, match="line 1, column"):
            formats.parse_graph('{"type": finite}')

    def test_missing_field_named(self):
        with pytest.raises(ValidationError, match="missing field 'rows'"):
            formats.parse_graph('{"type":"finite"}')

    def test_unknown_type(self):
        with pytest.raises(ValidationError, match="unknown graph type"):
            formats.parse_graph('{"type":"sparse"}')

    def test_bad_card(self):
        with pytest.raises(ValidationError, match="class 1 cardinality"):
            formats.parse_graph('{"type":"block","classes":[{"card":-2}],"block":[[1]]}')
        with pytest.raises(ValidationError, match=r"classes\[0\].card"):
            formats.parse_graph('{"type":"block","classes":[{"card":"big"}],"block":[[1]]}')

    def test_structural_invariant_surfaces(self):
        with pytest.raises(ValidationError, match="square"):
            formats.parse_graph('{"type":"finite","rows":[[0,1]]}')

    def test_unknown_field(self):
        # a field of another graph type, or a misspelt second copy, is refused
        for text, message in (
                ('{"type":"finite","rows":[[1]],"block":[[1]]}', "graph: unknown field 'block'"),
                ('{"type":"block","classes":[{"card":2},{"card":"inf"}],"block":[[1,1],[1,1]],'
                 '"blokc":[[0]]}', "graph: unknown field 'blokc'"),
                ('{"type":"block","classes":[{"card":2,"cardd":5}],"block":[[1]]}',
                 "graph.classes[0]: unknown field 'cardd'"),
                ('{"type":"banded","prefix":[],"cutoff":0,"offsets":[1],"cross":[],"rows":[]}',
                 "graph: unknown field 'rows'")):
            with pytest.raises(ValidationError) as info:
                formats.parse_graph(text)
            assert str(info.value) == message, text


class TestBoundaryParsing:
    def test_auto(self):
        g = formats.parse_graph('{"type":"banded","prefix":[],"cutoff":0,"offsets":[1],"cross":[]}')
        fam = formats.parse_boundary(g, "auto")
        assert fam == ck.cluster_patterns(g)

    def test_explicit_list(self):
        g = ck.FiniteGraph(((1, 1), (1, 1)))
        fam = formats.parse_boundary(g, [{"finite": [1, 2], "classes": []}])
        assert fam == frozenset({ck.make_pattern(g, finite=(1, 2))})

    def test_from_json_text(self):
        g = ck.FiniteGraph(((1, 1), (1, 1)))
        fam = formats.parse_boundary(g, '[{"finite": [1]}]')
        assert fam == frozenset({ck.make_pattern(g, finite=(1,))})

    def test_bad_entry(self):
        g = ck.FiniteGraph(((1, 1), (1, 1)))
        with pytest.raises(ValidationError, match=r"boundary\[0\]"):
            formats.parse_boundary(g, [17])

    def test_unknown_field(self):
        # a misspelt field is refused rather than read as the empty pattern
        g = ck.FiniteGraph(((1, 1), (1, 0)))
        with pytest.raises(ValidationError, match=r"^boundary\[0\]: unknown field 'finte'$"):
            formats.parse_boundary(g, '[{"finte": [1]}]')
        with pytest.raises(ValidationError, match=r"^boundary\[1\]: unknown field 'card'$"):
            formats.parse_boundary(g, [{"finite": [1]}, {"classes": [], "card": 1}])
        assert formats.parse_boundary(g, "[{}]") == frozenset({ck.make_pattern(g)})

    def test_model_roundtrip(self):
        model = formats.parse_model(
            '{"type":"finite","rows":[[1,1],[1,1]]}',
            [{"finite": [1, 2]}])
        assert not model.dense_domain


class TestCertificates:
    def test_single_pair(self):
        cert = formats.parse_certificate(
            '{"A":[[2]],"B":[[1,1],[1,1]],"R":[[1,1]],"S":[[1],[1]]}')
        assert cert.lag == 1 and not cert.is_chain
        assert cert.pairs == ((((1, 1),), ((1,), (1,))),)

    def test_chain(self):
        cert = formats.parse_certificate(
            '{"A":[[2]],"B":[[2]],"chain":[{"R":[[1,1]],"S":[[1],[1]]}]}')
        assert cert.is_chain and len(cert.pairs) == 1

    def test_bad_lag(self):
        with pytest.raises(ValidationError, match="lag"):
            formats.parse_certificate('{"A":[[2]],"B":[[2]],"R":[[2]],"S":[[1]],"lag":0}')

    def test_unknown_field(self):
        pair = '"A":[[2]],"B":[[2]],"R":[[2]],"S":[[2]]'
        chain = '"A":[[2]],"B":[[2]],"chain":[{"R":[[2]],"S":[[1]]}]'
        for text, message in (
                ("{%s,\"lagg\":2}" % pair, "certificate: unknown field 'lagg'"),
                ("{%s,\"lag\":2}" % chain, "certificate: unknown field 'lag'"),
                ("{%s,\"R\":[[2]]}" % chain, "certificate: unknown field 'R'"),
                ('{"A":[[2]],"B":[[2]],"chain":[{"R":[[2]],"S":[[1]],"lag":2}]}',
                 "certificate.chain[0]: unknown field 'lag'")):
            with pytest.raises(ValidationError) as info:
                formats.parse_certificate(text)
            assert str(info.value) == message, text
        assert formats.parse_certificate("{%s,\"lag\":2}" % pair).lag == 2

    def test_ragged_matrix_diagnostic(self):
        with pytest.raises(ValidationError, match="certificate.A"):
            formats.parse_certificate('{"A":[[2],[1,2]],"B":[[2]],"R":[[2]],"S":[[1]]}')
