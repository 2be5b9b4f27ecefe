"""Structured-text (JSON) input formats and the line-oriented dumps.

Graph files:
    {"type": "finite", "rows": [[0,1],[1,0]]}
    {"type": "block",  "classes": [{"card": 2}, {"card": "inf"}], "block": [[1,0],[1,1]]}
    {"type": "banded", "prefix": [], "cutoff": 0, "offsets": [1], "cross": []}

A banded ``cross`` has one column per distinct offset, in increasing order:
with offsets [2, 1], cross [[1, 0]] switches on the edge 1 -> 2.

Boundary families:
    "auto"                               (exactly the cluster patterns)
    [{"finite": [1,2], "classes": []}, ...]

Certificates:
    {"A": ..., "B": ..., "R": ..., "S": ..., "lag": k}
    {"A": ..., "B": ..., "chain": [{"R": ..., "S": ...}, ...]}

Malformed input is rejected with the offending field named, and so is a
field not listed above.  JSON syntax errors keep their line/column
diagnostics, and nesting too deep to decode is an input error like any other.
"""

from __future__ import annotations

import json

from .errors import ValidationError, short_repr
from .graphs import BandedTailGraph, BlockPatternGraph, FiniteGraph, GraphSpec
from .intmat import Matrix, as_matrix
from .pathspace import (BoundaryPattern, MarkovModel, cluster_patterns,
                        make_pattern, validate_model)
from .value import Value


def _fail(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}")


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValidationError("invalid JSON: nested too deeply to decode") from exc


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise _fail(path, f"missing field {key!r}")
    return obj[key]


def check_fields(obj: dict, fields: tuple[str, ...], path: str) -> None:
    if unknown := [key for key in obj if key not in fields]:
        raise _fail(path, f"unknown field {short_repr(unknown[0])}")


def _int_rows(value, path: str) -> list[list[int]]:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise _fail(path, "must be a list of rows")
    return value


def parse_graph(obj) -> GraphSpec:
    """Parse a graph object (already-decoded JSON or a JSON string)."""
    if isinstance(obj, str):
        obj = loads(obj)
    if not isinstance(obj, dict):
        raise _fail("graph", "must be a JSON object")
    kind = _require(obj, "type", "graph")
    if kind == "finite":
        check_fields(obj, ("type", "rows"), "graph")
        rows = _int_rows(_require(obj, "rows", "graph"), "graph.rows")
        return FiniteGraph(tuple(map(tuple, rows)))
    if kind == "block":
        check_fields(obj, ("type", "classes", "block"), "graph")
        raw = _require(obj, "classes", "graph")
        if not isinstance(raw, list):
            raise _fail("graph.classes", "must be a list of {card: ...} objects")
        sizes = []
        for k, entry in enumerate(raw):
            path = f"graph.classes[{k}]"
            if not isinstance(entry, dict):
                raise _fail(path, "must be an object with a 'card' field")
            check_fields(entry, ("card",), path)
            card = _require(entry, "card", path)
            if card == "inf":
                sizes.append(None)
            elif isinstance(card, int) and not isinstance(card, bool):
                sizes.append(card)
            else:
                raise _fail(path + ".card",
                            f"must be a positive integer or 'inf', got {short_repr(card)}")
        block = _int_rows(_require(obj, "block", "graph"), "graph.block")
        return BlockPatternGraph(tuple(sizes), tuple(map(tuple, block)))
    if kind == "banded":
        check_fields(obj, ("type", "prefix", "cutoff", "offsets", "cross"), "graph")
        prefix = _int_rows(_require(obj, "prefix", "graph"), "graph.prefix")
        cutoff = _require(obj, "cutoff", "graph")
        if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
            raise _fail("graph.cutoff", f"must be a nonnegative integer, got {short_repr(cutoff)}")
        offsets = _require(obj, "offsets", "graph")
        if not isinstance(offsets, list):
            raise _fail("graph.offsets", "must be a list of positive integers")
        cross = _int_rows(_require(obj, "cross", "graph"), "graph.cross")
        return BandedTailGraph(tuple(map(tuple, prefix)), cutoff,
                               tuple(offsets), tuple(map(tuple, cross)))
    raise _fail("graph.type", f"unknown graph type {short_repr(kind)}")


def parse_boundary(g: GraphSpec, spec) -> frozenset[BoundaryPattern]:
    """Parse a boundary family fragment against a graph."""
    if isinstance(spec, str):
        if spec == "auto":
            return cluster_patterns(g)
        spec = loads(spec)
    if not isinstance(spec, list):
        raise _fail("boundary", "must be \"auto\" or a list of pattern objects")
    patterns = set()
    for k, entry in enumerate(spec):
        path = f"boundary[{k}]"
        if not isinstance(entry, dict):
            raise _fail(path, "must be an object with 'finite'/'classes' fields")
        check_fields(entry, ("finite", "classes"), path)
        finite = entry.get("finite", [])
        classes = entry.get("classes", [])
        if not isinstance(finite, list) or not isinstance(classes, list):
            raise _fail(path, "'finite' and 'classes' must be lists")
        patterns.add(make_pattern(g, finite=finite, classes=classes))
    return frozenset(patterns)


def parse_model(graph_obj, boundary_spec="auto") -> MarkovModel:
    g = parse_graph(graph_obj)
    return validate_model(g, parse_boundary(g, boundary_spec))


# ---------------------------------------------------------------------------
# Matrices and certificates

def parse_matrix(value, path: str = "matrix") -> Matrix:
    rows = _int_rows(value, path)
    try:
        return as_matrix(rows)
    except ValidationError as exc:
        raise _fail(path, str(exc)) from exc


class Certificate(Value):
    """A certificate that A and B are equivalent: one pair (R, S) of a
    lag-``lag`` shift equivalence, or, with ``lag`` None, the pairs of a
    strong chain."""

    __slots__ = ("A", "B", "pairs", "lag")

    @property
    def is_chain(self) -> bool:
        return self.lag is None


def parse_certificate(obj) -> Certificate:
    if isinstance(obj, str):
        obj = loads(obj)
    if not isinstance(obj, dict):
        raise _fail("certificate", "must be a JSON object")
    fields = ("A", "B", "chain") if "chain" in obj else ("A", "B", "R", "S", "lag")
    check_fields(obj, fields, "certificate")
    A = parse_matrix(_require(obj, "A", "certificate"), "certificate.A")
    B = parse_matrix(_require(obj, "B", "certificate"), "certificate.B")
    if "chain" in obj:
        raw = obj["chain"]
        if not isinstance(raw, list) or not raw:
            raise _fail("certificate.chain", "must be a nonempty list of {R,S} objects")
        pairs = []
        for k, entry in enumerate(raw):
            path = f"certificate.chain[{k}]"
            if not isinstance(entry, dict):
                raise _fail(path, "must be an object with 'R' and 'S'")
            check_fields(entry, ("R", "S"), path)
            pairs.append((parse_matrix(_require(entry, "R", path), path + ".R"),
                          parse_matrix(_require(entry, "S", path), path + ".S")))
        return Certificate(A, B, tuple(pairs), None)
    R = parse_matrix(_require(obj, "R", "certificate"), "certificate.R")
    S = parse_matrix(_require(obj, "S", "certificate"), "certificate.S")
    lag = obj.get("lag", 1)
    if not isinstance(lag, int) or isinstance(lag, bool) or lag < 1:
        raise _fail("certificate.lag", f"must be a positive integer, got {short_repr(lag)}")
    return Certificate(A, B, ((R, S),), lag)


def matrix_to_json(m: Matrix) -> list[list[int]]:
    return [list(row) for row in m]
