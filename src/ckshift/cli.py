"""Batch command-line front end.

``ckshift VERB --input FILE [flags]``: one verb of ``_HANDLERS``, in any
position, and each flag of ``_FLAGS`` as ``--flag value`` or ``--flag=value``,
never abbreviated, the last occurrence winning; a separate value that starts
with "-" must be a negative number.  ``-h`` or ``--help`` prints ``USAGE``.

Every verb reads structured-text input, runs one analysis bundle, and
emits a deterministic report.  Exit codes: 0 = analysis completed with
every check passing, 1 = completed but some check failed or produced a
witness, 2 = input or usage error, or an internal error, each reported as
one ``error:`` line.  JSON reports are written by ``_json`` exactly as
``json.dumps(report, sort_keys=True, indent=2)`` would write them, and
contain no floating point; text reports are line oriented.
"""

from __future__ import annotations

import os
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Optional

from . import formats, graphs, pathspace, semigroup, sse
from .errors import ValidationError, short_repr

FREENESS_POWER_BOUND = 3  # scan all shift-power pairs m < n <= this


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return formats.loads(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _json(value, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for the
    six types a report holds: dicts with str keys, lists, str, int, bool and
    None.  Any other type raises ``TypeError`` rather than print something
    ``json.dumps`` would have printed differently (a tuple, a float, an int
    key).  The stdlib encoder is pure Python whenever ``indent`` is set, so
    this one writes lists in bulk where their items allow (``_items``)."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is not dict and kind is not list:
        raise TypeError(f"a report cannot hold a {kind.__name__}")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    if kind is dict:
        if set(map(type, value)) != {str}:
            raise TypeError("report keys must be str")
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return "[" + inner + ("," + inner).join(_items(value, inner)) + newline + "]"


def _items(values: list, newline: str):
    """The JSON texts of a nonempty list's items, to follow ``newline``: one
    ``map`` if all are str or all int (not bool), one ``%d`` format per
    length if all are nonempty lists of ints (not bools), ``_records`` for
    two or more dicts with one key set, else ``_json`` on each (a float or
    tuple raises)."""
    kind = type(values[0])
    for v in values:
        if type(v) is not kind:
            break
    else:
        if kind is str:
            return map(encode_basestring_ascii, values)
        if kind is int:
            return map(int.__repr__, values)
        if kind is list and all(values) and set(map(type, chain.from_iterable(values))) == {int}:
            inner = newline + "  "
            text = {k: "[" + inner + ("," + inner).join(["%d"] * k) + newline + "]"
                    for k in set(map(len, values))}
            return [text[len(v)] % tuple(v) for v in values]
        keys = values[0].keys() if kind is dict and len(values) > 1 else None
        if keys and all(map(keys.__eq__, map(dict.keys, values))):
            return _records(values, newline)
    return [_json(v, newline) for v in values]


def _records(values: list, newline: str) -> list:
    """Dicts with one nonempty key set: keys sorted and encoded once, and each
    key's values across the records written as one list's items."""
    if set(map(type, values[0])) != {str}:
        raise TypeError("report keys must be str")
    keys = sorted(values[0])
    field = newline + "  "
    heads = [("," if i else "{") + field + encode_basestring_ascii(k) + ": "
             for i, k in enumerate(keys)]
    columns = [_items([record[k] for record in values], field) for k in keys]
    return ["".join(map(str.__add__, heads, row)) + newline + "}" for row in zip(*columns)]


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(_json(report), file=out)
        return
    def lines(prefix: str, value) -> None:
        for key, item in sorted(value.items()) if isinstance(value, dict) else enumerate(value):
            if isinstance(item, (dict, list)):
                lines(f"{prefix}{key}.", item)
            else:
                print(f"{prefix}{key}: {_scalar(item)}", file=out)
    lines("", report)


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def _verdict_json(v: graphs.Verdict) -> dict:
    out = {"status": v.status}
    if v.reason:
        out["reason"] = v.reason
    if v.witness is not None:
        w = v.witness.vertices if isinstance(v.witness, graphs.Loop) else v.witness
        out["witness"] = list(w) if isinstance(w, tuple) else w
    return out


def _model_from_args(args) -> pathspace.MarkovModel:
    return formats.parse_model(_read_json(args.input), args.boundary)


# ---------------------------------------------------------------------------
# Verb handlers: each returns (report dict, exit code)

def _run_classify(args):
    g = formats.parse_graph(_read_json(args.input))
    rep = graphs.classify(g)
    report = {
        "no_zero_rows": rep.no_zero_rows,
        "condition_L": {
            "holds": rep.condition_l.holds,
            **({"witness": list(rep.condition_l.witness.vertices)}
               if rep.condition_l.witness else {}),
        },
        "irreducible": rep.irreducible,
        "every_vertex_reaches_loop": rep.every_vertex_reaches_loop,
        "simple": _verdict_json(rep.simple),
        "purely_infinite": _verdict_json(rep.purely_infinite),
    }
    ok = (rep.no_zero_rows and rep.simple.met and rep.purely_infinite.met)
    return report, 0 if ok else 1


def _run_spectrum(args):
    model = _model_from_args(args)
    # an infinite graph gets a window-restricted partial enumeration
    window = args.depth * 4 if graphs.is_infinite(model.graph) else None
    sl = pathspace.spectrum_level(model, args.depth, window)
    report = {
        "level": args.depth,
        "partial": sl.partial,
        "count": len(sl.points),
        "points": [p.render() for p in sl.points],
    }
    return report, 0


def _run_ck_verify(args):
    model = _model_from_args(args)
    if graphs.is_infinite(model.graph):
        if args.depth < 1:
            raise ValidationError(
                f"--depth must be at least 1 on an infinite model, got {args.depth}")
        window = list(range(1, args.depth + 1))
        pairs = [((i,), ()) for i in window] + [((), (i,)) for i in window]
        rep = semigroup.verify_ck_relations(model, vertices=window, ck4_pairs=pairs)
    else:
        rep = semigroup.verify_ck_relations(model)
    report = {
        "dense_domain": model.dense_domain,
        "CK4": {
            "status": "pass" if rep.ck4_passed else "fail",
            "checked": rep.ck4_checked,
            "not_finitely_supported": rep.ck4_not_finitely_supported,
        },
    }
    for name, check in (("CK1", rep.ck1), ("CK2", rep.ck2), ("CK3", rep.ck3)):
        report[name] = {"status": "pass" if check.passed else "fail"}
        if not check.passed:
            report[name]["witness"] = list(check.witness)
    f = rep.ck4_first_failure
    if f is not None:
        report["CK4"]["witness"] = {
            "E": list(f.E), "F": list(f.F),
            "point": f.witness.pretty() if f.witness else None,
        }
    return report, 0 if rep.all_passed else 1


def _run_essential_freeness(args):
    model = _model_from_args(args)
    if args.depth < FREENESS_POWER_BOUND:
        raise ValidationError(f"--depth must be at least {FREENESS_POWER_BOUND}")
    results = []
    for n in range(1, FREENESS_POWER_BOUND + 1):
        for m in range(0, n):
            res = pathspace.essential_freeness_scan(model, m, n, args.depth)
            entry = {"m": m, "n": n, "violation": res.violation_found}
            if res.violation_found:
                entry["witness_cylinder"] = list(res.witness)
            results.append(entry)
    report = {"depth": args.depth, "pairs": results}
    return report, 1 if any(entry["violation"] for entry in results) else 0


def _run_periodic(args):
    model = _model_from_args(args)
    scan = pathspace.periodic_points(model, args.max_period, 0)
    records = [{
        "preperiod": r.preperiod,
        "period": r.period,
        "loop": list(r.loop.vertices),
        "isolated": r.isolated,
    } for r in scan.records]
    counts = {str(k): scan.strict_count_dividing(k)
              for k in range(1, args.max_period + 1)}
    report = {"max_period": args.max_period,
              "records": records,
              "strict_counts_dividing": counts}
    return report, 1 if any(r.isolated for r in scan.records) else 0


def _run_jset(args):
    g = formats.parse_graph(_read_json(args.input))
    fam = pathspace.cluster_patterns(g)
    empty_present = any(p.is_empty for p in fam)
    report = {
        "cluster_patterns": [p.render() for p in
                             sorted(fam, key=pathspace.BoundaryPattern.sort_key)],
        "empty_pattern_present": empty_present,
        "generated_algebra_unital": not empty_present,
    }
    return report, 0


def _run_sse_verify(args):
    cert = formats.parse_certificate(_read_json(args.input))
    if cert.is_chain:
        ok = sse.verify_strong_chain(cert.A, cert.B, cert.pairs)
        kind = "strong-chain"
    else:
        (R, S), = cert.pairs
        ok = sse.verify_shift_equivalence(cert.A, cert.B, R, S, cert.lag)
        kind = f"lag-{cert.lag}"
    return {"certificate": kind, "valid": ok}, 0 if ok else 1


def _run_sse_search(args):
    obj = _read_json(args.input)
    if not isinstance(obj, dict):
        raise ValidationError("input: must be a JSON object with 'A' and 'B'")
    A = formats.parse_matrix(obj.get("A"), "input.A")
    B = formats.parse_matrix(obj.get("B"), "input.B")
    formats.check_fields(obj, ("A", "B"), "input")
    found = sse.search_elementary(A, B, args.inner_dim, args.entry_bound)
    if found is None:
        return {"found": False}, 1
    R, S = found
    return {"found": True,
            "R": formats.matrix_to_json(R),
            "S": formats.matrix_to_json(S)}, 0


def _run_invariants(args):
    obj = _read_json(args.input)
    if isinstance(obj, dict) and "type" in obj:
        g = formats.parse_graph(obj)
        fin = graphs.finite_form(g)
        if fin is None:
            raise ValidationError("invariants need a finite matrix")
        A = fin.rows
    elif isinstance(obj, dict):
        A = formats.parse_matrix(obj.get("A"), "input.A")
        formats.check_fields(obj, ("A",), "input")
    else:
        A = formats.parse_matrix(obj, "input.A")
    bf = sse.bowen_franks(A)
    report = {
        "bowen_franks": list(bf.factors),
        "torsion": list(bf.torsion),
        "free_rank": bf.free_rank,
        "det": bf.determinant,
        "charpoly_nonzero_part": list(sse.charpoly_nonzero_part(A)),
    }
    return report, 0


def _run_conjugacy(args):
    cert = formats.parse_certificate(_read_json(args.input))
    if len(cert.pairs) != 1:
        raise ValidationError(
            f"conjugacy needs a one-step certificate; the chain has {len(cert.pairs)} steps")
    if cert.lag not in (None, 1):
        raise ValidationError(
            f"conjugacy needs an elementary (lag-1) certificate, got lag {cert.lag}")
    (R, S), = cert.pairs
    # a malformed pair raises here and exits 2, as in sse-verify
    if not sse.verify_elementary(cert.A, R, S, cert.B):
        return {"valid": False}, 1
    pair = sse.build_conjugacy(R, S, cert.A, cert.B)

    def table(mapping):
        return [{"edge": list(e), "first": list(p[0]), "second": list(p[1])}
                for e, p in sorted(mapping.items())]

    report = {"valid": True,
              "alpha": table(pair.alpha),
              "beta": table(pair.beta)}
    return report, 0


def _run_rn(args):
    model = _model_from_args(args)
    if graphs.is_infinite(model.graph):
        raise ValidationError("rn needs a finite graph")
    classes = semigroup.tail_partition(model, args.max_period, args.depth)
    report = {
        "shift_bound": args.max_period,
        "level": args.depth,
        "num_classes": len(classes),
        "classes": [[p.render() for p in cls] for cls in classes],
    }
    return report, 0


_HANDLERS = {
    "classify": _run_classify,
    "spectrum": _run_spectrum,
    "ck-verify": _run_ck_verify,
    "essential-freeness": _run_essential_freeness,
    "periodic": _run_periodic,
    "jset": _run_jset,
    "sse-verify": _run_sse_verify,
    "sse-search": _run_sse_search,
    "invariants": _run_invariants,
    "conjugacy": _run_conjugacy,
    "rn": _run_rn,
}


USAGE = ("usage: ckshift {" + ",".join(_HANDLERS) + "}\n"
         "  --input FILE [--depth N] [--max-period N] [--entry-bound N] [--inner-dim N]\n"
         "  [--boundary auto|JSON] [--format text|json]")
# flag: (attribute, default, conversion); --input alone has no default, as it is required
_FLAGS = {
    "--input": ("input", None, str),
    "--depth": ("depth", 6, int),
    "--max-period": ("max_period", 6, int),
    "--entry-bound": ("entry_bound", 3, int),
    "--inner-dim": ("inner_dim", 4, int),
    "--boundary": ("boundary", "auto", str),
    "--format": ("format", "text", {"text": "text", "json": "json"}.__getitem__),
}
# argparse's rule: a token that starts with "-" is a value only if it is a negative number
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The verb and flag values of ``argv``, read by the grammar in the module
    docstring; a usage error raises ``ValidationError`` naming the token."""
    values = {attr: default for attr, default, _ in _FLAGS.values()}
    verb = None
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag in _FLAGS:
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("-") and not _NEGATIVE_NUMBER(value):
                    raise ValidationError(f"{flag} needs a value")
            attr, _, convert = _FLAGS[flag]
            try:
                values[attr] = convert(value)
            except (KeyError, ValueError):
                raise ValidationError(f"{flag}: invalid value {short_repr(value)}") from None
        elif verb is None and token in _HANDLERS:
            verb = token
        else:
            problem = ("unknown option" if token.startswith("-") else
                       "unknown verb" if verb is None else "unexpected argument")
            raise ValidationError(f"{problem} {short_repr(token)}")
    if verb is None or values["input"] is None:
        raise ValidationError("missing verb" if verb is None else "--input is required")
    return SimpleNamespace(verb=verb, **values)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        args = parse_args(argv)  # under the caller's limit, so a flag cannot be 5000 digits
        if limit is not None:
            # exact counts print in full: ck-verify's 4^n pairs pass 4300 digits at n = 7144;
            # the caller's limit comes back when main returns
            sys.set_int_max_str_digits(0)
        report, code = _HANDLERS[args.verb](args)
        if args.verb == "spectrum" and args.format == "text":
            # spectrum dumps are line oriented: one point per line
            for key in ("level", "count", "partial"):
                print(f"{key}: {_scalar(report[key])}")
            for line in report["points"]:
                print(line)
        else:
            _emit(report, args.format, sys.stdout)
        sys.stdout.flush()
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early (`| head`): keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except Exception as exc:  # a fault of the program: one line, not a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
