"""Batch command-line front end.

Every verb reads structured-text input, runs one analysis bundle, and
emits a deterministic report.  Exit codes: 0 = analysis completed with
every check passing, 1 = completed but some check failed or produced a
witness, 2 = input or usage error, or an internal error reported as one
``error: internal error:`` line.  JSON reports are written by ``_json``
exactly as ``json.dumps(report, sort_keys=True, indent=2)`` would write
them, and contain no floating point; text reports are line oriented.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import formats, graphs, pathspace, semigroup, sse
from .errors import ValidationError

DEPTH_DEFAULT = 6
MAX_PERIOD_DEFAULT = 6
ENTRY_BOUND_DEFAULT = 3
INNER_DIM_DEFAULT = 4
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
    key).  The stdlib encoder is pure Python whenever ``indent`` is set."""
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
    items = [_json(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(_json(report), file=out)
        return
    def lines(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                lines(f"{prefix}{k}.", value[k]) \
                    if isinstance(value[k], (dict, list)) else \
                    print(f"{prefix}{k}: {_scalar(value[k])}", file=out)
        elif isinstance(value, list):
            for idx, item in enumerate(value):
                if isinstance(item, (dict, list)):
                    lines(f"{prefix}{idx}.", item)
                else:
                    print(f"{prefix}{idx}: {_scalar(item)}", file=out)
        else:
            print(f"{prefix.rstrip('.')}: {_scalar(value)}", file=out)
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
        if isinstance(v.witness, graphs.Loop):
            out["witness"] = list(v.witness.vertices)
        elif isinstance(v.witness, tuple):
            out["witness"] = list(v.witness)
        else:
            out["witness"] = v.witness
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
    window = None
    if graphs.is_infinite(model.graph):
        window = args.depth * 4  # window-restricted partial enumeration
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
        "CK1": {"status": "pass" if rep.ck1.passed else "fail"},
        "CK2": {"status": "pass" if rep.ck2.passed else "fail"},
        "CK3": {"status": "pass" if rep.ck3.passed else "fail"},
        "CK4": {
            "status": "pass" if rep.ck4_passed else "fail",
            "checked": rep.ck4_checked,
            "not_finitely_supported": rep.ck4_not_finitely_supported,
        },
    }
    for name, check in (("CK1", rep.ck1), ("CK2", rep.ck2), ("CK3", rep.ck3)):
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
    results = []
    any_violation = False
    for n in range(1, FREENESS_POWER_BOUND + 1):
        for m in range(0, n):
            res = pathspace.essential_freeness_scan(model, m, n, args.depth)
            entry = {"m": m, "n": n, "violation": res.violation_found}
            if res.violation_found:
                any_violation = True
                entry["witness_cylinder"] = list(res.witness)
            results.append(entry)
    report = {"depth": args.depth, "pairs": results}
    return report, 1 if any_violation else 0


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
    else:
        A = formats.parse_matrix(obj.get("A") if isinstance(obj, dict) else obj,
                                 "input.A")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; ``parse_args``
    returns a fresh namespace on every call, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="ckshift",
        description="Exact analyses of one-sided Markov shifts and shift equivalences.")
    parser.add_argument("verb", choices=tuple(_HANDLERS))
    parser.add_argument("--input", required=True, help="input file (JSON)")
    parser.add_argument("--depth", type=int, default=DEPTH_DEFAULT)
    parser.add_argument("--max-period", type=int, default=MAX_PERIOD_DEFAULT,
                        dest="max_period")
    parser.add_argument("--entry-bound", type=int, default=ENTRY_BOUND_DEFAULT,
                        dest="entry_bound")
    parser.add_argument("--inner-dim", type=int, default=INNER_DIM_DEFAULT,
                        dest="inner_dim")
    parser.add_argument("--boundary", default="auto",
                        help='boundary family: "auto" or a JSON pattern list')
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        # exact counts print in full: ck-verify's 4^n pairs pass 4300 digits at n = 7144;
        # the caller's limit comes back when main returns
        sys.set_int_max_str_digits(0)
    try:
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
