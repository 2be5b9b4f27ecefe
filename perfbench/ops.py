"""How a worker parses a plan's inputs and runs its ops.

Every function takes the imported ``ckshift`` package as ``ck`` so that
importing this module costs nothing that ``setup_s`` should count.  A
library op is a pair: ``run`` does the work inside the op's timer and
``encode`` turns its result into JSON outside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

# A common level for grouping normal forms.  Every word has at most six
# letters, so every decision level in the workload is at most 7; fixing
# the level keeps the op's cost independent of which words a seed draws.
COMMON_LEVEL_FLOOR = 7


def parse_object(ck, spec: dict):
    fmt = ck.formats
    if spec["kind"] == "model":
        return fmt.parse_model(spec["graph"], spec["boundary"])
    if spec["kind"] == "matrix":
        return fmt.parse_matrix(spec["rows"])
    if spec["kind"] == "certificate":
        return fmt.parse_certificate(spec["cert"])
    raise ValueError(f"unknown object kind {spec['kind']!r}")


def parse_cli_input(ck, op: dict, text: str) -> None:
    """Parse and validate a CLI op's input file the way its verb will."""
    fmt = ck.formats
    obj = fmt.loads(text)
    verb = op["verb"]
    if verb in ("sse-verify", "conjugacy"):
        fmt.parse_certificate(obj)
    elif verb == "sse-search":
        fmt.parse_matrix(obj["A"], "input.A"), fmt.parse_matrix(obj["B"], "input.B")
    elif verb == "invariants" and "A" in obj:
        fmt.parse_matrix(obj["A"], "input.A")
    elif verb in ("classify", "jset", "invariants"):
        fmt.parse_graph(obj)
    else:
        args = op["args"]
        boundary = args[args.index("--boundary") + 1] if "--boundary" in args else "auto"
        g = fmt.parse_graph(obj)
        ck.validate_model(g, fmt.parse_boundary(g, boundary))


def setup(ck, plan: dict, workdir: str) -> dict:
    """Parse every input; returns the parsed library objects by name."""
    objects = {name: parse_object(ck, spec) for name, spec in plan["objects"].items()}
    for op in plan["ops"]:
        if "verb" in op:
            with open(os.path.join(workdir, op["input"]), encoding="utf-8") as fh:
                parse_cli_input(ck, op, fh.read())
    return objects


def run_cli(ck, op: dict, workdir: str):
    argv = [op["verb"], "--input", os.path.join(workdir, op["input"])] + op["args"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ck.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Library ops


def render_injection(inj) -> list[list[str]]:
    return sorted([s.render(), d.render()] for s, d in inj.pairs)


def monomial_key(nf) -> str:
    if nf.is_zero:
        return "0"
    return json.dumps([list(nf.alpha), list(nf.beta), nf.h.serialize()])


def run_word(ck, objects, state, op):
    model = objects[op["model"]]
    raw = ck.identity(model)
    for v, adjoint in op["word"]:
        f = ck.generator(model, v)
        raw = ck.compose(raw, ck.adjoint(f) if adjoint else f, normalized=False)
    nf = ck.normalize(raw)
    level = ck.decision_level(raw, nf)
    state.setdefault(op["model"], []).append(nf)
    return nf, level, ck.evaluate(raw, level), ck.evaluate(nf, level)


def encode_word(result):
    nf, level, raw_eval, nf_eval = result
    return {"nf": monomial_key(nf), "level": level,
            "raw_eval": render_injection(raw_eval), "nf_eval": render_injection(nf_eval)}


def run_group(ck, objects, state, op):
    """Group the model's normal forms by the hash of their evaluation at a
    common level (the fingerprint)."""
    forms = state.get(op["model"], [])
    common = max([COMMON_LEVEL_FLOOR] + [ck.decision_level(nf) for nf in forms])
    groups: dict[int, list[int]] = {}
    for k, nf in enumerate(forms):
        groups.setdefault(hash(ck.evaluate(nf, common)), []).append(k)
    return common, forms, groups


def encode_group(result):
    common, forms, groups = result
    return {"level": common, "nf": [monomial_key(nf) for nf in forms],
            "groups": sorted(groups.values())}


def run_trace_powers(ck, objects, state, op):
    return ck.trace_powers(objects[op["matrix"]], op["k"])


def run_snf(ck, objects, state, op):
    A = objects[op["matrix"]]
    M = ck.intmat.mat_sub(ck.identity_matrix(len(A)), A)
    return ck.smith_normal_form(M)


def encode_snf(snf):
    return {"factors": list(snf.factors), "U": [list(r) for r in snf.U],
            "V": [list(r) for r in snf.V], "D": [list(r) for r in snf.D]}


def run_shift_step(ck, objects, state, op):
    cert = objects[op["certificate"]]
    (R, S), = cert.pairs
    pair = ck.build_conjugacy(R, S, cert.A, cert.B)
    out = []
    for M, there, back in ((cert.A, ck.apply_phi, ck.apply_psi),
                           (cert.B, ck.apply_psi, ck.apply_phi)):
        for length in range(3, op["max_len"] + 1):
            for path in ck.edge_paths(M, length):
                out.append((path, back(pair, there(pair, path))))
    return out


def encode_shift_step(result):
    return [[[list(e) for e in path], [list(e) for e in image]] for path, image in result]


def run_dimgroup_equal(ck, objects, state, op):
    dg = ck.DimensionGroup(objects[op["matrix"]])
    (v, m), (w, mm) = op["x"], op["y"]
    return dg.equal(dg.element(v, m), dg.element(w, mm))


def same(result):
    return result


LIB = {
    "word": (run_word, encode_word),
    "group": (run_group, encode_group),
    "trace_powers": (run_trace_powers, same),
    "snf": (run_snf, encode_snf),
    "shift_step": (run_shift_step, encode_shift_step),
    "dimgroup_equal": (run_dimgroup_equal, same),
}
