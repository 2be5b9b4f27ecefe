"""Output checks, run after the timed phase.

``check(plan, records)`` returns one message per op whose output is
wrong, as ``{op index: message}``.  Every check compares the program's
report with a computation made apart from ckshift (``reference``, sympy,
networkx) or with a property the method must have; none compares with a
stored copy of earlier output.  An op that raised has no output and is
not checked here: the caller counts it as failed.
"""

from __future__ import annotations

import json

import reference as ref

POWER_PAIRS = [(m, n) for n in (1, 2, 3) for m in range(n)]


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def report(record) -> dict:
    return json.loads(record["out"])


def arg(op, flag: str) -> int:
    """The integer the op passed for a CLI flag."""
    return int(op["args"][op["args"].index(flag) + 1])


# ---------------------------------------------------------------------------
# ck_relations


def parse_empty_word_point(text: str):
    """"(∅;{1,c3})" -> "{1,c3}"; anything else -> None."""
    if text and text.startswith("(∅;") and text.endswith(")"):
        return text[3:-1]
    return None


def check_ck_verify(op, record) -> None:
    rep, meta = report(record), op["meta"]
    for name in ("CK1", "CK2", "CK3"):
        expect(rep[name]["status"] == "pass", f"{name} fails")
    ck4 = rep["CK4"]
    if "rows" in meta:
        n, family = len(meta["rows"]), [set(J) for J in meta["family"]]
        expect(rep["dense_domain"] == (not family), "dense_domain flag is wrong")
        expect(ck4["checked"] == 4 ** n, f"checked {ck4['checked']} pairs, expected {4 ** n}")
        expect(ck4["not_finitely_supported"] == 0, "a finite graph has an infinite support")
        failures = ref.ck4_failures_finite(n, family)
        first = failures[0] if failures else None
        allowed = {ref.render_set(J) for J in family}
    else:
        checked, nfs, first = ref.windowed_ck4_expectation(meta["graph"], range(1, meta["window"] + 1))
        expect(rep["dense_domain"], "the auto family is not dense")
        expect(ck4["checked"] == checked, f"checked {ck4['checked']} pairs, expected {checked}")
        expect(ck4["not_finitely_supported"] == nfs,
               f"{ck4['not_finitely_supported']} pairs without finite support, expected {nfs}")
        allowed = None
    if first is None:
        expect(ck4["status"] == "pass", "CK4 fails where the letter condition holds")
        expect(record["code"] == 0, f"exit {record['code']} on a passing model")
        return
    expect(ck4["status"] == "fail", "CK4 passes where the letter condition fails")
    expect(record["code"] == 1, f"exit {record['code']} on a failing model")
    wit = ck4["witness"]
    expect([wit["E"], wit["F"]] == [list(first[0]), list(first[1])],
           f"witness pair {wit['E']},{wit['F']} is not the first failing pair {first}")
    J = parse_empty_word_point(wit["point"])
    expect(J is not None, f"witness {wit['point']} is not an empty-word point")
    if allowed is not None:
        expect(J in allowed, f"witness set {J} is not in the family")
        members = {int(v) for v in J.strip("{}").split(",") if v}
        expect(set(wit["E"]) <= members and not set(wit["F"]) & members,
               f"witness set {J} does not satisfy E in J, F disjoint from J")


# ---------------------------------------------------------------------------
# monomial_words


def check_monomials(plan, records, failures) -> None:
    words: dict[str, list[int]] = {}
    for i, op in enumerate(plan["ops"]):
        rec = records[i]
        if rec["error"] is not None:
            continue
        model = plan["objects"][op["model"]]
        try:
            if op["lib"] == "word":
                words.setdefault(op["model"], []).append(i)
                check_word(op, model, json.loads(rec["out"]))
            else:
                check_group(op, json.loads(rec["out"]),
                            [json.loads(records[k]["out"]) for k in words.get(op["model"], [])])
        except CheckFailed as exc:
            failures[i] = str(exc)


def check_word(op, model, out) -> None:
    rows, family = model["rows"], [tuple(J) for J in model["family"]]
    expect(out["raw_eval"] == out["nf_eval"],
           "the raw word and its normal form evaluate differently")
    if out["nf"] == "0":
        meaning = set()
    else:
        alpha, beta, h = json.loads(out["nf"])
        meaning = ref.monomial_evaluation(rows, family, alpha, beta, h["level"], h["members"],
                                          out["level"])
    expect({tuple(p) for p in out["nf_eval"]} == meaning,
           "the normal form's triple does not act as its evaluation says")
    if len(op["word"]) <= 4:
        composite = ref.word_evaluation(rows, family, op["word"], out["level"])
        if composite is not None:
            expect({tuple(p) for p in out["raw_eval"]} == composite,
                   "the evaluation differs from the composite of the factors' evaluations")


def check_group(op, out, word_outs) -> None:
    expect(out["nf"] == [w["nf"] for w in word_outs],
           "grouped normal forms differ from the words' normal forms")
    expect(all(out["level"] >= w["level"] for w in word_outs),
           "the common level is below a decision level")
    expect(sorted(k for g in out["groups"] for k in g) == list(range(len(out["nf"]))),
           "the groups do not partition the words")
    seen = set()
    for group in out["groups"]:
        forms = {out["nf"][k] for k in group}
        expect(len(forms) == 1, "two different normal forms have the same evaluation")
        expect(not forms & seen, "one normal form has two evaluations")
        seen |= forms


# ---------------------------------------------------------------------------
# graph_census


def digraph(rows):
    import networkx as nx
    g = nx.DiGraph()
    n = len(rows)
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from((i + 1, j + 1) for i in range(n) for j in range(n) if rows[i][j])
    return g


def graph_facts(rows) -> dict:
    """Irreducibility, condition (L) and loop reachability by networkx."""
    import networkx as nx
    g = digraph(rows)
    n = len(rows)
    cyclic = set()
    for comp in nx.strongly_connected_components(g):
        if len(comp) > 1 or any(g.has_edge(v, v) for v in comp):
            cyclic |= comp
    forced = g.subgraph([v for v in g if g.out_degree(v) == 1])
    exit_free = [c for c in nx.simple_cycles(forced)]
    back = g.reverse(copy=True)
    back.add_edges_from((0, v) for v in cyclic)  # vertex 0: a source feeding every loop vertex
    return {
        "no_zero_rows": all(g.out_degree(v) > 0 for v in g),
        "irreducible": nx.is_strongly_connected(g) and (n > 1 or g.has_edge(1, 1)),
        "condition_L": not exit_free,
        "exit_free_lengths": sorted(len(c) for c in exit_free),
        "reaches_loop": nx.descendants(back, 0) >= set(g),
    }


def block_rows(graph) -> list[list[int]]:
    sizes = [c["card"] for c in graph["classes"]]
    cls = [k for k, card in enumerate(sizes) for _ in range(card)]
    return [[graph["block"][a][b] for b in cls] for a in cls]


def check_classify(op, record) -> None:
    rep = report(record)
    rows = op["meta"]["rows"] if "rows" in op["meta"] else block_rows(op["meta"]["graph"])
    facts = graph_facts(rows)
    expect(rep["no_zero_rows"] == facts["no_zero_rows"], "no_zero_rows disagrees with networkx")
    expect(rep["irreducible"] == facts["irreducible"], "irreducible disagrees with networkx")
    expect(rep["condition_L"]["holds"] == facts["condition_L"],
           "condition (L) disagrees with networkx")
    expect(rep["every_vertex_reaches_loop"] == facts["reaches_loop"],
           "every_vertex_reaches_loop disagrees with networkx")
    simple = facts["condition_L"] and facts["irreducible"]
    pure = facts["condition_L"] and facts["reaches_loop"]
    expect((rep["simple"]["status"] == "criteria-met") == simple, "simple verdict is wrong")
    expect((rep["purely_infinite"]["status"] == "criteria-met") == pure,
           "purely infinite verdict is wrong")
    expect(record["code"] == (0 if simple and pure else 1), f"exit {record['code']}")


def check_periodic(op, record) -> None:
    rep, rows = report(record), op["meta"]["rows"]
    top = arg(op, "--max-period")
    expect(rep["max_period"] == top, "the report's max_period is not the one asked for")
    periods = []
    for r in rep["records"]:
        loop = r["loop"]
        expect(r["preperiod"] == 0 and r["period"] == len(loop) - 1 and loop[0] == loop[-1],
               f"malformed record {r}")
        expect(all(rows[a - 1][b - 1] for a, b in zip(loop, loop[1:])), f"loop {loop} is not a path")
        isolated = all(sum(rows[v - 1]) == 1 for v in loop[:-1])
        expect(r["isolated"] == isolated,
               f"loop {loop}: isolated must hold exactly when every vertex has out-degree 1")
        periods.append(r["period"])
    for k in range(1, top + 1):
        walks = ref.closed_walks(rows, k)
        expect(rep["strict_counts_dividing"][str(k)] == walks,
               f"strict count for k={k} is {rep['strict_counts_dividing'][str(k)]}, tr(A^k) = {walks}")
        expect(sum(1 for p in periods if k % p == 0) == walks, f"records miscount period {k}")
    expect(record["code"] == (1 if any(r["isolated"] for r in rep["records"]) else 0),
           f"exit {record['code']}")


def check_spectrum(op, record) -> None:
    rep, meta = report(record), op["meta"]
    expect(rep["level"] == arg(op, "--depth"), "the report's level is not the one asked for")
    count = ref.spectrum_count(meta["rows"], rep["level"], [set(J) for J in meta["family"]])
    expect(not rep["partial"], "a finite spectrum is flagged partial")
    expect(rep["count"] == len(rep["points"]) == len(set(rep["points"])) == count,
           f"spectrum has {rep['count']} points, walk vectors give {count}")
    expected = ref.spectrum(meta["rows"], rep["level"], [tuple(J) for J in meta["family"]])
    expect(set(rep["points"]) == {ref.render_point(p) for p in expected},
           "the spectrum's points differ from the benchmark's enumeration")


def scan_witness_holds(rows, m, n, depth, witness) -> bool:
    """Every extension of the cylinder to length depth + n - m agrees in
    coordinates m + t and n + t, and there is at least one."""
    full = depth + n - m
    if not witness or len(witness) > depth:
        return False
    exts = [tuple(witness)]
    if not all(rows[a - 1][b - 1] for a, b in zip(witness, witness[1:])):
        return False
    while len(exts[0]) < full:
        exts = [w + (j,) for w in exts for j in ref.successors(rows, w[-1])]
        if not exts:
            return False
    return all(e[m + t] == e[n + t] for e in exts for t in range(full - n))


def check_freeness(op, record) -> None:
    rep, rows = report(record), op["meta"]["rows"]
    pairs = rep["pairs"]
    expect(rep["depth"] == arg(op, "--depth"), "the report's depth is not the one asked for")
    expect([(p["m"], p["n"]) for p in pairs] == POWER_PAIRS, "wrong shift-power pairs")
    for p in pairs:
        if p["violation"]:
            expect(scan_witness_holds(rows, p["m"], p["n"], rep["depth"], p["witness_cylinder"]),
                   f"witness {p['witness_cylinder']} for ({p['m']},{p['n']}) does not hold")
    facts = graph_facts(rows)
    lengths = facts["exit_free_lengths"]
    if all(sum(r) == 1 for r in rows):
        # every loop is exit-free: (m, n) is violated iff a loop length divides n - m
        for p in pairs:
            expect(p["violation"] == any((p["n"] - p["m"]) % ell == 0 for ell in lengths),
                   f"pair ({p['m']},{p['n']}) on a functional graph")
    elif all(ell <= 3 for ell in lengths):
        expect(any(p["violation"] for p in pairs) == (not facts["condition_L"]),
               "a violation must occur exactly when condition (L) fails")
    expect(record["code"] == (1 if any(p["violation"] for p in pairs) else 0),
           f"exit {record['code']}")


def check_jset(op, record) -> None:
    rep = report(record)
    expect(rep == {"cluster_patterns": [], "empty_pattern_present": False,
                   "generated_algebra_unital": True},
           "a finite graph has no cluster patterns")


def check_rn(op, record) -> None:
    rep, rows = report(record), op["meta"]["rows"]
    k, level = arg(op, "--max-period"), arg(op, "--depth")
    expect((rep["shift_bound"], rep["level"]) == (k, level), "the report's bounds are not the ones asked for")
    points = [p for cls in rep["classes"] for p in cls]
    expected = {",".join(map(str, w)) for w in ref.words(rows, level + 1)}
    expect(len(points) == len(set(points)) and set(points) == expected,
           "the classes do not partition the spectrum")
    expect(rep["num_classes"] == len(rep["classes"]), "num_classes is wrong")
    tails = [{tuple(p.split(",")[k:]) for p in cls} for cls in rep["classes"]]
    expect(all(len(t) == 1 for t in tails), "a class mixes tails")
    expect(len({next(iter(t)) for t in tails}) == len(tails), "two classes share a tail")


# ---------------------------------------------------------------------------
# matrix_invariants


def sympy_matrix(rows):
    from sympy import Matrix
    return Matrix(rows)


def sympy_det(rows) -> int:
    from sympy.polys.matrices import DomainMatrix
    return int(DomainMatrix.from_Matrix(sympy_matrix(rows)).det())


def sympy_charpoly(rows) -> list[int]:
    from sympy.polys.matrices import DomainMatrix
    return [int(c) for c in DomainMatrix.from_Matrix(sympy_matrix(rows)).charpoly()]


def divisor_chain(factors) -> bool:
    nz = [d for d in factors if d != 0]
    return (all(d > 0 for d in nz) and factors[:len(nz)] == nz
            and all(b % a == 0 for a, b in zip(nz, nz[1:])))


def check_invariants(op, record) -> dict:
    rep, A = report(record), op["meta"]["A"]
    M = ref.eye_minus(A)
    expect(rep["det"] == sympy_det(M), f"det(I-A) = {rep['det']}, sympy says {sympy_det(M)}")
    cp = sympy_charpoly(A)
    while len(cp) > 1 and cp[-1] == 0:
        cp.pop()
    expect(rep["charpoly_nonzero_part"] == cp, "charpoly disagrees with sympy")
    f = rep["bowen_franks"]
    expect(divisor_chain(f), f"Bowen-Franks factors {f} are not a divisor chain")
    expect(rep["torsion"] == [d for d in f if d not in (0, 1)], "torsion is wrong")
    expect(rep["free_rank"] == f.count(0), "free rank is wrong")
    prod = 1
    for d in f:
        prod *= d
    expect(prod == abs(rep["det"]), "the factors' product is not |det(I-A)|")
    return rep


def check_snf(op, record, plan) -> None:
    out = json.loads(record["out"])
    A = plan["objects"][op["matrix"]]["rows"]
    M = ref.eye_minus(A)
    U, V, D, f = out["U"], out["V"], out["D"], out["factors"]
    expect(ref.matmul(ref.matmul(U, M), V) == D, "U M V != D")
    expect(all(D[i][j] == (f[i] if i == j else 0)
               for i in range(len(D)) for j in range(len(D[0]))), "D is not diag(factors)")
    expect(abs(sympy_det(U)) == 1 and abs(sympy_det(V)) == 1, "U or V is not unimodular")
    expect(divisor_chain(f), f"factors {f} are not a divisor chain")


def check_sse_verify(op, record) -> None:
    rep, cert = report(record), op["meta"]["cert"]
    A, B = cert["A"], cert["B"]
    if "chain" in cert:
        valid = ref.verify_chain(A, B, [(p["R"], p["S"]) for p in cert["chain"]])
    else:
        lag = cert.get("lag", 1)
        valid = ref.verify_lag(A, B, cert["R"], cert["S"], lag) or (
            lag == 1 and ref.verify_elementary(A, cert["R"], cert["S"], B))
    expect(rep["valid"] == valid, f"valid={rep['valid']}, the benchmark computes {valid}")
    expect(record["code"] == (0 if valid else 1), f"exit {record['code']}")


def check_sse_search(op, record) -> None:
    rep, meta = report(record), op["meta"]
    A, B, bound = meta["pair"]["A"], meta["pair"]["B"], meta["entry_bound"]
    expect(rep["found"], "no pair found though one exists within the bounds")
    R, S = rep["R"], rep["S"]
    expect(all(0 <= x <= bound for m in (R, S) for row in m for x in row),
           "a factor entry lies outside the bound")
    expect(ref.verify_elementary(A, R, S, B), "the pair found does not satisfy RS = A, SR = B")


def conjugacy_maps(rep):
    alpha = {tuple(r["edge"]): (tuple(r["first"]), tuple(r["second"])) for r in rep["alpha"]}
    beta = {tuple(r["edge"]): (tuple(r["first"]), tuple(r["second"])) for r in rep["beta"]}
    alpha_inv = {v: k for k, v in alpha.items()}
    beta_inv = {v: k for k, v in beta.items()}
    expect(len(alpha_inv) == len(alpha) and len(beta_inv) == len(beta),
           "the edge matchings are not injective")

    def phi(path):
        d = [alpha[e] for e in path]
        return tuple(beta_inv[(d[k][1], d[k + 1][0])] for k in range(len(path) - 1))

    def psi(path):
        d = [beta[e] for e in path]
        return tuple(alpha_inv[(d[k][1], d[k + 1][0])] for k in range(len(path) - 1))

    return phi, psi


def check_conjugacy(op, record) -> None:
    rep, meta = report(record), op["meta"]
    cert = meta["cert"]
    expect(rep["valid"] and record["code"] == 0, "a valid certificate is rejected")
    phi, psi = conjugacy_maps(rep)
    for M, there, back in ((cert["A"], phi, psi), (cert["B"], psi, phi)):
        for length in range(3, meta["max_len"] + 1):
            for p in ref.edge_words(M, length):
                expect(back(there(p)) == p[1:length - 1],
                       f"the two maps are not one shift step on {p}")


def check_shift_step(op, record, plan) -> None:
    out = json.loads(record["out"])
    cert = plan["objects"][op["certificate"]]["cert"]
    expected = [p for M in (cert["A"], cert["B"]) for length in range(3, op["max_len"] + 1)
                for p in ref.edge_words(M, length)]
    paths = [tuple(tuple(e) for e in path) for path, _ in out]
    expect(sorted(paths) == sorted(expected), "the maps ran on the wrong edge words")
    for path, image in out:
        expect(image == path[1:len(path) - 1], f"the maps are not one shift step on {path}")


def check_matrices(plan, records, failures) -> None:
    pairs: dict[int, dict] = {}
    for i, op in enumerate(plan["ops"]):
        rec = records[i]
        if rec["error"] is not None:
            continue
        try:
            kind = op.get("verb") or op["lib"]
            if kind == "trace_powers":
                A = plan["objects"][op["matrix"]]["rows"]
                expect(json.loads(rec["out"]) == ref.traces(A, op["k"]),
                       "trace powers differ from the benchmark's own matrix powers")
            elif kind == "invariants":
                rep = check_invariants(op, rec)
                if "pair" in op["meta"]:
                    pairs.setdefault(op["meta"]["pair"], {})[op["meta"]["side"]] = (i, rep)
            elif kind == "snf":
                check_snf(op, rec, plan)
            elif kind == "sse-verify":
                check_sse_verify(op, rec)
            elif kind == "sse-search":
                check_sse_search(op, rec)
            elif kind == "conjugacy":
                check_conjugacy(op, rec)
            elif kind == "shift_step":
                check_shift_step(op, rec, plan)
            elif kind == "dimgroup_equal":
                A = plan["objects"][op["matrix"]]["rows"]
                expect(json.loads(rec["out"]) == ref.dimension_group_equal(A, op["x"], op["y"]),
                       "dimension-group equality disagrees with the benchmark's lift")
            else:
                raise CheckFailed(f"no check for {kind}")
        except CheckFailed as exc:
            failures[i] = str(exc)
    for sides in pairs.values():
        if len(sides) != 2:
            continue
        (i, a), (_, b) = sides["A"], sides["B"]
        if a["det"] != b["det"] or [d for d in a["bowen_franks"] if d != 1] != \
                [d for d in b["bowen_franks"] if d != 1]:
            failures[i] = "det(I-A) or the Bowen-Franks group differs between A = RS and B = SR"


# ---------------------------------------------------------------------------

CLI_CHECKS = {
    "ck-verify": check_ck_verify,
    "classify": check_classify,
    "periodic": check_periodic,
    "spectrum": check_spectrum,
    "essential-freeness": check_freeness,
    "jset": check_jset,
    "rn": check_rn,
    "invariants": check_invariants,
}


def check(plan: dict, records: list[dict]) -> dict[int, str]:
    failures: dict[int, str] = {}
    if plan["workload"] == "monomial_words":
        check_monomials(plan, records, failures)
    elif plan["workload"] == "matrix_invariants":
        check_matrices(plan, records, failures)
    else:
        for i, op in enumerate(plan["ops"]):
            rec = records[i]
            if rec["error"] is not None:
                continue
            try:
                expect(rec["code"] != 2, f"exit 2: {rec['stderr'].strip()}")
                CLI_CHECKS[op["verb"]](op, rec)
            except CheckFailed as exc:
                failures[i] = str(exc)
    return failures
