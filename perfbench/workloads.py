"""Seeded inputs for the four workloads.

``generate(workload, seed, workdir)`` writes one JSON file per CLI input
and a ``plan.json`` listing the ops in the order a round runs them.  The
same seed gives byte-identical files.  Sizes are fixed per stratum (vertex
count, out-degree, matrix dimension) and the seed only picks within a
stratum, so the work in a round, and with it the timings, barely moves
from seed to seed.

An op is either a CLI call, ``{"verb", "input", "args"}``, run through
``ckshift.cli.main``, or a library call, ``{"lib", ...}``, for work that
has no CLI verb.  ``meta`` carries what the output check needs to know
about the input; ``known_fault`` marks an op that is expected to fail
until the named defect is fixed.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from reference import matmul

WORKLOADS = ("ck_relations", "monomial_words", "graph_census", "matrix_invariants")

RECURSION_FAULT = "RecursionError in the recursive word and loop enumerators"


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Plan:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.ops: list[dict] = []
        self.objects: dict[str, dict] = {}
        self._files = 0

    def file(self, obj) -> str:
        name = f"in{self._files:04d}.json"
        self._files += 1
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(dumps(obj))
        return name

    def cli(self, verb: str, input_name: str, args=(), **extra) -> None:
        self.ops.append({"verb": verb, "input": input_name,
                         "args": list(args) + ["--format", "json"], **extra})

    def lib(self, name: str, **fields) -> None:
        self.ops.append({"lib": name, **fields})

    def write(self) -> dict:
        plan = {"workload": self.workload, "seed": self.seed,
                "objects": self.objects, "ops": self.ops}
        with open(os.path.join(self.workdir, "plan.json"), "w", encoding="utf-8") as fh:
            fh.write(dumps(plan))
        return plan


def finite(rows) -> dict:
    return {"type": "finite", "rows": [list(r) for r in rows]}


def regular_graph(rng: random.Random, n: int, degree: int) -> list[list[int]]:
    """n x n 0/1 matrix with every row holding exactly ``degree`` ones."""
    rows = []
    for _ in range(n):
        ones = set(rng.sample(range(n), degree))
        rows.append([int(j in ones) for j in range(n)])
    return rows


def random_subset(rng: random.Random, n: int) -> list[int]:
    size = rng.randint(1, n)
    return sorted(rng.sample(range(1, n + 1), size))


def family_json(family) -> list[dict]:
    return [{"finite": list(J), "classes": []} for J in family]


# ---------------------------------------------------------------------------
# ck_relations


def gen_ck_relations(plan: Plan, rng: random.Random) -> None:
    # (vertex count, graphs): degrees cycle 1..n inside each stratum, and
    # each run of n degrees alternates between dense and boundary models.
    for n, count in ((3, 78), (4, 16)):
        for k in range(count):
            rows = regular_graph(rng, n, 1 + k % n)
            name = plan.file(finite(rows))
            if (k // n) % 2 == 0:
                plan.cli("ck-verify", name, ["--boundary", "auto"],
                         meta={"rows": rows, "family": []})
            else:
                family = sorted({tuple(random_subset(rng, n))
                                 for _ in range(rng.randint(1, 2))})
                plan.cli("ck-verify", name,
                         ["--boundary", dumps(family_json(family))],
                         meta={"rows": rows, "family": [list(J) for J in family]})
    # Windowed ck-verify of infinite presentations.
    for _ in range(4):
        k = rng.randint(1, 3)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        block = [[rng.randint(0, 1) for _ in range(k + 1)] for _ in range(k + 1)]
        for row in block:
            row[rng.randrange(k + 1)] = 1
        graph = {"type": "block",
                 "classes": [{"card": c} for c in sizes] + [{"card": "inf"}],
                 "block": block}
        window = sum(sizes) + 2
        plan.cli("ck-verify", plan.file(graph), ["--depth", str(window)],
                 meta={"graph": graph, "window": window})
    for _ in range(4):
        cutoff = rng.randint(0, 3)
        offsets = sorted(rng.sample(range(1, 4), rng.randint(1, 2)))
        prefix = [[rng.randint(0, 1) for _ in range(cutoff)] for _ in range(cutoff)]
        for row in prefix:
            row[rng.randrange(cutoff)] = 1  # every vertex needs an outgoing edge
        cross = [[int(i + o > cutoff and rng.random() < 0.7) for o in offsets]
                 for i in range(1, cutoff + 1)]
        graph = {"type": "banded", "prefix": prefix, "cutoff": cutoff,
                 "offsets": offsets, "cross": cross}
        window = cutoff + 4
        plan.cli("ck-verify", plan.file(graph), ["--depth", str(window)],
                 meta={"graph": graph, "window": window})


# ---------------------------------------------------------------------------
# monomial_words

# Fixed models: the golden mean and the full 2-shift (dense and with the
# Toeplitz family {1,...,n}), and 3-vertex graphs of out-degree 1 and 2.
MONOMIAL_MODELS = (
    ([[1, 1], [1, 0]], []),
    ([[1, 1], [1, 0]], [[1, 2]]),
    ([[1, 1], [1, 1]], []),
    ([[1, 1], [1, 1]], [[1, 2]]),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], []),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], [[1, 2, 3]]),
    ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], []),
    ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], [[1, 3]]),
)
WORDS_PER_MODEL = 125


def gen_monomial_words(plan: Plan, rng: random.Random) -> None:
    for m, (rows, family) in enumerate(MONOMIAL_MODELS):
        key = f"m{m}"
        plan.objects[key] = {"kind": "model", "graph": finite(rows),
                             "boundary": family_json(family) if family else "auto",
                             "rows": rows, "family": family}
        for _ in range(WORDS_PER_MODEL):
            word = [[rng.randint(1, len(rows)), int(rng.random() < 0.5)]
                    for _ in range(rng.randint(1, 6))]
            plan.lib("word", model=key, word=word)
        plan.lib("group", model=key)


# ---------------------------------------------------------------------------
# graph_census


def walk_cost(rows, depth: int = 6) -> int:
    """Walks plus closed walks of lengths 1..depth: what the spectrum,
    periodic and freeness scans of the census enumerate."""
    n = len(rows)
    power, total = [[int(i == j) for j in range(n)] for i in range(n)], 0
    for _ in range(depth):
        power = matmul(power, rows)
        total += sum(map(sum, power)) + sum(power[i][i] for i in range(n))
    return total


def median_cost_graph(rng: random.Random, n: int, degree: int):
    """Of five random out-regular graphs, the one of median walk cost, so
    that one unlucky draw does not set a seed's timings."""
    drawn = [regular_graph(rng, n, degree) for _ in range(5)]
    return sorted(drawn, key=walk_cost)[2]


# The 343 three-vertex graphs with no zero row, in order of walk cost.
CENSUS3 = sorted((list(map(list, g)) for g in itertools.product(
    [r for r in itertools.product((0, 1), repeat=3) if any(r)], repeat=3)),
    key=lambda rows: (walk_cost(rows), rows))
CENSUS3_SAMPLE = 24


def census_graphs(rng: random.Random) -> list[list[list[int]]]:
    graphs = []
    for n in (1, 2):
        rows_pool = [r for r in itertools.product((0, 1), repeat=n) if any(r)]
        graphs.extend([list(map(list, g)) for g in itertools.product(rows_pool, repeat=n)])
    # The costliest three-vertex graph (all ones) and one graph from each of
    # CENSUS3_SAMPLE - 1 strata of equal size along the cost order: the
    # seed picks within a stratum, so the round's work barely moves.
    rest, strata = len(CENSUS3) - 1, CENSUS3_SAMPLE - 1
    for s in range(strata):
        graphs.append(CENSUS3[rng.randrange(s * rest // strata, (s + 1) * rest // strata)])
    graphs.append(CENSUS3[-1])
    for n, degrees in ((4, (1, 1, 2, 2, 3, 3)), (5, (2, 2, 2)), (6, (2, 2))):
        graphs.extend(median_cost_graph(rng, n, d) for d in degrees)
    return graphs


# Block-pattern graphs: (vertices, block pattern).  Class sizes are a sixth,
# a third and a half of the vertices; the seed only relabels the classes,
# so every seed classifies isomorphic graphs at the same cost.
BLOCK_GRAPHS = (
    (60, ((1, 1, 1), (0, 1, 1), (0, 0, 1))),
    (80, ((0, 1, 1), (1, 0, 1), (1, 1, 0))),
    (100, ((1, 1, 0), (0, 1, 1), (1, 0, 1))),
)


def block_graph(rng: random.Random, total: int, pattern) -> dict:
    sizes = [total // 6, total // 3, total - total // 6 - total // 3]
    order = rng.sample(range(3), 3)
    return {"type": "block", "classes": [{"card": sizes[a]} for a in order],
            "block": [[pattern[a][b] for b in order] for a in order]}


def gen_graph_census(plan: Plan, rng: random.Random) -> None:
    for g, rows in enumerate(census_graphs(rng)):
        n = len(rows)
        name = plan.file(finite(rows))
        family = [] if g % 2 == 0 else [list(range(1, n + 1))]
        boundary = dumps(family_json(family)) if family else "auto"
        meta = {"rows": rows}
        plan.cli("classify", name, meta=meta)
        plan.cli("periodic", name, ["--max-period", "6"], meta=meta)
        plan.cli("spectrum", name, ["--depth", "6", "--boundary", boundary],
                 meta={"rows": rows, "family": family})
        plan.cli("essential-freeness", name, ["--depth", "6"], meta=meta)
        plan.cli("jset", name, meta=meta)
        plan.cli("rn", name, ["--max-period", "2", "--depth", "3"], meta=meta)
        plan.cli("invariants", name, meta={"A": rows})
    for total, pattern in BLOCK_GRAPHS:
        graph = block_graph(rng, total, pattern)
        plan.cli("classify", plan.file(graph), meta={"graph": graph})
    # The one-vertex loop at depths the recursive enumerators cannot reach.
    one = plan.file(finite([[1]]))
    plan.cli("spectrum", one, ["--depth", "1500"], meta={"rows": [[1]], "family": []},
             known_fault=RECURSION_FAULT)
    plan.cli("periodic", one, ["--max-period", "2000"], meta={"rows": [[1]]},
             known_fault=RECURSION_FAULT)
    plan.cli("essential-freeness", one, ["--depth", "1200"], meta={"rows": [[1]]},
             known_fault=RECURSION_FAULT)


# ---------------------------------------------------------------------------
# matrix_invariants


def rand_matrix(rng: random.Random, rows: int, cols: int, top: int) -> list[list[int]]:
    return [[rng.randint(0, top) for _ in range(cols)] for _ in range(rows)]


def nonzero_matrix(rng: random.Random, rows: int, cols: int, top: int) -> list[list[int]]:
    """A matrix with no zero row and no zero column."""
    while True:
        m = rand_matrix(rng, rows, cols, top)
        if all(any(r) for r in m) and all(any(c) for c in zip(*m)):
            return m


EDGE_WORD_BUDGET = 400


def edge_word_total(A, B, max_len: int) -> int:
    """Edge words of lengths 3..max_len on both sides: the entry sums of
    the matrix powers."""
    total = 0
    for M in (A, B):
        power = matmul(M, M)
        for _ in range(3, max_len + 1):
            power = matmul(power, M)
            total += sum(map(sum, power))
    return total


def gen_matrix_invariants(plan: Plan, rng: random.Random) -> None:
    objects = plan.objects
    for t in range(1000):
        n = 4 + t % 5
        key = f"t{t}"
        objects[key] = {"kind": "matrix", "rows": rand_matrix(rng, n, n, 1)}
        plan.lib("trace_powers", matrix=key, k=12)
    # Elementary pairs A = RS, B = SR: invariants on both sides, and the
    # Smith form of I - A and I - B.
    for p in range(60):
        n, m = 1 + p % 4, 1 + (p // 4) % 4
        R, S = rand_matrix(rng, n, m, 3), rand_matrix(rng, m, n, 3)
        A, B = matmul(R, S), matmul(S, R)
        for side, M in (("A", A), ("B", B)):
            plan.cli("invariants", plan.file({"A": M}), meta={"A": M, "pair": p, "side": side})
            key = f"p{p}{side}"
            objects[key] = {"kind": "matrix", "rows": M}
            plan.lib("snf", matrix=key)
    for n in (8, 10, 12, 14, 16, 18, 20, 24):
        M = rand_matrix(rng, n, n, 1)
        plan.cli("invariants", plan.file({"A": M}), meta={"A": M})
        key = f"d{n}"
        objects[key] = {"kind": "matrix", "rows": M}
        plan.lib("snf", matrix=key)
    # Certificates: elementary, lag 2 (R' = A R), a two-step chain there
    # and back, and corrupted copies of the elementary ones.
    for c in range(8):
        n, m = 1 + c % 3, 1 + (c // 3) % 3
        R, S = nonzero_matrix(rng, n, m, 2), nonzero_matrix(rng, m, n, 2)
        A, B = matmul(R, S), matmul(S, R)
        cert = {"A": A, "B": B, "R": R, "S": S}
        plan.cli("sse-verify", plan.file(cert), meta={"cert": cert})
        lag2 = {"A": A, "B": B, "R": matmul(A, R), "S": S, "lag": 2}
        plan.cli("sse-verify", plan.file(lag2), meta={"cert": lag2})
        chain = {"A": A, "B": A, "chain": [{"R": R, "S": S}, {"R": S, "S": R}]}
        plan.cli("sse-verify", plan.file(chain), meta={"cert": chain})
        bad = json.loads(json.dumps(cert))
        bad["R"][rng.randrange(n)][rng.randrange(m)] += 1
        plan.cli("sse-verify", plan.file(bad), meta={"cert": bad})
    # Search pairs with a solution inside the bounds the search is given.
    for s in range(12):
        n, m, top = 1 + s % 2, 1 + (s // 2) % 2, 1 + (s // 4) % 2
        R, S = nonzero_matrix(rng, n, m, top), nonzero_matrix(rng, m, n, top)
        pair = {"A": matmul(R, S), "B": matmul(S, R)}
        plan.cli("sse-search", plan.file(pair),
                 ["--entry-bound", str(top), "--inner-dim", "2"],
                 meta={"pair": pair, "entry_bound": top})
    # Conjugacies: the CLI tables, and the library maps on every edge word
    # of length 3 up to the longest length that keeps the words on both
    # sides within EDGE_WORD_BUDGET (the count grows like the spectral radius
    # to that power, so a fixed length would let a few seeds dominate).
    for c in range(12):
        n, m = 1 + c % 2, 1 + (c // 2) % 2
        R, S = nonzero_matrix(rng, n, m, 1), nonzero_matrix(rng, m, n, 1)
        A, B = matmul(R, S), matmul(S, R)
        cert = {"A": A, "B": B, "R": R, "S": S}
        max_len = 3
        while max_len < 8 and edge_word_total(A, B, max_len + 1) <= EDGE_WORD_BUDGET:
            max_len += 1
        plan.cli("conjugacy", plan.file(cert), meta={"cert": cert, "max_len": max_len})
        key = f"c{c}"
        objects[key] = {"kind": "certificate", "cert": cert}
        plan.lib("shift_step", certificate=key, max_len=max_len)
    # Dimension groups: identifications (v, m) ~ (Av, m + 1) and random pairs.
    for g in range(10):
        n = 2 + g % 3
        key = f"g{g}"
        A = nonzero_matrix(rng, n, n, 2)
        objects[key] = {"kind": "matrix", "rows": A}
        for _ in range(10):
            v = [rng.randint(-5, 5) for _ in range(n)]
            lvl = rng.randint(0, 3)
            if rng.random() < 0.5:
                w, wl = [sum(a * x for a, x in zip(row, v)) for row in A], lvl + 1
            else:
                w, wl = [rng.randint(-5, 5) for _ in range(n)], rng.randint(0, 3)
            plan.lib("dimgroup_equal", matrix=key, x=[v, lvl], y=[w, wl])


GENERATORS = {
    "ck_relations": gen_ck_relations,
    "monomial_words": gen_monomial_words,
    "graph_census": gen_graph_census,
    "matrix_invariants": gen_matrix_invariants,
}


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's inputs and plan under ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    plan = Plan(workload, seed, workdir)
    GENERATORS[workload](plan, random.Random(f"{workload}:{seed}"))
    return plan.write()
