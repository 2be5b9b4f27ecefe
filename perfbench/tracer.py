"""Spans around ckshift's public functions, installed from outside.

``Tracer.install(ck)`` wraps the functions listed in ``TARGETS`` and
rebinds each wrapper in every ckshift module namespace that holds the
original, and on its class when it is a method, so calls between modules
go through the wrappers too.  Nothing in ckshift changes on disk.

Each call records a span (name, start, end, parent span) in flat arrays
kept in memory; ``write`` saves them when the round ends.  A span's self
time is its duration minus the time its child spans cover, and a layer's
self time is the sum over its spans.  Time spent in functions that are
not wrapped (point constructors, ``edge``, ``contains`` and the like,
which run millions of times) counts toward the wrapped caller.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter

LAYERS = ("graphs", "pathspace", "clopen", "semigroup", "intmat", "sse", "formats", "cli")


# The wrapped functions, by module.
TARGETS = {
    "graphs": (
        "classify", "condition_l", "irreducible_with_witness", "reaches_loop_with_witness",
        "has_no_zero_rows", "enumerate_loops", "finite_form", "is_infinite",
        "loop_has_outgoing_edge", "FiniteGraph.successors", "BlockPatternGraph.successors",
        "BandedTailGraph.successors", "BlockPatternGraph.materialize", "BandedTailGraph.truncate",
    ),
    "pathspace": (
        "cluster_patterns", "validate_model", "dense_model", "make_pattern", "full_pattern",
        "spectrum_level", "fiber", "periodic_points", "essential_freeness_scan",
        "strict_period_counts",
    ),
    "clopen": (
        "make_clopen", "members_at_level", "raise_level", "full_space", "cylinder", "base_sets",
        "vertex_cylinder", "follower_set", "prepend_word", "strip_word", "ck4_identity",
        "empty_clopen", "ClopenSet.meet", "ClopenSet.join", "ClopenSet.difference",
        "ClopenSet.leq", "ClopenSet.complement",
    ),
    "semigroup": (
        "compose", "normalize", "evaluate", "generator", "adjoint", "identity", "zero",
        "make_monomial", "product", "decision_level", "semantically_equal",
        "verify_ck_relations", "tail_partition", "projection_p", "projection_q",
    ),
    "intmat": (
        "mat_mul", "mat_pow", "mat_vec", "det", "charpoly", "smith_normal_form", "trace",
        "identity", "mat_add", "mat_sub", "scalar_mul", "as_matrix",
    ),
    "sse": (
        "trace_powers", "search_elementary", "apply_phi", "apply_psi", "bowen_franks",
        "charpoly_nonzero_part", "compare_invariants", "verify_elementary",
        "verify_shift_equivalence", "verify_strong_chain", "build_conjugacy", "edge_set",
        "validate_edge_path", "DimensionGroup.equal", "DimensionGroup.element",
    ),
    "formats": (
        "loads", "parse_graph", "parse_boundary", "parse_model", "parse_matrix",
        "parse_certificate",
    ),
    "cli": ("main",),
}

# Work counted from a call's result: span name -> (metric, count).
WORK = {
    "pathspace.spectrum_level": ("points", lambda result: len(result.points)),
    "pathspace.fiber": ("points", len),
    "clopen.members_at_level": ("points", len),
    "semigroup.evaluate": ("pairs", lambda result: len(result.pairs)),
}

# Arguments whose distinct values a run counts: span name -> key.
KEYS = {
    "graphs.finite_form": lambda g, *rest, **kw: (type(g).__name__, hash(g)),
    "clopen.base_sets": lambda model, i, *rest, **kw: (hash(model), i),
}

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
LAYER_METRICS = (
    ("graphs.self_s", "s", "lower"),
    ("graphs.classify.self_s", "s", "lower"),
    ("graphs.finite_form.calls", "count", "lower"),
    ("graphs.finite_form.distinct_ratio", "ratio", "higher"),
    ("graphs.successors.calls", "count", "lower"),
    ("pathspace.self_s", "s", "lower"),
    ("pathspace.spectrum_level.self_s", "s", "lower"),
    ("pathspace.spectrum_level.points", "count", "lower"),
    ("pathspace.periodic_points.self_s", "s", "lower"),
    ("pathspace.essential_freeness_scan.self_s", "s", "lower"),
    ("pathspace.fiber.calls", "count", "lower"),
    ("pathspace.fiber.points", "count", "lower"),
    ("clopen.self_s", "s", "lower"),
    ("clopen.make_clopen.calls", "count", "lower"),
    ("clopen.ck4_identity.calls", "count", "lower"),
    ("clopen.ck4_identity.self_s", "s", "lower"),
    ("clopen.base_sets.calls", "count", "lower"),
    ("clopen.base_sets.distinct_ratio", "ratio", "higher"),
    ("clopen.members_at_level.calls", "count", "lower"),
    ("clopen.members_at_level.points", "count", "lower"),
    ("semigroup.self_s", "s", "lower"),
    ("semigroup.compose.calls", "count", "lower"),
    ("semigroup.normalize.calls", "count", "lower"),
    ("semigroup.evaluate.calls", "count", "lower"),
    ("semigroup.evaluate.self_s", "s", "lower"),
    ("semigroup.evaluate.pairs", "count", "lower"),
    ("intmat.self_s", "s", "lower"),
    ("intmat.mat_mul.calls", "count", "lower"),
    ("intmat.mat_mul.self_s", "s", "lower"),
    ("intmat.smith_normal_form.self_s", "s", "lower"),
    ("intmat.charpoly.self_s", "s", "lower"),
    ("intmat.det.calls", "count", "lower"),
    ("sse.self_s", "s", "lower"),
    ("sse.trace_powers.self_s", "s", "lower"),
    ("sse.search_elementary.self_s", "s", "lower"),
    ("sse.apply_phi.calls", "count", "lower"),
    ("sse.apply_psi.calls", "count", "lower"),
    ("formats.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.work: dict[str, int] = {}
        self.keys: dict[str, set] = {}

    def install(self, ck) -> None:
        modules = [ck] + [getattr(ck, name) for name in LAYERS + ("errors",)]
        for layer, targets in TARGETS.items():
            module = getattr(ck, layer)
            for qualname in targets:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapper = self._wrap(original, f"{layer}.{attr}")
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        work, key = WORK.get(name), KEYS.get(name)
        if work is not None:
            metric, count = work
            self.work[f"{name}.{metric}"] = 0
        seen = self.keys.setdefault(name, set()) if key is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if work is not None:
                tracer.work[f"{name}.{metric}"] += count(result)
            if seen is not None:
                seen.add(key(*args, **kwargs))
            return result

        return wrapper

    def functions(self) -> dict[str, dict]:
        """Per wrapped name: calls, self time, total time (outermost spans
        only, so recursion is not counted twice)."""
        n = len(self.span_start)
        child = [0.0] * n
        parents, starts, ends, names = self.span_parent, self.span_start, self.span_end, self.span_name
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(n):
            entry = stats[self.names[names[i]]]
            dur = ends[i] - starts[i]
            entry["calls"] += 1
            entry["self_s"] += dur - child[i]
            p = parents[i]
            if p < 0 or names[p] != names[i]:
                entry["total_s"] += dur
        return stats

    def metrics(self) -> dict[str, float]:
        stats = self.functions()
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in stats.items()
                                         if k.startswith(layer + "."))
        for name, entry in stats.items():
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + entry["calls"]
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + entry["self_s"]
        out.update(self.work)
        for name, seen in self.keys.items():
            calls = out[f"{name}.calls"]
            out[f"{name}.distinct_ratio"] = len(seen) / calls if calls else 0.0
        return out

    def write(self, path: str) -> None:
        """Save the spans: a JSON header line with the name table and the
        array lengths, then the raw name, parent, start and end arrays."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.span_start)}).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
