"""Tests of the benchmark itself: inputs regenerate byte for byte, every
check catches a planted wrong answer, and a traced round passes the same
checks as an untraced one.

    python3 -m pytest perfbench/test_perfbench.py -q

Each test runs real worker rounds on a cut-down plan, so the whole file
takes well under a minute.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_regenerates_identical_inputs(tmp_path, workload):
    workloads.generate(workload, 7, str(tmp_path / "a"))
    workloads.generate(workload, 7, str(tmp_path / "b"))
    workloads.generate(workload, 8, str(tmp_path / "c"))
    first = read_tree(tmp_path / "a")
    assert first == read_tree(tmp_path / "b")
    assert first["plan.json"] != read_tree(tmp_path / "c")["plan.json"]


def cut_plan(tmp_path, workload, keep):
    """Generate a workload and keep only the ops ``keep`` accepts."""
    workdir = str(tmp_path / workload)
    plan = workloads.generate(workload, 3, workdir)
    plan["ops"] = [op for i, op in enumerate(plan["ops"]) if keep(i, op)]
    with open(os.path.join(workdir, "plan.json"), "w", encoding="utf-8") as fh:
        fh.write(workloads.dumps(plan))
    return plan, workdir


def run_worker(workdir, index, traced=False):
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), workdir, str(index),
                    "full", str(int(traced))], check=True, timeout=300)
    with open(os.path.join(workdir, f"round-{index}.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def planted(records, i, change):
    """A copy of the records with op i's output rewritten by ``change``."""
    bad = copy.deepcopy(records)
    out = json.loads(bad[i]["out"])
    change(out)
    bad[i]["out"] = json.dumps(out)
    return bad


def test_trace_off_by_one_is_flagged(tmp_path):
    plan, workdir = cut_plan(tmp_path, "matrix_invariants",
                             lambda i, op: op.get("lib") == "trace_powers" and i < 5)
    records = run_worker(workdir, 0)
    assert checks.check(plan, records) == {}

    def bump(out):
        out[3] += 1
    assert 2 in checks.check(plan, planted(records, 2, bump))


def test_ck4_witness_meeting_its_set_is_flagged(tmp_path):
    plan, workdir = cut_plan(tmp_path, "ck_relations", lambda i, op: i < 12)
    records = run_worker(workdir, 0)
    assert checks.check(plan, records) == {}
    i = next(k for k, op in enumerate(plan["ops"]) if op["meta"].get("family"))
    J = plan["ops"][i]["meta"]["family"][0]

    def meet(out):
        out["CK4"]["witness"]["F"] = [J[0]]
    assert i in checks.check(plan, planted(records, i, meet))


def test_swapped_normal_form_is_flagged(tmp_path):
    plan, workdir = cut_plan(tmp_path, "monomial_words", lambda i, op: op["model"] == "m2")
    records = run_worker(workdir, 0)
    assert checks.check(plan, records) == {}
    forms = [json.loads(r["out"])["nf"] for r in records[:-1]]
    i = next(k for k, f in enumerate(forms) if f != "0")
    j = next(k for k, f in enumerate(forms) if f not in ("0", forms[i]))
    bad = copy.deepcopy(records)
    for a, b in ((i, j), (j, i)):
        out = json.loads(records[a]["out"])
        out["nf"] = forms[b]
        bad[a]["out"] = json.dumps(out)
    flagged = checks.check(plan, bad)
    assert i in flagged and j in flagged


def test_wrong_snf_factor_is_flagged(tmp_path):
    plan, workdir = cut_plan(tmp_path, "matrix_invariants",
                             lambda i, op: op.get("lib") == "snf")
    records = run_worker(workdir, 0)
    assert checks.check(plan, records) == {}
    i = next(k for k, r in enumerate(records) if any(json.loads(r["out"])["factors"]))

    def wrong(out):
        k = next(k for k, d in enumerate(out["factors"]) if d)
        out["factors"][k] += 1
    assert i in checks.check(plan, planted(records, i, wrong))


@pytest.mark.parametrize("workload,keep", [
    ("ck_relations", lambda i, op: i % 10 == 0),
    ("monomial_words", lambda i, op: op["model"] == "m0"),
    ("graph_census", lambda i, op: i < 30 or op.get("known_fault")),
    ("matrix_invariants", lambda i, op: i % 8 == 0),
])
def test_traced_round_passes_the_same_checks(tmp_path, workload, keep):
    plan, workdir = cut_plan(tmp_path, workload, keep)
    plain = run_worker(workdir, 0)
    traced = run_worker(workdir, 1, traced=True)
    assert checks.check(plan, plain) == {}
    assert checks.check(plan, traced) == {}
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    with open(os.path.join(workdir, "round-1.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    assert layers["cli.self_s"] > 0 or workload == "monomial_words"
