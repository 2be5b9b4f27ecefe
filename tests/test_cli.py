import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckshift
from ckshift import cli
from ckshift.cli import main
from ckshift.errors import ValidationError

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    """Run ``main`` in process; a fault that the top-level guard turned
    into an ``error: internal error:`` line fails the test."""
    code = main(list(argv))
    out = capsys.readouterr()
    assert "internal error" not in out.err, out.err
    return code, out.out, out.err


def usage_error(capsys, *argv) -> str:
    """Run ``main`` on a usage error: exit 2, no report and exactly one
    ``error:`` line, which is returned."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (2, ""), (argv, out)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    return err


class TestClassify:
    def test_golden_mean_passes(self, capsys):
        code, out, _ = run(capsys, "classify", "--input", str(DATA / "golden_mean.json"),
                           "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["simple"]["status"] == "criteria-met"
        assert rep["purely_infinite"]["status"] == "criteria-met"

    def test_two_cycle_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "classify", "--input", str(DATA / "two_cycle.json"),
                           "--format", "json")
        assert code == 1
        rep = json.loads(out)
        assert rep["condition_L"] == {"holds": False, "witness": [1, 2, 1]}

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "classify", "--input", str(DATA / "golden_mean.json"))
        assert code == 0
        assert "condition_L.holds: yes" in out


class TestSpectrum:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--input", str(DATA / "full2.json"),
                           "--boundary", '[{"finite":[1,2]}]', "--depth", "2",
                           "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["count"] == 15 and not rep["partial"]
        assert ";{1,2}" in rep["points"]

    @pytest.mark.parametrize("explicit, bare", [("[2]", 3), ("[2,3]", 4)])
    def test_bare_infinite_class_names_its_first_bare_vertex(self, capsys, tmp_path,
                                                             explicit, bare):
        path = tmp_path / "block.json"
        path.write_text('{"type":"block","classes":[{"card":1},{"card":"inf"}],'
                        '"block":[[1,1],[0,0]]}')
        code, out, err = run(capsys, "spectrum", "--depth", "1", "--input", str(path),
                             "--boundary", f'[{{"finite":[1]}},{{"finite":{explicit}}}]')
        assert (code, out) == (2, "")
        assert err == f"error: vertex {bare} has no outgoing edge and lies in no boundary set\n"

    @pytest.mark.parametrize("verb, extra, lines", [
        ("spectrum", ("--depth", "12"), 2),  # 8192 points overflow the pipe
        ("ck-verify", (), 0),                # short output, still buffered
    ])
    def test_reader_leaving_early_is_quiet(self, verb, extra, lines):
        # `ckshift ... | head`: the reader closes the pipe after a few lines;
        # no traceback, and the verb's own exit code
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ckshift.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)  # stdout on a pipe is block buffered
        proc = subprocess.Popen([sys.executable, "-m", "ckshift.cli", verb,
                                 "--input", str(DATA / "full2.json"), *extra],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""
        assert head == [b"level: 12\n", b"count: 8192\n"][:lines]


class TestCkVerify:
    def test_dense_passes(self, capsys):
        code, out, _ = run(capsys, "ck-verify", "--input", str(DATA / "full2.json"),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["CK4"]["status"] == "pass"

    def test_toeplitz_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "ck-verify", "--input", str(DATA / "full2.json"),
                           "--boundary", '[{"finite":[1,2]}]', "--format", "json")
        assert code == 1
        rep = json.loads(out)
        assert rep["CK4"]["status"] == "fail"
        assert rep["CK4"]["witness"]["point"] == "(∅;{1,2})"

    def test_infinite_windowed(self, capsys):
        code, out, _ = run(capsys, "ck-verify", "--input", str(DATA / "ray.json"),
                           "--format", "json")
        assert code == 0

    def test_bool_class_id_is_2(self, capsys, tmp_path):
        path = tmp_path / "block.json"
        path.write_text('{"type":"block","classes":[{"card":2},{"card":"inf"}],'
                        '"block":[[1,1],[1,1]]}')
        for boundary, message in (
                ('[{"classes":[true,2]}]', "unknown class id True"),
                ('[{"finite":[true]}]', "pattern vertices are positive integers, got True")):
            code, out, err = run(capsys, "ck-verify", "--input", str(path),
                                 "--boundary", boundary)
            assert (code, out, err) == (2, "", f"error: {message}\n"), boundary

    def test_finite_block_patterns_never_materialize(self, capsys, tmp_path, monkeypatch):
        # the class digraph answers every question: same report as the
        # explicit matrix, and no matrix is built
        cases = [((2, 1), ((1, 1), (1, 0))), ((1, 2), ((0, 1), (1, 1))),
                 ((2, 2), ((1, 0), (1, 1))), ((1, 1, 2), ((0, 1, 0), (0, 0, 1), (1, 1, 0)))]
        reports = []
        for k, (sizes, block) in enumerate(cases):
            g = ckshift.BlockPatternGraph(sizes, block)
            flat, pattern = tmp_path / f"flat{k}.json", tmp_path / f"block{k}.json"
            flat.write_text(json.dumps({"type": "finite", "rows": g.materialize().rows}))
            pattern.write_text(json.dumps({"type": "block", "block": block,
                                           "classes": [{"card": c} for c in sizes]}))
            n = g.total_size()
            for boundary in ("auto", json.dumps([{"finite": list(range(1, n + 1))}])):
                argv = ["ck-verify", "--boundary", boundary, "--format", "json", "--input"]
                reports.append((run(capsys, *argv, str(flat)), argv, pattern))
        monkeypatch.setattr(ckshift.BlockPatternGraph, "materialize",
                            lambda self: pytest.fail("a finite block pattern was materialized"))
        for expected, argv, pattern in reports:
            assert run(capsys, *argv, str(pattern)) == expected, (argv, pattern.read_text())
        big = tmp_path / "big.json"
        big.write_text('{"type":"block","classes":[{"card":1500},{"card":1500}],'
                       '"block":[[1,1],[1,0]]}')
        code, out, _ = run(capsys, "ck-verify", "--input", str(big), "--format", "json")
        assert code == 0 and json.loads(out)["CK4"]["checked"] == 4 ** 3000

    def test_pair_count_past_the_int_digit_limit(self, capsys, tmp_path):
        # 4^7144 pairs has 4301 digits, one past CPython's default limit on
        # int-to-str conversion; the count still prints in full
        big = tmp_path / "big.json"
        big.write_text('{"type":"block","classes":[{"card":3572},{"card":3572}],'
                       '"block":[[1,1],[1,0]]}')
        outs = {}
        for fmt in ("text", "json"):
            start = time.perf_counter()
            code, outs[fmt], err = run(capsys, "ck-verify", "--input", str(big), "--format", fmt)
            assert time.perf_counter() - start < 1.0, fmt
            assert (code, err) == (0, ""), fmt
        assert "CK2.status: pass\n" in outs["text"]
        # main restores the limit on return, so the test's own conversions lift it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert f"CK4.checked: {4 ** 7144}\n" in outs["text"]
            rep = json.loads(outs["json"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert rep["CK2"]["status"] == "pass" and rep["CK4"]["checked"] == 4 ** 7144

    def test_main_restores_the_int_digit_limit(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text('{"type":"block","classes":[{"card":3572},{"card":3572}],'
                       '"block":[[1,1],[1,0]]}')
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            # a report past the default limit, then an input error
            for path, code in ((big, 0), (tmp_path / "missing.json", 2)):
                assert run(capsys, "ck-verify", "--input", str(path))[0] == code
                assert sys.get_int_max_str_digits() == 5000, path
        finally:
            sys.set_int_max_str_digits(limit)

    def test_unknown_boundary_field_is_2(self, capsys):
        code, out, err = run(capsys, "ck-verify", "--input", str(DATA / "golden_mean.json"),
                             "--boundary", '[{"finte":[1]}]')
        assert (code, out, err) == (2, "", "error: boundary[0]: unknown field 'finte'\n")

    def test_depth_below_one_on_an_infinite_model_is_2(self, capsys, tmp_path):
        path = tmp_path / "block.json"
        path.write_text('{"type":"block","classes":[{"card":2},{"card":"inf"}],'
                        '"block":[[1,1],[1,1]]}')
        for depth in ("0", "-3"):
            code, out, err = run(capsys, "ck-verify", "--input", str(path), "--depth", depth)
            assert (code, out) == (2, ""), depth
            assert err == f"error: --depth must be at least 1 on an infinite model, got {depth}\n"
        # a finite model ignores --depth
        finite = ("ck-verify", "--input", str(DATA / "golden_mean.json"))
        assert run(capsys, *finite, "--depth", "-3") == run(capsys, *finite)


class TestFreeness:
    def test_full_shift_free(self, capsys):
        code, out, _ = run(capsys, "essential-freeness",
                           "--input", str(DATA / "full2.json"), "--depth", "6",
                           "--format", "json")
        assert code == 0
        assert all(not entry["violation"] for entry in json.loads(out)["pairs"])

    def test_two_cycle_violation(self, capsys):
        code, out, _ = run(capsys, "essential-freeness",
                           "--input", str(DATA / "two_cycle.json"), "--format", "json")
        assert code == 1
        viols = [e for e in json.loads(out)["pairs"] if e["violation"]]
        assert {"m": 0, "n": 2, "violation": True, "witness_cylinder": [1]} in viols

    def test_depth_below_the_power_bound_is_2(self, capsys):
        for depth in ("2", "-1"):
            code, out, err = run(capsys, "essential-freeness", "--input",
                                 str(DATA / "full2.json"), "--depth", depth)
            assert (code, out, err) == (2, "", "error: --depth must be at least 3\n"), depth


class TestPeriodic:
    def test_golden_counts(self, capsys):
        code, out, _ = run(capsys, "periodic", "--input", str(DATA / "golden_mean.json"),
                           "--max-period", "4", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["strict_counts_dividing"] == {"1": 1, "2": 3, "3": 4, "4": 7}

    def test_isolated_exit_code(self, capsys):
        code, out, _ = run(capsys, "periodic", "--input", str(DATA / "two_cycle.json"),
                           "--format", "json")
        assert code == 1


class TestJset:
    def test_finite(self, capsys):
        code, out, _ = run(capsys, "jset", "--input", str(DATA / "golden_mean.json"),
                           "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep == {"cluster_patterns": [], "empty_pattern_present": False,
                       "generated_algebra_unital": True}

    def test_ray(self, capsys):
        code, out, _ = run(capsys, "jset", "--input", str(DATA / "ray.json"),
                           "--format", "json")
        rep = json.loads(out)
        assert rep["cluster_patterns"] == ["{}"]
        assert rep["empty_pattern_present"] and not rep["generated_algebra_unital"]

    def test_all_ones(self, capsys):
        code, out, _ = run(capsys, "jset", "--input", str(DATA / "all_ones_inf.json"),
                           "--format", "json")
        rep = json.loads(out)
        assert rep["cluster_patterns"] == ["{c1}"]
        assert rep["generated_algebra_unital"]


class TestSse:
    def test_verify_elementary(self, capsys):
        code, out, _ = run(capsys, "sse-verify",
                           "--input", str(DATA / "cert_elementary.json"),
                           "--format", "json")
        assert code == 0 and json.loads(out)["valid"]

    def test_verify_chain(self, capsys):
        code, out, _ = run(capsys, "sse-verify", "--input", str(DATA / "cert_chain.json"),
                           "--format", "json")
        assert code == 0

    def test_unknown_certificate_field_is_2(self, capsys, tmp_path):
        # a misspelt "lag" used to fall back to lag 1 and report the pair invalid
        path = tmp_path / "cert.json"
        path.write_text('{"A":[[2]],"B":[[2]],"R":[[2]],"S":[[2]],"lagg":2}')
        assert run(capsys, "sse-verify", "--input", str(path)) == (
            2, "", "error: certificate: unknown field 'lagg'\n")

    @pytest.mark.parametrize("verb, text, field", (
        ("invariants", '{"A":[[1,1],[1,0]],"B":5}', "input: unknown field 'B'"),
        ("sse-search", '{"A":[[2]],"B":[[2]],"C":[[2]]}', "input: unknown field 'C'"),
        ("invariants", '{"type":"finite","rows":[[1]],"A":[[1]]}', "graph: unknown field 'A'"),
        ("classify", '{"type":"block","classes":[{"card":2,"cardd":5},{"card":"inf"}],'
                     '"block":[[1,1],[1,1]]}', "graph.classes[0]: unknown field 'cardd'"),
    ))
    def test_unknown_input_field_is_2(self, verb, text, field, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert run(capsys, verb, "--input", str(path)) == (2, "", f"error: {field}\n")

    def test_verify_bad(self, capsys):
        code, out, _ = run(capsys, "sse-verify", "--input", str(DATA / "cert_bad.json"),
                           "--format", "json")
        assert code == 1

    @pytest.mark.parametrize("cert, code, valid, kind", [
        ({"A": [[2]], "B": [[1, 1], [1, 1]], "R": [[1, 1]], "S": [[1], [1]], "lag": 1},
         0, True, "lag-1"),
        ({"A": [[2]], "B": [[1, 1], [1, 0]], "R": [[1, 1]], "S": [[1], [1]], "lag": 1},
         1, False, "lag-1"),
        ({"A": [[2]], "B": [[2]], "R": [[2]], "S": [[2]], "lag": 2}, 0, True, "lag-2"),
        ({"A": [[2]], "B": [[3]], "R": [[2]], "S": [[2]], "lag": 2}, 1, False, "lag-2"),
        ({"A": [[2]], "B": [[2]], "chain": [{"R": [[1, 1]], "S": [[1], [1]]},
                                            {"R": [[1], [1]], "S": [[1, 1]]}]},
         0, True, "strong-chain"),
    ])
    def test_verify_reports(self, capsys, tmp_path, cert, code, valid, kind):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        want = (f'{{\n  "certificate": "{kind}",\n  "valid": {str(valid).lower()}\n}}\n')
        assert run(capsys, "sse-verify", "--input", str(path), "--format", "json") == \
            (code, want, "")
        assert run(capsys, "sse-verify", "--input", str(path)) == \
            (code, f"certificate: {kind}\nvalid: {'yes' if valid else 'no'}\n", "")

    def test_verify_lag_one_shape_error(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"A": [[2]], "B": [[1, 1], [1, 1]], "R": [[1]],
                                    "S": [[1], [1]], "lag": 1}))
        assert run(capsys, "sse-verify", "--input", str(path)) == \
            (2, "", "error: shape mismatch: need R 1x2 and S 2x1, got (1, 1) and (2, 1)\n")

    def test_search(self, capsys):
        code, out, _ = run(capsys, "sse-search", "--input", str(DATA / "search_pair.json"),
                           "--inner-dim", "2", "--entry-bound", "1", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["R"] == [[1, 1]] and rep["S"] == [[1], [1]]

    def test_invariants(self, capsys):
        code, out, _ = run(capsys, "invariants", "--input", str(DATA / "mat3.json"),
                           "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["bowen_franks"] == [2] and rep["det"] == -2

    def test_conjugacy_tables(self, capsys):
        code, out, _ = run(capsys, "conjugacy",
                           "--input", str(DATA / "cert_elementary.json"),
                           "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert len(rep["alpha"]) == 2 and len(rep["beta"]) == 4

    def test_conjugacy_one_step_chain(self, capsys, tmp_path):
        cert = json.loads((DATA / "cert_elementary.json").read_text())
        lag1 = run(capsys, "conjugacy", "--input", str(DATA / "cert_elementary.json"),
                   "--format", "json")
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"A": cert["A"], "B": cert["B"],
                                     "chain": [{"R": cert["R"], "S": cert["S"]}]}))
        assert run(capsys, "conjugacy", "--input", str(chain), "--format", "json") == lag1

    def test_conjugacy_rejects_longer_chain(self, capsys, tmp_path):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"A": [[1, 1], [1, 1]], "B": [[1, 1], [1, 1]],
                                     "chain": [{"R": [[1], [1]], "S": [[1, 1]]},
                                               {"R": [[1, 1]], "S": [[1], [1]]}]}))
        code, _, _ = run(capsys, "sse-verify", "--input", str(chain), "--format", "json")
        assert code == 0
        code, out, err = run(capsys, "conjugacy", "--input", str(chain), "--format", "json")
        assert code == 2 and out == ""
        assert "one-step certificate" in err and "2 steps" in err

    def test_conjugacy_rejects_lag(self, capsys, tmp_path):
        cert = tmp_path / "lag2.json"
        cert.write_text(json.dumps({"A": [[2]], "B": [[2]], "R": [[2]], "S": [[1]],
                                    "lag": 2}))
        code, out, err = run(capsys, "conjugacy", "--input", str(cert), "--format", "json")
        assert code == 2 and out == ""
        assert "lag-1" in err and "lag 2" in err


    @pytest.mark.parametrize("change, code, message", (
        ({"A": [[1, 1]]}, 2, "error: A must be square\n"),
        ({"R": [[-1], [1]]}, 2, "error: R must be entrywise nonnegative\n"),
        ({"B": [[3]]}, 1, ""),
    ))
    def test_conjugacy_input_errors_exit_2(self, capsys, tmp_path, change, code, message):
        # a malformed pair is an input error, as in sse-verify; only a
        # well-formed pair that fails A = RS or B = SR is reported invalid
        cert = {"A": [[1, 1], [1, 1]], "B": [[2]], "R": [[1], [1]], "S": [[1, 1]], **change}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        if code == 2:
            assert run(capsys, "sse-verify", "--input", str(path))[::2] == (2, message)
        got, out, err = run(capsys, "conjugacy", "--input", str(path), "--format", "json")
        assert (got, err) == (code, message)
        assert out == ('{\n  "valid": false\n}\n' if code == 1 else "")


class TestRn:
    def test_full_shift(self, capsys):
        code, out, _ = run(capsys, "rn", "--input", str(DATA / "full2.json"),
                           "--max-period", "1", "--depth", "2", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["num_classes"] == 4
        assert all(len(c) == 2 for c in rep["classes"])

    def test_infinite_model_is_2(self, capsys):
        code, out, err = run(capsys, "rn", "--input", str(DATA / "ray.json"))
        assert (code, out, err) == (2, "", "error: rn needs a finite graph\n")


class TestDeepAndLarge:
    """Inputs far beyond the interpreter's recursion depth and vertex
    counts no matrix could hold."""

    @pytest.fixture
    def one_loop(self, tmp_path):
        p = tmp_path / "one.json"
        p.write_text('{"type":"finite","rows":[[1]]}')
        return str(p)

    def test_deep_spectrum(self, capsys, one_loop):
        code, out, _ = run(capsys, "spectrum", "--input", one_loop, "--depth", "1500",
                           "--format", "json")
        rep = json.loads(out)
        assert code == 0 and rep["count"] == 1
        assert rep["points"] == [",".join(["1"] * 1501)]

    def test_deep_periodic(self, capsys, one_loop):
        code, out, _ = run(capsys, "periodic", "--input", one_loop,
                           "--max-period", "2000", "--format", "json")
        rep = json.loads(out)
        assert code == 1
        assert rep["records"] == [{"preperiod": 0, "period": 1, "loop": [1, 1],
                                   "isolated": True}]
        assert set(rep["strict_counts_dividing"].values()) == {1}

    def test_deep_essential_freeness(self, capsys, one_loop):
        code, out, _ = run(capsys, "essential-freeness", "--input", one_loop,
                           "--depth", "1200", "--format", "json")
        rep = json.loads(out)
        assert code == 1
        assert all(p["violation"] and p["witness_cylinder"] == [1] for p in rep["pairs"])

    @pytest.mark.parametrize("verb", ["classify", "jset"])
    def test_huge_block_class(self, capsys, tmp_path, verb):
        p = tmp_path / "big.json"
        p.write_text('{"type":"block","classes":[{"card":1000000000}],"block":[[1]]}')
        start = time.perf_counter()
        code, out, _ = run(capsys, verb, "--input", str(p), "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        if verb == "jset":
            assert json.loads(out)["cluster_patterns"] == []

    def test_far_explicit_boundary_vertex(self, capsys, tmp_path):
        # the class pattern covers every bare vertex past 10^9 at once
        p = tmp_path / "block.json"
        p.write_text('{"type":"block","classes":[{"card":1},{"card":"inf"}],'
                     '"block":[[1,1],[0,0]]}')
        start = time.perf_counter()
        code, _, err = run(capsys, "spectrum", "--depth", "1", "--input", str(p), "--boundary",
                           '[{"finite":[1]},{"classes":[2]},{"finite":[1000000000]}]')
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")


class TestContract:
    def test_usage_error_is_2(self, capsys):
        assert usage_error(capsys, "classify") == "error: --input is required\n"

    def test_unknown_option_is_2(self, capsys):
        err = usage_error(capsys, "classify", "--input", str(DATA / "full2.json"), "--bogus")
        assert err == "error: unknown option '--bogus'\n"

    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type":"finite","rows":[[0,1]]}')
        code, out, err = run(capsys, "classify", "--input", str(bad))
        assert code == 2 and "square" in err

    def test_empty_finite_graph_is_2(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text('{"type":"finite","rows":[]}')
        code, out, err = run(capsys, "classify", "--input", str(p))
        assert code == 2 and out == "" and "at least one vertex" in err

    def test_unknown_verb_is_2(self, capsys):
        err = usage_error(capsys, "no-such-verb", "--input", str(DATA / "full2.json"))
        assert err == "error: unknown verb 'no-such-verb'\n"

    def test_missing_file_is_2(self, capsys):
        code, _, err = run(capsys, "classify", "--input", "/nonexistent.json")
        assert code == 2 and "cannot read" in err

    def test_undecodable_file_is_2(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"type":"finite","rows":[[1]],"note":"\xe9"}')
        code, out, err = run(capsys, "classify", "--input", str(p))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {p}: 'utf-8' codec can't decode")

    def test_wrong_shape_inputs_are_2(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        p.write_text("[1, 2, 3]")
        code, _, err = run(capsys, "sse-search", "--input", str(p))
        assert code == 2 and "must be a JSON object" in err
        p.write_text('{"B": [[1]]}')
        code, _, err = run(capsys, "invariants", "--input", str(p))
        assert code == 2 and "input.A" in err
        code, _, err = run(capsys, "periodic", "--input",
                           str(DATA / "golden_mean.json"), "--max-period", "0")
        assert code == 2

    def test_byte_identical_reruns(self, capsys):
        args = ("ck-verify", "--input", str(DATA / "full2.json"),
                "--boundary", '[{"finite":[1,2]}]', "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_golden_files(self, capsys):
        for argv, golden in (
            (("classify", "--input", str(DATA / "golden_mean.json"),
              "--format", "json"), "golden_classify_expected.json"),
            (("periodic", "--input", str(DATA / "two_cycle.json"),
              "--max-period", "3", "--format", "json"),
             "golden_periodic_expected.json"),
            (("spectrum", "--input", str(DATA / "golden_mean.json"), "--depth", "3",
              "--boundary", '[{"finite":[1,2]}]', "--format", "json"),
             "golden_spectrum_expected.json"),
            (("essential-freeness", "--input", str(DATA / "golden_mean.json"),
              "--depth", "4", "--format", "json"), "golden_essential_freeness_expected.json"),
            # an exit-free loop 2, 3, 2 that avoids vertex 1: (L) fails with a witness
            (("classify", "--input", str(DATA / "exit_free_loop.json"),
              "--format", "json"), "exit_free_loop_classify_expected.json"),
            # a self-loop prefix vertex and a tail that climbs by 2000
            (("classify", "--input", str(DATA / "banded_far.json"),
              "--format", "json"), "banded_far_classify_expected.json"),
            # classify's verdicts are sufficient criteria: simple fails on a graph
            # whose O_A is simple, and purely_infinite is met where (K) fails
            (("classify", "--input", str(DATA / "simple_not_irreducible.json"),
              "--format", "json"), "simple_not_irreducible_classify_expected.json"),
            (("classify", "--input", str(DATA / "purely_infinite_without_k.json"),
              "--format", "json"), "purely_infinite_without_k_classify_expected.json"),
            (("rn", "--input", str(DATA / "golden_mean.json"), "--max-period", "2",
              "--depth", "3", "--format", "json"), "golden_mean_rn_expected.json"),
            (("invariants", "--input", str(DATA / "mat3.json"), "--format", "json"),
             "mat3_invariants_expected.json"),
            (("sse-verify", "--input", str(DATA / "cert_elementary.json"), "--format", "json"),
             "cert_elementary_sse_verify_expected.json"),
            (("sse-search", "--input", str(DATA / "search_pair.json"), "--inner-dim", "2",
              "--entry-bound", "1", "--format", "json"), "search_pair_sse_search_expected.json"),
            (("conjugacy", "--input", str(DATA / "cert_elementary.json"), "--format", "json"),
             "cert_elementary_conjugacy_expected.json"),
        ):
            _, out, _ = run(capsys, *argv)
            assert out == (DATA / golden).read_text()

    def test_large_offset_classify_in_bounded_memory(self, tmp_path):
        # the banded window holds successor rows, never a window-squared
        # matrix: offset 5000 classifies under a 512 MiB address-space cap,
        # with the report of offset 2000, which the offset does not change
        resource = pytest.importorskip("resource")
        cap = 512 << 20
        p = tmp_path / "banded_far_5000.json"
        p.write_text('{"type": "banded", "prefix": [[1]], "cutoff": 1, "offsets": [5000], '
                     '"cross": [[0]]}')
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ckshift.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "ckshift.cli", "classify", "--input", str(p),
             "--format", "json"],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout == (DATA / "banded_far_classify_expected.json").read_text()

    @pytest.mark.parametrize("graph, classify_code", (("banded", 1), ("block_inf", 0)))
    def test_infinite_golden_files(self, capsys, graph, classify_code):
        # a banded tail and an infinite block pattern, one report per verb
        for verb, extra, code in (("classify", (), classify_code), ("jset", (), 0),
                                  ("spectrum", ("--depth", "2"), 0),
                                  ("ck-verify", ("--depth", "4"), 0)):
            got = run(capsys, verb, "--input", str(DATA / f"{graph}.json"),
                      "--format", "json", *extra)
            golden = DATA / f"{graph}_{verb.replace('-', '_')}_expected.json"
            assert got == (code, golden.read_text(), "")

    def test_no_floats_in_json(self, capsys):
        for verb, path in (("classify", "golden_mean.json"),
                           ("invariants", "mat3.json"),
                           ("periodic", "golden_mean.json")):
            _, out, _ = run(capsys, verb, "--input", str(DATA / path),
                            "--format", "json")
            def no_floats(x):
                if isinstance(x, float):
                    return False
                if isinstance(x, dict):
                    return all(no_floats(v) for v in x.values())
                if isinstance(x, list):
                    return all(no_floats(v) for v in x)
                return True
            assert no_floats(json.loads(out))

    def test_optimized_interpreter_same_output(self):
        # python -O strips assert statements; the invariant checks must not rely on them
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ckshift.__file__).parents[1]))
        for argv, code in ((("ck-verify", "--input", str(DATA / "full2.json"),
                             "--boundary", '[{"finite":[1,2]}]', "--format", "json"), 1),
                           (("invariants", "--input", str(DATA / "mat3.json")), 0)):
            normal, optimized = (
                subprocess.run([sys.executable, *flags, "-m", "ckshift.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
                for flags in ((), ("-O",)))
            assert normal.returncode == code and normal.stdout, argv
            assert (optimized.returncode, optimized.stdout) == \
                (normal.returncode, normal.stdout), argv

    def test_deep_nesting_is_2(self, tmp_path):
        # JSON nested past the decoder's recursion limit is an input error,
        # from a file or from --boundary, never a traceback
        deep = "[" * 100000 + "]" * 100000
        p = tmp_path / "deep.json"
        p.write_text(deep)
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ckshift.__file__).parents[1]))
        for argv in (("classify", "--input", str(p)),
                     ("invariants", "--input", str(p)),
                     ("ck-verify", "--input", str(DATA / "golden_mean.json"),
                      "--boundary", deep[:20000] + deep[-20000:])):
            proc = subprocess.run([sys.executable, "-m", "ckshift.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 2, argv[0]
            assert proc.stdout == "" and "Traceback" not in proc.stderr, argv[0]
            assert proc.stderr.startswith("error: "), argv[0]
            assert "internal error" not in proc.stderr, argv[0]

    def test_rejected_value_is_quoted_briefly(self, tmp_path, capsys):
        # a bad entry decoded from deep nesting is quoted in at most 80
        # characters, not in full; out of process, so that the decoder's
        # depth limit is the command's own
        depth = 950
        p = tmp_path / "deep-entry.json"
        p.write_text('{"type":"finite","rows":[[' + "[" * depth + "]" * depth + "]]}")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ckshift.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "ckshift.cli", "classify",
                               "--input", str(p)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: rows[1][1] must be 0 or 1, got " + "[" * 79 + "…\n"
        # a short value keeps its whole repr
        p.write_text('{"type":"finite","rows":[[0,"x"],[1,0]]}')
        code, out, err = run(capsys, "classify", "--input", str(p))
        assert (code, out, err) == (2, "", "error: rows[1][2] must be 0 or 1, got 'x'\n")

    @staticmethod
    def faulty_handler(args):
        raise RuntimeError("handler fault")

    @staticmethod
    def float_report(args):
        return {"ratio": 0.5}, 0  # the emitter refuses a float

    @pytest.mark.parametrize("handler, message", [
        ("faulty_handler", "RuntimeError: handler fault"),
        ("float_report", "TypeError: a report cannot hold a float"),
    ])
    def test_internal_error_is_one_line(self, handler, message, monkeypatch, capsys):
        monkeypatch.setitem(cli._HANDLERS, "classify", getattr(self, handler))
        code = main(["classify", "--input", str(DATA / "full2.json"), "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: internal error: {message}\n")

    def test_parser_is_built_once(self, capsys):
        usage_error(capsys, "classify")  # a usage error leaves nothing behind
        for argv, golden in (
            (("classify", "--input", str(DATA / "golden_mean.json"),
              "--format", "json"), "golden_classify_expected.json"),
            (("periodic", "--input", str(DATA / "two_cycle.json"),
              "--max-period", "3", "--format", "json"),
             "golden_periodic_expected.json"),
        ):
            for _ in range(2):
                _, out, _ = run(capsys, *argv)
                assert out == (DATA / golden).read_text()


# ---------------------------------------------------------------------------
# The argv grammar against the argparse parser it replaced

VERBS = tuple(cli._HANDLERS)
FLAGS = ("--input", "--depth", "--max-period", "--entry-bound", "--inner-dim",
         "--boundary", "--format")


def argparse_oracle() -> argparse.ArgumentParser:
    """The parser ``cli`` used before its flag table, kept as the reference."""
    parser = argparse.ArgumentParser(prog="ckshift")
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("--input", required=True)
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--max-period", type=int, default=6, dest="max_period")
    parser.add_argument("--entry-bound", type=int, default=3, dest="entry_bound")
    parser.add_argument("--inner-dim", type=int, default=4, dest="inner_dim")
    parser.add_argument("--boundary", default="auto")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


ORACLE = argparse_oracle()
JUNK = ("--bogus", "-x", "stray")
WORDS = ("text", "json", "xml", "auto", '"all"', '[{"finite": [1]}]', "{}", "",
         "-1.5", "-.5", "in.json")


@st.composite
def cli_argvs(draw):
    """argv over the exact vocabulary of the grammar: verbs, the seven flags
    in both forms, integers, format names, JSON strings and junk."""
    ints = st.integers(-12, 12).map(str)
    anything = ints | st.sampled_from(WORDS + VERBS + FLAGS + JUNK)
    argv = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("separate",) * 4 + ("equals",) * 3 + ("verb", "junk")))
        flag = draw(st.sampled_from(FLAGS))
        # a value the flag takes three times in four, else any token
        fitting = {"--input": st.sampled_from(WORDS), "--boundary": st.sampled_from(WORDS),
                   "--format": st.sampled_from(("text", "json"))}.get(flag, ints)
        value = draw(fitting if draw(st.integers(0, 3)) else anything)
        if kind == "separate":
            argv += [flag, value]
        elif kind == "equals":
            argv.append(f"{flag}={value}")
        else:
            argv.append(draw(st.sampled_from(VERBS if kind == "verb" else JUNK)))
    if draw(st.integers(0, 3)):  # most argvs a user types name one verb and an input
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(VERBS)))
        argv[draw(st.integers(0, len(argv))):0] = ["--input", "in.json"]
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.sampled_from(FLAGS)))  # a flag left without its value
    return argv


class TestArgvGrammar:
    @settings(max_examples=1500, deadline=None)
    @given(argv=cli_argvs())
    def test_matches_argparse(self, argv):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = vars(ORACLE.parse_args(argv))
            except SystemExit:
                expected = None
        try:
            got = vars(cli.parse_args(argv))
        except ValidationError:
            got = None
        assert got == expected, argv
        if got is None:  # main reports the same usage error and raises nothing
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(argv) == 2
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1

    def test_forms(self):
        args = cli.parse_args(["--format=json", "--depth", "-3", "--input=a=b.json",
                               "--depth=4", "rn", "--boundary", "-1"])
        assert vars(args) == {"verb": "rn", "input": "a=b.json", "depth": 4, "max_period": 6,
                              "entry_bound": 3, "inner_dim": 4, "boundary": "-1",
                              "format": "json"}

    @pytest.mark.parametrize("argv, message", (
        (("classify", "--inp", "x"), "unknown option '--inp'"),  # argparse took abbreviations
        (("classify", "--input", "x", "--", "y"), "unknown option '--'"),
        (("classify", "--input", "--depth", "3"), "--input needs a value"),
        (("classify", "--input", "x", "--depth", "three"), "--depth: invalid value 'three'"),
        (("classify", "--input", "x", "--format", "xml"), "--format: invalid value 'xml'"),
        (("classify", "jset", "--input", "x"), "unexpected argument 'jset'"),
        (("--input", "x"), "missing verb"),
    ))
    def test_usage_errors_name_the_token(self, argv, message, capsys):
        assert usage_error(capsys, *argv) == f"error: {message}\n"

    @pytest.mark.parametrize("argv", (("-h",), ("--help",), ("classify", "--bogus", "-h")))
    def test_help(self, argv, capsys):
        assert main(list(argv)) == 0
        out, err = capsys.readouterr()
        assert out == cli.USAGE + "\n" and out.startswith("usage: ckshift") and err == ""


# ---------------------------------------------------------------------------
# The JSON report encoder against json.dumps

TEXT = st.text(st.characters(exclude_categories=()))  # controls, surrogates, non-BMP
INTS = st.integers() | st.integers(-(10 ** 80), 10 ** 80)


@st.composite
def record_lists(draw, values):
    """A list of dicts with one key set, as the encoder writes in bulk, or
    with one dict given an extra key or short of one."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    records = [{k: draw(values) for k in keys} for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        record = draw(st.sampled_from(records))
        key = draw(st.sampled_from(keys) | TEXT)
        if key in record:
            del record[key]
        else:
            record[key] = draw(values)
    return records


def report_values(depth):
    leaves = st.none() | st.booleans() | INTS | TEXT
    if depth == 0:
        return leaves
    inner = report_values(depth - 1)
    # int lists of mixed lengths, empty ones included, and with a bool in them
    int_lists = st.lists(st.lists(INTS, max_size=4) | st.lists(INTS | st.booleans(), max_size=3),
                         min_size=1, max_size=5)
    fields = leaves | st.lists(INTS, max_size=4) | st.lists(st.booleans(), max_size=4) | inner
    return (leaves | st.lists(inner, max_size=4) | st.lists(INTS, max_size=6)
            | st.lists(TEXT, max_size=6) | st.dictionaries(TEXT, inner, max_size=4)
            | st.lists(st.booleans(), min_size=1, max_size=6) | int_lists
            | record_lists(fields | st.lists(INTS, min_size=1, max_size=3))
            | st.lists(inner, min_size=1, max_size=1)
            | st.lists(leaves | st.lists(INTS, max_size=2), min_size=2, max_size=5))


class TestJsonEmitter:
    @settings(max_examples=400, deadline=None)
    @given(value=report_values(4))
    def test_matches_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [1.5, {"a": (1, 2)}, {1: "a"}, [1, 2.0], {"a": {"b": 0.0}},
                                       [{"a": 1}, {"a": 1.5}], [{"a": [1]}, {"a": (1,)}],
                                       [{"a": [1, 2.0]}, {"a": []}], [{1: "a"}, {1: "b"}],
                                       [[1], [2.0]], [[1], [(1,)]]])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._json(value)


# ---------------------------------------------------------------------------
# Malformed and well-formed inputs for the four matrix verbs

MATRIX_KINDS = ("square",) * 6 + ("negative", "non-square", "ragged", "bool", "float",
                                  "nested", "empty", "empty-row", "not-a-list")


@st.composite
def fuzz_matrices(draw, max_dim=3):
    kind = draw(st.sampled_from(MATRIX_KINDS))
    if kind == "empty":
        return []
    if kind == "empty-row":
        return [[]]
    if kind == "not-a-list":
        return draw(st.sampled_from((3, "[[1]]", None, {"rows": [[1]]})))
    n = draw(st.integers(1, max_dim))
    lo = -2 if kind == "negative" else 0
    rows = [[draw(st.integers(lo, 2)) for _ in range(n)] for _ in range(n)]
    if kind == "non-square":
        rows = rows[:-1] if n > 1 else rows + [[1]]
    elif kind == "ragged":
        rows[-1].append(1)
    elif kind in ("bool", "float", "nested"):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = {"bool": True, "float": 1.0, "nested": [1]}[kind]
    return rows


@st.composite
def fuzz_certificates(draw, max_dim=3):
    if draw(st.booleans()):
        # a consistent elementary pair A = RS, B = SR
        n, p = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
        R = [[draw(st.integers(0, 2)) for _ in range(p)] for _ in range(n)]
        S = [[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(p)]
        A = [[sum(R[i][k] * S[k][j] for k in range(p)) for j in range(n)] for i in range(n)]
        B = [[sum(S[i][k] * R[k][j] for k in range(n)) for j in range(p)] for i in range(p)]
    else:
        A, B, R, S = (draw(fuzz_matrices(max_dim)) for _ in range(4))
    cert = {"A": A, "B": B}
    shape = draw(st.sampled_from(("pair", "lag", "chain", "empty-chain", "one-sided",
                                  "missing-S", "not-an-object")))
    if shape == "not-an-object":
        return draw(st.sampled_from(([A], "cert", 7)))
    if shape == "pair":
        cert.update(R=R, S=S)
    elif shape == "lag":
        cert.update(R=R, S=S, lag=draw(st.sampled_from((0, -1, True, 1, 2, 1.0, "1"))))
    elif shape == "chain":
        cert["chain"] = [{"R": R, "S": S}] * draw(st.integers(1, 2))
    elif shape == "empty-chain":
        cert["chain"] = draw(st.sampled_from(([], {}, "R")))
    elif shape == "one-sided":
        cert["chain"] = [draw(st.sampled_from(({"R": R}, {"S": S}, [R, S])))]
    else:
        cert["R"] = R
    return cert


@st.composite
def fuzz_matrix_inputs(draw, verb):
    args = ["--format", draw(st.sampled_from(("text", "json")))]
    if verb == "sse-search":
        bound, inner = (draw(st.sampled_from((-1, 0, 1, 1, 2, 2))) for _ in range(2))
        args += ["--entry-bound", str(bound), "--inner-dim", str(inner)]
        # at entry bound 2 a 3x3 A and 2x2 B could mean 3^12 candidate pairs
        max_dim = 2 if bound == 2 else 3
        obj = {"A": draw(fuzz_matrices(max_dim)), "B": draw(fuzz_matrices(max_dim))}
        obj = draw(st.sampled_from((obj, obj, {"A": obj["A"]}, [obj["A"], obj["B"]])))
    elif verb == "invariants":
        A = draw(fuzz_matrices())
        obj = draw(st.sampled_from(({"A": A}, A, {"type": "finite", "rows": A}, {})))
    else:
        obj = draw(fuzz_certificates())
    return obj, args


def run_fuzzed(verb, obj, args, tmp_path_factory):
    """Run one fuzzed input in process; hypothesis cannot take the
    function-scoped ``capsys``, so the streams are redirected here.  Every
    input gets exit 0, 1 or 2 and a report or an error line; no exception
    escapes a handler, not even as an internal-error line."""
    path = tmp_path_factory.getbasetemp() / f"fuzz-{verb}.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, "--input", str(path), *args])
    assert code in (0, 1, 2), (obj, args, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue(), (obj, args, err.getvalue())
    assert (code == 2) == bool(err.getvalue()), (obj, args, err.getvalue())


class TestMatrixVerbFuzz:
    @pytest.mark.parametrize("verb", ("invariants", "sse-verify", "sse-search", "conjugacy"))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_no_traceback(self, verb, data, tmp_path_factory):
        obj, args = data.draw(fuzz_matrix_inputs(verb))
        run_fuzzed(verb, obj, args, tmp_path_factory)


# ---------------------------------------------------------------------------
# Malformed and well-formed inputs for the seven graph verbs.  Graphs keep
# within 4 vertices (an infinite class aside), depth 3 and max-period 4.

BAD_BITS = (2, -1, True, 1.0, "1", None, [1])
BAD_COUNTS = (0, -1, True, 1.5, "2", None)


def bit_rows(draw, rows, cols):
    # ones are drawn twice as often as zeros, so that fewer models fail
    # validation over a sink vertex
    return [[draw(st.sampled_from((0, 1, 1))) for _ in range(cols)] for _ in range(rows)]


def spoil_rows(draw, rows):
    """A malformed variant of a 0/1 matrix: a bad entry, a missing or
    ragged row, or no list at all."""
    flaw = draw(st.sampled_from(("entry", "short", "ragged", "not-a-list")))
    rows = [list(r) for r in rows]
    if flaw == "entry" and rows and rows[0]:
        rows[draw(st.integers(0, len(rows) - 1))][0] = draw(st.sampled_from(BAD_BITS))
    elif flaw == "short":
        rows = rows[:-1]
    elif flaw == "ragged":
        rows.append([1])
    else:
        rows = draw(st.sampled_from((1, "[[1]]", [1, 0], None)))
    return rows


@st.composite
def fuzz_graphs(draw):
    kind = draw(st.sampled_from(("finite", "block", "banded") * 3 + ("not-a-graph",)))
    spoil = draw(st.integers(0, 3)) == 0
    if kind == "finite":
        n = draw(st.integers(1, 4))
        rows = bit_rows(draw, n, n)
        return {"type": "finite", "rows": spoil_rows(draw, rows) if spoil else rows}
    if kind == "block":
        k = draw(st.integers(1, 3))
        cards: list = [draw(st.integers(1, 4 // k)) for _ in range(k)]
        if draw(st.booleans()):
            cards[-1] = "inf"
        block = bit_rows(draw, k, k)
        flaw = draw(st.sampled_from(("card", "inf-first", "block", "class"))) if spoil else None
        if flaw == "card":
            cards[draw(st.integers(0, k - 1))] = draw(st.sampled_from(BAD_COUNTS))
        elif flaw == "inf-first":
            cards = ["inf"] + cards
        elif flaw == "block":
            block = spoil_rows(draw, block)
        classes = [{"card": c} for c in cards]
        if flaw == "class":
            classes = draw(st.sampled_from(([3], {"card": 1}, [{"size": 1}])))
        return {"type": "block", "classes": classes, "block": block}
    if kind == "banded":
        cutoff = draw(st.integers(0, 2))
        offsets = sorted(draw(st.sets(st.integers(1, 3), max_size=2)))
        # a cross edge must land in the tail
        cross = [[draw(st.integers(0, 1)) if i + o > cutoff else 0 for o in offsets]
                 for i in range(1, cutoff + 1)]
        graph = {"type": "banded", "prefix": bit_rows(draw, cutoff, cutoff),
                 "cutoff": cutoff, "offsets": offsets, "cross": cross}
        flaw = draw(st.sampled_from(("offset", "cutoff", "prefix", "cross"))) if spoil else None
        if flaw == "offset":
            graph["offsets"] = offsets + [draw(st.sampled_from(BAD_COUNTS + ([1], "a")))]
        elif flaw == "cutoff":
            graph["cutoff"] = draw(st.sampled_from(BAD_COUNTS[1:] + (cutoff + 1,)))
        elif flaw in ("prefix", "cross"):
            graph[flaw] = spoil_rows(draw, graph[flaw])
        return graph
    return draw(st.sampled_from(([[1]], "finite", None, {"type": "cyclic"}, {"rows": [[1]]})))


@st.composite
def fuzz_boundaries(draw):
    if draw(st.integers(0, 2)):
        return "auto"
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(('"all"', "{}", "[1]", "[{\"finite\": 1}]", "[")))
    vertex = st.sampled_from((1, 2, 3, 4) * 3 + (5, 0, -1, True, "1"))
    class_id = st.sampled_from((1, 2, 3, 0, True, False, "1"))
    family = [{"finite": draw(st.lists(vertex, max_size=2)),
               "classes": draw(st.lists(class_id, max_size=1))}
              for _ in range(draw(st.integers(0, 2)))]
    return json.dumps(family)


class TestGraphVerbFuzz:
    @pytest.mark.parametrize("verb", ("classify", "spectrum", "ck-verify",
                                      "essential-freeness", "periodic", "jset", "rn"))
    @settings(max_examples=100, deadline=None)
    @given(graph=fuzz_graphs(), boundary=fuzz_boundaries(),
           depth=st.sampled_from((-1, 0, 1, 2, 3, 3, 3)),  # essential-freeness needs 3
           max_period=st.sampled_from((-1, 0, 1, 2, 3, 4)),
           fmt=st.sampled_from(("text", "json")))
    def test_exit_code_and_no_traceback(self, verb, graph, boundary, depth, max_period,
                                        fmt, tmp_path_factory):
        args = ["--boundary", boundary, "--depth", str(depth),
                "--max-period", str(max_period), "--format", fmt]
        run_fuzzed(verb, graph, args, tmp_path_factory)
