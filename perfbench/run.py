#!/usr/bin/env python3
"""The ckshift benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  For each workload it generates the
inputs from the seed under .bench_build/perfbench/<workload>/, then runs
rounds until --seconds have passed (at least MIN_ROUNDS).  A round is one
fresh worker process that imports ckshift, parses the inputs and runs the
whole op list once, cold.  SETUP_PROBES more processes only import and
parse, so that setup_s is taken over many starts.  Processes run one
after another, so one core is busy at a time.  The first round's outputs are checked in full; every
later round must reproduce them byte for byte.

With --trace 0 it reports the end-to-end metrics, timed from the upper
quartile of each op's latencies over the rounds (see ``typical``), set-up
from the upper quartile of the starts and memory as the median over
rounds.  With --trace 1 it alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones (the upper quartile over
traced rounds), plus trace.overhead_s, the traced minus the untraced
wall_s.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

MIN_ROUNDS = 3  # untraced; a traced run needs one traced and one untraced round
SETUP_PROBES = 4
ROUND_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def upper_quartile(values) -> float:
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def typical(rounds: list[dict]) -> list[float]:
    """Each op's upper-quartile latency over the rounds.  On a shared host
    the CPU runs at one of two speeds some 1.7x apart: mostly the slow one,
    with fast stretches whose share changes from minute to minute.  The
    minimum follows that share and the median flips when it nears a half;
    the upper quartile stays with the slow speed.  Over ten seeds of
    ck_relations and of matrix_invariants, wall_s and the op percentiles
    spread 0.05-0.07 (quartile distance over median) with it, 0.06-0.27
    with the minimum and 0.06-0.10 with the median."""
    return [upper_quartile(times) for times in zip(*(r["latencies"] for r in rounds))]


def run_round(workdir: str, index: int, mode: str, traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workdir, str(index), mode,
           str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"round {index} exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"round {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(os.path.join(workdir, f"round-{index}.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if mode != "setup":
        with open(os.path.join(workdir, f"round-{index}.jsonl"), encoding="utf-8") as fh:
            summary["records"] = [json.loads(line) for line in fh]
    return summary


def account(name: str, plan: dict, rounds: list[dict]) -> tuple[bool, int, int]:
    """Check the first round of each kind in full and every other round by
    digest; returns (correct, attempted, failed) over all rounds."""
    failed_checks: dict[int, str] = {}
    for r in rounds:
        if r["mode"] == "full":
            for i, msg in checks.check(plan, r["records"]).items():
                failed_checks.setdefault(i, msg)
    reference = [rec["digest"] for rec in rounds[0]["records"]]
    correct, attempted, failed, reported = True, 0, 0, set()
    for r in rounds:
        for i, (op, rec) in enumerate(zip(plan["ops"], r["records"])):
            attempted += 1
            if rec["error"] is not None:
                problem, wrong = rec["error"], not op.get("known_fault")
            elif rec["code"] == 2:
                problem, wrong = "exit 2", True
            elif i in failed_checks:
                problem, wrong = failed_checks[i], True
            elif rec["digest"] != reference[i]:
                problem, wrong = "output differs from the first round", True
            else:
                continue
            failed += 1
            correct = correct and not wrong
            if i not in reported:
                reported.add(i)
                print(f"[{name}] op {i} ({op.get('verb') or op['lib']}) failed: {problem}",
                      file=sys.stderr)
    return correct, attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", name)
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.generate(name, seed, workdir)

    started = time.monotonic()
    probes = [] if trace else [run_round(workdir, k, "setup", False) for k in range(SETUP_PROBES)]
    rounds: list[dict] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        mode = "digest" if any(r["traced"] == traced for r in rounds) else "full"
        t0 = time.monotonic()
        summary = run_round(workdir, len(probes) + len(rounds), mode, traced)
        summary["elapsed"] = time.monotonic() - t0
        rounds.append(summary)
        if len(rounds) >= (2 if trace else MIN_ROUNDS):
            # start another round only if it should end within the budget
            next_traced = trace and len(rounds) % 2 == 1
            last = [r["elapsed"] for r in rounds if r["traced"] == next_traced][-1]
            if time.monotonic() - started + last > seconds:
                break

    t0 = time.monotonic()
    correct, attempted, failed = account(name, plan, rounds)
    print(f"[{name}] {len(probes)} set-ups and {len(rounds)} rounds in "
          f"{t0 - started:.1f} s, checked in {time.monotonic() - t0:.1f} s", file=sys.stderr)

    untraced = [r for r in rounds if not r["traced"]]
    per_op = typical(untraced)
    e2e = {
        "setup_s": upper_quartile(r["setup_s"] for r in probes + untraced),
        "wall_s": sum(per_op),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_p90_ms": 1000 * percentile(per_op, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = {}
        for metric, unit, _ in LAYER_METRICS:
            if metric == "trace.overhead_s":
                value = sum(typical(traced_rounds)) - e2e["wall_s"]
            else:
                value = upper_quartile(r["layers"].get(metric, 0) for r in traced_rounds)
            metrics[metric] = {"value": value, "unit": unit}
    else:
        metrics = {m: {"value": e2e[m], "unit": unit} for m, unit in END_TO_END}
    return {"workload": name, "correct": correct, "attempted": attempted, "failed": failed,
            "rounds": len(rounds), "ops": len(plan["ops"]), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ckshift", "__init__.py")):
        print(f"error: no ckshift sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results.append(res)
            print(f"{name}: seed {args.seed}, {res['rounds']} rounds of {res['ops']} ops, "
                  f"attempted {res['attempted']}, failed {res['failed']}, "
                  f"correct {str(res['correct']).lower()}")
            for metric, m in res["metrics"].items():
                print(f"  {metric:44s} {m['value']:14.6f} {m['unit']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
