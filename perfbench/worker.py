"""One round of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py WORKDIR ROUND MODE TRACED

Reads WORKDIR/plan.json, imports ckshift from the checkout's ``src`` and
parses every input (the set-up).  With MODE ``setup`` it stops there;
otherwise it runs the op list once, cold, and writes each op's output to
WORKDIR/round-ROUND.jsonl, in full with MODE ``full`` and as a digest
with MODE ``digest``.  The round's timings, and with TRACED 1 its
per-layer trace, go to WORKDIR/round-ROUND.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import ops  # noqa: E402  (the benchmark's own module; it does not import ckshift)


def run_round(workdir: str, index: int, mode: str, traced: bool) -> dict:
    with open(os.path.join(workdir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, SRC)
    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()

    started = time.perf_counter()
    import ckshift as ck
    import ckshift.cli  # noqa: F401  (loads formats and cli, as the ckshift command does)
    if tracer is not None:
        tracer.install(ck)
    objects = ops.setup(ck, plan, workdir)
    setup_s = time.perf_counter() - started
    summary = {"round": index, "mode": mode, "traced": traced, "setup_s": setup_s}
    if mode != "setup":
        summary.update(run_ops(ck, plan, objects, workdir, index, mode == "full"))
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        summary["functions"] = tracer.functions()
        tracer.write(os.path.join(workdir, f"spans-{index}.bin"))
    with open(os.path.join(workdir, f"round-{index}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return summary


def run_ops(ck, plan: dict, objects: dict, workdir: str, index: int, full: bool) -> dict:
    """Run the op list once; returns the latencies and the peak RSS."""
    latencies = []
    state: dict = {}
    out_path = os.path.join(workdir, f"round-{index}.jsonl")
    with open(out_path, "w", encoding="utf-8") as sink:
        for op in plan["ops"]:
            code = error = None
            try:
                if "verb" in op:
                    t0 = time.perf_counter()
                    try:
                        code, out, err = ops.run_cli(ck, op, workdir)
                    finally:
                        latency = time.perf_counter() - t0
                else:
                    run, encode = ops.LIB[op["lib"]]
                    t0 = time.perf_counter()
                    try:
                        result = run(ck, objects, state, op)
                    finally:
                        latency = time.perf_counter() - t0
                    out, err = encode(result), ""
            except Exception as exc:  # the op failed; record it and go on
                out, err = None, ""
                error = f"{type(exc).__name__}: {exc}"[:300]
            latencies.append(latency)
            text = out if isinstance(out, str) or out is None else json.dumps(out, sort_keys=True)
            record = {"code": code, "error": error, "stderr": err,
                      "digest": hashlib.sha256((text or "").encode()).hexdigest()}
            if full:
                record["out"] = text
            sink.write(json.dumps(record) + "\n")

    return {"latencies": latencies, "wall_s": sum(latencies), "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    """Peak resident set size of this process image.  Linux counts the
    parent's pages, copied before exec, in a child's ru_maxrss (a 13 MB
    child of a 213 MB parent reports 213 MB), so VmHWM is read instead
    where /proc has it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "ckshift", "__init__.py")):
        print(f"error: no ckshift sources under {SRC}", file=sys.stderr)
        return 2
    workdir, index, mode, traced = argv
    if mode not in ("setup", "digest", "full"):
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2
    run_round(workdir, int(index), mode, traced == "1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
