#!/usr/bin/env python3
"""Scaling curves, for reference only (not part of a benchmark run).

    python3 perfbench/scaling.py

Times one CLI call per point, each in a fresh worker process, and prints
a table: ck-verify on the all-ones n x n graph, n = 4..7; spectrum of the
full 2-shift with the Toeplitz family at levels 8..14; periodic on the
all-ones 3 x 3 graph with --max-period 6..10; classify on a two-class
block pattern of 50..300 vertices.  Inputs go to .bench_build/perfbench/scaling/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def ones(n):
    return workloads.finite([[1] * n for _ in range(n)])


def block(total):
    half = total // 2
    return {"type": "block", "classes": [{"card": half}, {"card": total - half}],
            "block": [[1, 1], [1, 0]]}


TOEPLITZ = workloads.dumps([{"finite": [1, 2], "classes": []}])

# (verb, what x is, [(x, graph, extra arguments)])
CURVES = (
    ("ck-verify", "all-ones n x n, n", [(n, ones(n), []) for n in range(4, 8)]),
    ("spectrum", "full 2-shift with the Toeplitz family, level",
     [(k, ones(2), ["--depth", str(k), "--boundary", TOEPLITZ]) for k in range(8, 15)]),
    ("periodic", "all-ones 3 x 3, max period",
     [(k, ones(3), ["--max-period", str(k)]) for k in range(6, 11)]),
    ("classify", "two-class block pattern, vertices",
     [(v, block(v), []) for v in (50, 100, 150, 200, 300)]),
)


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", "scaling")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for verb, title, points in CURVES:
        print(f"{verb}: {title}")
        for x, graph, args in points:
            plan = workloads.Plan("scaling", 0, workdir)
            plan.cli(verb, plan.file(graph), args)
            plan.write()
            subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), workdir, "0",
                            "digest", "0"], check=True, cwd=ROOT, timeout=600)
            with open(os.path.join(workdir, "round-0.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            print(f"  {x:>5}  {summary['latencies'][0]:10.3f} s  "
                  f"{summary['peak_rss_mb']:8.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
