"""Scaling report: the benchmark's generators at four sizes each.

    python3 bench/scaling.py --seed 1

For every workload and size it runs the jobs once untraced (analyze_s or
synthesize_s) and once traced, and prints the per-layer self times that
take the most time.  The inputs are those of the gated workloads (the
same generators, layouts and zones), only larger or smaller.  This runs
on demand and gates nothing; on a 2-core machine the largest sizes take
minutes each (the 800-rule analysis most of all).
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads as wk  # noqa: E402

LADDERS = {
    "analyze-wide": ("rules", (100, 200, 400, 800)),
    "analyze-return": ("k", (4, 6, 7, 8)),
    "synthesize-mix": ("V", (20, 40, 60, 80)),
}
TOP_LAYERS = 6


def jobs_at(workload, size, seed, work):
    rng = random.Random(seed)
    if workload == "analyze-wide":
        return [wk.wide_case("wide", work, wk.wide_input(rng, 0, n_rules=size)).job]
    if workload == "analyze-return":
        return [wk.return_case("return", work, *wk.return_input(rng, 0, k=size)).job]
    return [c.job for c in wk.synthesis_cases(rng, work, size, size // 2)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__] + sys.argv[1:], env)
    work = ROOT / ".bench_work" / f"scaling-{os.getpid()}"
    try:
        for workload, (unit, sizes) in LADDERS.items():
            print(f"{workload}:")
            for size in sizes:
                jobs = jobs_at(workload, size, args.seed, work / f"{workload}-{size}")
                kind = "analyze_s" if jobs[0].kind == "analyze" else "synthesize_s"
                untraced = sum(wk.run_cli(j.argv, j.out_dir).seconds for j in jobs)
                tracer = tracing.Tracer()
                with tracer:
                    traced = sum(wk.run_cli(j.argv, j.out_dir).seconds for j in jobs)
                top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:TOP_LAYERS]
                layers = ", ".join(f"{name} {s:.3f}" for name, s in top)
                print(f"  {unit}={size}: {kind} {untraced:.3f} s (traced {traced:.3f} s); "
                      f"self s: {layers}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
