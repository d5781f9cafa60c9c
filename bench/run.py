"""The netfence benchmark.

    python3 bench/run.py --workload analyze-wide --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Inputs are generated from --seed; jobs
run in-process through `netfence.cli.main`, one at a time, for about
--seconds seconds of whole cycles after the checks that need the
oracles.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced cycle with
--trace 1.  `--workload all` runs every workload in its own process and
prints every metric by name.

Each workload runs in a fresh interpreter with PYTHONHASHSEED pinned,
because set iteration order changes how much work synthesis does.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HASH_SEED = "0"
WORKLOAD_NAMES = ("analyze-wide", "analyze-return", "synthesize-mix")
SETUP_RUNS = 7
SETUP_SNIPPET = (
    "import time, speed; a = speed.reference_loop(); t = time.perf_counter(); "
    "import netfence.cli as c; c.build_arg_parser(); d = time.perf_counter() - t; "
    "b = speed.reference_loop(); print(d * 2 * speed.NOMINAL_S / (a + b))"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup():
    """Median time, in a fresh interpreter, to import netfence.cli and
    build its argument parser, scaled to the nominal speed by reference
    loops run in the same interpreter.  One unmeasured start first writes
    the bytecode cache, which users also have after their first run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=True, timeout=60)
    values = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=60)
        values.append(float(done.stdout))
    return statistics.median(values)


def run_one(args):
    import speed
    import tracer as tracing
    import workloads as wk

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s = measure_setup()
        wl = wk.WORKLOADS[args.workload](args.seed, work)
        ledger = wk.Ledger()
        wl.prepare(ledger)
        wk.run_probes(wl, ledger)
        if args.trace:
            metrics = traced_metrics(wl, ledger, speed.Speed(), tracing)
        else:
            metrics = timed_metrics(wl, ledger, speed.Speed(), args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, wl, ledger, metrics)
    return result_line(ledger, metrics)


def result_line(ledger, metrics):
    return {
        "correct": ledger.wrong_outputs == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def timed_metrics(wl, ledger, speed, seconds, setup_s):
    """Whole cycles until `seconds` have passed; per job and evaluator the
    median over the cycles, summed over the workload's inputs.  Times are
    at the nominal speed (see speed.py).  Peak memory is that of a fresh
    interpreter that runs one cycle of the jobs alone."""
    import workloads as wk

    deadline = time.perf_counter() + seconds
    wl.run_cycle(ledger, speed)
    while time.perf_counter() < deadline:
        wl.run_cycle(ledger, speed)
    jobs = wl.jobs()
    evaluations = sum(c.evaluations for c in wl.analyses)
    classify_s = sum(wk.median_sum(c.eval_times.values()) for c in wl.analyses)
    return {
        "analyze_s": (wk.median_sum(j.times for j in jobs if j.kind == "analyze"), "s"),
        "synthesize_s": (wk.median_sum(j.times for j in jobs if j.kind == "synthesize"), "s"),
        "classify_pps": (evaluations / classify_s if classify_s else 0.0, "packets/s"),
        "peak_rss_mb": (jobs_peak_rss(jobs, ledger), "MiB"),
        "setup_s": (setup_s, "s"),
    }


def jobs_peak_rss(jobs, ledger):
    """Run every job once in a fresh interpreter that runs nothing else
    (memory.py) and return its peak RSS in MiB.  Each job's exit code and
    output files must be those of its checked execution."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_dirs = [j.out_dir.with_name(j.out_dir.name + "-memory") for j in jobs]
    argvs = [j.argv + ["--out-dir", str(d)] for j, d in zip(jobs, out_dirs)]
    done = subprocess.run([sys.executable, str(HERE / "memory.py")], input=json.dumps(argvs),
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or [""])[-1]
        ledger.record("memory run", [f"exited {done.returncode}: {last}"])
        return 0.0
    result = json.loads(done.stdout)
    for job, out_dir, code in zip(jobs, out_dirs, result["codes"]):
        problems = []
        if code != job.expect:
            problems.append(f"exit code {code!r}, expected {job.expect}")
        elif job.reference is not None:
            files = {}
            if out_dir.is_dir():
                files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
            if files != job.reference.files:
                problems.append("output files differ from the checked execution")
        ledger.record(f"{job.name} (memory run)", problems)
    return result["maxrss_kib"] / 1024


def cycle_wall(wl, ledger, speed, classify=True):
    """Run one cycle; return the clock time of its job executions (a job
    may run several times in a cycle)."""
    before = {id(j): len(j.walls) for j in wl.jobs()}
    wl.run_cycle(ledger, speed, classify)
    return sum(sum(j.walls[before[id(j)]:]) for j in wl.jobs())


def traced_metrics(wl, ledger, speed, tracing):
    """One untraced cycle for the evaluator rates and the overhead
    baseline, then one traced cycle of the jobs alone.  The evaluator
    rates are at the nominal speed; the times are as the clock read them,
    like the self times they bound."""
    untraced = cycle_wall(wl, ledger, speed)
    rates = {}
    for case in wl.analyses:
        for name, (per_packet, _) in case.evaluators.items():
            n, t = rates.get(name, (0, 0.0))
            last = sum(ts[-1] for (evaluator, _), ts in case.eval_times.items() if evaluator == name)
            rates[name] = (n + per_packet * len(case.packets), t + last)
    tracer = tracing.Tracer()
    with tracer:
        traced = cycle_wall(wl, ledger, speed, classify=False)
    metrics = tracing.layer_metrics(tracer)
    for name in ("semantics.bigstep_evaluator", "semantics.simple_list_eval",
                 "simplefw.simple_fw_eval"):
        n, t = rates.get(name, (0, 0.0))
        metrics[f"{name}.pps"] = (n / t if t else 0.0, "packets/s")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead"] = (traced / untraced - 1, "ratio")
    metrics["trace.self_s_total"] = (sum(tracer.self_s.values()), "s")
    if tracer.missing:
        print("not traced (absent in this version): " + ", ".join(tracer.missing))
    return metrics


def report(args, wl, ledger, metrics):
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'one untraced and one traced cycle' if args.trace else 'timed cycles'}")
    for job in wl.jobs():
        shown = ", ".join(f"{t:.3f}" for t in job.times)
        wall = ", ".join(f"{t:.3f}" for t in job.walls)
        print(f"  {job.name}: exit {job.expect} expected; times [{shown}] s "
              f"at nominal speed, [{wall}] s by the clock")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / max(ledger.attempted, 1):.4f}")
    for line in ledger.known:
        print(f"KNOWN FAILURE (not counted in failed_ratio) {line}")
    for line in ledger.problems:
        print(f"WRONG OUTPUT {line}")


def run_all(args):
    """Every workload in its own interpreter; the children's output is
    passed through and their results printed together."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print("\nsummary")
    for name, result in results.items():
        ratio = result["failed"] / result["attempted"]
        print(f"  {name}: correct={result['correct']} failed_ratio={ratio:.4f} "
              f"({result['failed']}/{result['attempted']})")
        for metric, m in result["metrics"].items():
            print(f"    {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "netfence" / "cli.py").is_file():
        print(f"error: no netfence sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__] + sys.argv[1:], env)
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
