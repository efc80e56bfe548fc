#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload kb_compile --seed 1 --seconds 45 --trace 0

The first run configures and builds perfbench/ (which pulls in the
library sources from the repository root) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build.
Build output goes to stderr.  The benchmark binary prints provenance
and traffic lines, then one JSON result as the last stdout line; this
script checks that result against BENCHMARK.json (every metric of the
run's kind present, with the declared unit, and nothing else) before
passing it through.  Traced runs write
<build dir>/traces/<workload>-seed<N>.trace.json (Chrome trace events).

Exit codes: 0 ok; 1 a wrong answer; 2 usage, missing sources or a
failed build; 3 a result that does not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kb_compile", "offline_batch")


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build(bdir):
    """Configure once, then (re)build the perfbench target."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sys", "server.h")):
        fail(2, "library sources not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=ROOT)
        if r.returncode != 0:
            fail(2, "build failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail(2, "build produced no perfbench binary")
    return exe


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the result format"
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        return ("metric names differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            return f"metric {name} unit {got[name].get('unit')} != {unit}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs (the benchmark's own tests)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail(2, "BENCHMARK.json not found at the repository root")

    bdir = build_dir()
    exe = build(bdir)
    traces = os.path.join(os.path.dirname(bdir), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", traces, "--commit", git_commit()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail(3, "benchmark timed out")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        fail(3, f"benchmark exited {r.returncode} without a result")
    problem = check_result(lines[-1], bool(args.trace))
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(3, problem)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
