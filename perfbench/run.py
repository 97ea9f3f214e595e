#!/usr/bin/env python3
"""Repository benchmark: build the program from source, run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload iface_sweep --seed 1 \\
        --seconds 25 --trace 0

The first run configures the repository's own CMake project into the
build directory ($CARGO_TARGET_DIR, default .bench_build) with
perfbench/perfbench.cmake injected as a project include, and builds the
`onespec_perfbench` target; later runs only re-check it.  The program
sets up, measures for --seconds, checks every output, and prints a
detail line and then the result line; this script validates the result
against BENCHMARK.json, stores it under <build>/perfbench/results/ for
perfbench/compare.py, and prints it as its own last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is non-zero, with no result line, when the build or the run
fails or overruns its time limit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "onespec_perfbench"
RUN_LIMIT_S = 180      # a run's whole budget, build check included
BUILD_LIMIT_S = 900    # the first run of a checkout also builds


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir, deadline):
    """Configure (once) and build the program; return its path."""
    tree = os.path.join(build_dir, "onespec")
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(("configure",
                      ["cmake", "-S", ROOT, "-B", tree,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                       "-DCMAKE_PROJECT_onespec_INCLUDE=" +
                       os.path.join(HERE, "perfbench.cmake")]))
    steps.append(("build", ["cmake", "--build", tree, "--target", TARGET,
                            "-j", jobs]))
    with open(log_path, "a") as log:
        for step, cmd in steps:
            left = deadline - time.monotonic()
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   timeout=max(1.0, left))
            except subprocess.TimeoutExpired:
                fail("%s timed out; see %s" % (step, log_path))
            if r.returncode != 0:
                fail("%s failed; see %s" % (step, log_path))
    exe = os.path.join(tree, TARGET)
    if not os.path.exists(exe):
        fail("build produced no " + TARGET)
    return exe


def file_key(path):
    """Identity of a build: exact counts are compared per build."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    first = not os.path.exists(os.path.join(build_dir, "onespec",
                                            TARGET))
    deadline = start + (BUILD_LIMIT_S if first else RUN_LIMIT_S) - 10
    expected = expected_metrics(args.trace)
    exe = build(build_dir, deadline)

    # Relative to the checkout, so the daemon's Unix socket path stays
    # short however deep the checkout lies (sun_path holds 108 bytes).
    out_dir = os.path.relpath(os.path.join(build_dir, "perfbench"))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--counts-key", file_key(exe)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("run exceeded its time limit")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s exited with status %d" % (TARGET, r.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(TARGET + " printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    got = result["metrics"]
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    wrong = sorted(n for n in expected
                   if n in got and got[n]["unit"] != expected[n])
    if missing or extra or wrong:
        fail("metrics disagree with BENCHMARK.json: missing %s, extra %s, "
             "unit %s" % (missing, extra, wrong))

    detail = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("perfbench-detail "):
            detail = json.loads(line.split(" ", 1)[1])
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, detail=detail)
    name = "%s-s%d-t%d-%d.json" % (args.workload, args.seed, args.trace,
                                   time.time_ns())
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
