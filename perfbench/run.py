#!/usr/bin/env python3
"""Runs one workload of the engine's benchmark.

Builds the harness (perfbench/CMakeLists.txt) from the engine sources of
the checkout this file sits in, runs it, and passes its output through.
The last line of standard output is the JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage, from the checkout root:

    python3 perfbench/run.py --workload serve_recursive --seed 1 \
        --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(the traced run also writes a Chrome trace and the query logs to
.bench_build/runs/<workload>-seed<N>-trace1/). --small and
--corrupt-oracle exist for perfbench/selftest.py.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_recursive", "update_feed")
# Set-up allowance on top of the timed phases: three set-ups, the
# reference answers and the final checks.
SETUP_ALLOWANCE_S = 100


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = target if os.path.isabs(target) else os.path.join(ROOT, target)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the harness; returns its path."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_harness",
                  "-j", "3"])
    with open(log_path, "w") as log:
        for cmd in steps:
            code = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                sys.exit(3)
    return os.path.join(bdir, "perfbench_harness")


def harness_timeout(args):
    """Seconds the harness may take: a traced run times its phase twice."""
    return SETUP_ALLOWANCE_S + (2 if args.trace else 1) * args.seconds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()

    bdir = build_dir()
    harness = build(bdir)
    out_dir = os.path.join(bdir, "runs", "%s-seed%d-trace%d" %
                           (args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.small:
        cmd.append("--small")
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=harness_timeout(args))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: harness timed out\n")
        sys.exit(4)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
