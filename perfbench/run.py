#!/usr/bin/env python3
"""Builds the benchmark executable from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload ibss-steady --seed 2006 \
        --seconds 35 --trace 0

--workload all runs the three workloads one after another in one process.
The build goes to .bench_build/perfbench (CMake, Release); build output
goes to stderr, so the last line of stdout is the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
EXE = os.path.join(BUILD, "perfbench")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def step(cmd, timeout):
    """Runs one build step with its output on stderr."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"], CONFIGURE_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
         BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", OUT]
    # "all" runs every workload in one process, each on its own budget.
    timeout = RUN_TIMEOUT_S * (3 if args.workload == "all" else 1)
    try:
        done = subprocess.run(cmd, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % timeout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
