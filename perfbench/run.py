#!/usr/bin/env python3
"""Build the EndBox round-trip benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload enterprise_web --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/; later calls rebuild incrementally. The generator
self-tests run before every measurement. The benchmark's last stdout
line is its JSON result; build output goes to stderr. Exits non-zero,
without a result, when the sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build() -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        print("perfbench: generator self-tests failed", file=sys.stderr)
        return 1

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
