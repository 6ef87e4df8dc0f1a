#!/usr/bin/env python3
"""Bench regression gate: diff a fresh bench_micro --json run against the
checked-in baseline(s) instead of only archiving it.

Speedup ratios (new path vs in-tree reference path) are compared for
every result key the current run shares with the baselines; absolute
ns/op is machine-dependent and deliberately ignored. When several
baselines record the same key, the MOST RECENT one (last on the
command line / highest-numbered default) wins: it was measured on the
machine class closest to the current run, while older files document
the trajectory. A key regresses when its current speedup falls more
than --tolerance (default 15%) below the winning baseline's recorded
speedup.

Usage:
  check_bench_regression.py CURRENT.json [BASELINE.json ...]
      [--tolerance 0.15]
With no baselines given, the checked-in BENCH_pr2.json through
BENCH_pr15.json next to this script's repo root are used.
Exit code 1 on any regression.
"""

import argparse
import json
import os
import sys

DEFAULT_BASELINES = ["BENCH_pr2.json", "BENCH_pr3.json", "BENCH_pr4.json",
                     "BENCH_pr5.json", "BENCH_pr6.json", "BENCH_pr7.json",
                     "BENCH_pr8.json", "BENCH_pr9.json", "BENCH_pr10.json",
                     "BENCH_pr12.json", "BENCH_pr13.json", "BENCH_pr15.json"]


def load_results(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("results", {})


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("current")
    parser.add_argument("baselines", nargs="*")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional speedup drop (default 0.15)")
    args = parser.parse_args()
    if not args.baselines:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        args.baselines = [os.path.join(root, name) for name in DEFAULT_BASELINES
                          if os.path.exists(os.path.join(root, name))]

    current = load_results(args.current)
    if not current:
        print(f"error: no results in {args.current}")
        return 1

    # Later baselines override earlier ones per key: the newest recorded
    # speedup is the live expectation, older files are history.
    expected = {}
    for baseline_path in args.baselines:
        for key, row in load_results(baseline_path).items():
            if row.get("speedup"):
                expected[key] = (row["speedup"], baseline_path)

    failures = []
    compared = 0
    for key in sorted(set(current) & set(expected)):
        cur_speedup = current[key].get("speedup")
        if not cur_speedup:
            continue
        base_speedup, baseline_path = expected[key]
        compared += 1
        floor = base_speedup * (1.0 - args.tolerance)
        status = "ok" if cur_speedup >= floor else "REGRESSED"
        print(f"{key:40s} baseline {base_speedup:6.2f}x  "
              f"current {cur_speedup:6.2f}x  floor {floor:6.2f}x  {status}"
              f"  [{baseline_path}]")
        if cur_speedup < floor:
            failures.append(key)

    if compared == 0:
        print("error: no comparable result keys between current run and baselines")
        return 1
    if failures:
        print(f"\n{len(failures)} bench regression(s): {', '.join(failures)}")
        return 1
    print(f"\nall {compared} compared benches within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
