#!/usr/bin/env python3
"""Build and run the certquic benchmark.

usage (from the root of a checkout):
  python3 perfbench/run.py --workload census --seed 1 [--seconds S] --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the certquic library
plus the benchmark program, Release, no asserts, no sanitizers) into
.bench_build/perfbench; later calls only rebuild what changed. Build
output goes to stderr. The benchmark program's stdout is passed
through, so the last line is the run's JSON result. Scratch files (the
epoch store, span dumps) go to .bench_work/. --seconds defaults to
run_seconds in BENCHMARK.json.

--self-test builds and runs the benchmark's own tests: the C++ unit
tests (statistics, span self time) and the Python tests (the paired
comparison in perfbench/compare.py, BENCHMARK.json against the
program's metric tables).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("census", "corpus", "ttfb-sweep", "epochs")


def build(targets):
    """Configures (once) and builds `targets`; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", *targets])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {cmd[0]} failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: '{' '.join(cmd)}' exited {done.returncode}",
                  file=sys.stderr)
            return False
    return True


def self_test():
    if not build(["perfbench_test"]):
        return 1
    cpp = subprocess.run([str(BUILD_DIR / "perfbench_test")])
    py = subprocess.run([sys.executable, "-m", "unittest", "discover",
                         "-s", str(BENCH_DIR / "tests"), "-p", "test_*.py"])
    return 0 if cpp.returncode == 0 and py.returncode == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not build(["certquic_perfbench"]):
        return 1
    cmd = [str(BUILD_DIR / "certquic_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK_DIR)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
