#!/usr/bin/env python3
"""Build the fpsm_bench suite from this checkout and run one workload.

Run from the root of a checkout:

    python3 fpsm_bench/run.py --workload register-zipf --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds a Release tree in .bench_build (the
library, the `fuzzypsm` CLI and the suite); later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
suite's JSON result. Results files and traces go to --out (default
.bench_build/results). The exit status is the suite's: 0 only when every
correctness check passed.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("register-zipf", "audit-unique", "tenant-churn", "retrain-compact")
# A run ends well inside this; a hung one is killed and reported as failed.
RUN_TIMEOUT_S = 170


def build():
    hook = os.path.join(os.path.dirname(os.path.abspath(__file__)), "build.cmake")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ".", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_INCLUDE=" + hook],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "fpsm_bench", "fuzzypsm",
         "-j", jobs],
        check=True, stdout=sys.stderr)


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(BUILD_DIR, "results"))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and durations, for a quick check")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"fpsm_bench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD_DIR, "fpsm_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fuzzypsm", os.path.join(BUILD_DIR, "tools", "fuzzypsm"),
           "--work", os.path.join(BUILD_DIR, "work", args.workload),
           "--out", args.out, "--commit", commit()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("fpsm_bench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
