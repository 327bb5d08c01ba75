#!/usr/bin/env python3
"""Builds and runs the training-step benchmark.

    python3 stepbench/run.py --workload zero_dp --seed 1 --seconds 20 --trace 0

Configures (once) and builds stepbench/step_bench from the repository's
sources with CMake in Release mode, then runs one workload. Build output
and the benchmark's progress lines go to stderr; the last line of stdout
is the JSON result. The build tree is $CARGO_TARGET_DIR/stepbench,
relative to the repository root (default .bench_build/stepbench).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("zero_dp", "sp_ep")
# step_bench stops timing after --seconds; the rest is set-up and checks.
RUN_SLACK_S = 120


def build():
    """Returns the path of an up-to-date step_bench binary."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, base, "stepbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "step_bench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "step_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        print("run.py: step_bench timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: step_bench exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        print(f"run.py: malformed result line: {err}", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"run.py: unexpected result keys {sorted(result)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
