#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
sumtab library and the perfbench binary into .bench_build/perfbench (Release,
several minutes); later calls only rebuild what changed. Build output goes to
stderr; stdout carries the binary's notes, its "report" line and, last, the
result line {"correct", "attempted", "failed", "metrics"}. The result line is
printed only after its metric names were checked against BENCHMARK.json.

Exit status: 0 on success; 1 when an operation failed or an answer check
found a mismatch; 2 when the build or the arguments failed; 3 when the
binary's output does not match BENCHMARK.json or the binary hung.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def sandbox_env():
    """The environment for the build and the binary: temporary files stay
    inside the checkout too."""
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no sumtab sources under {ROOT / 'src'}")
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=sandbox_env(), timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def declared_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dashboard", "adhoc_scan", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(WORK_DIR)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              env=sandbox_env(), text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = done.stdout.splitlines()
    if not lines:
        log(f"perfbench printed nothing (exit {done.returncode})")
        return 3
    *notes, last = lines
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        log(f"perfbench's last line is not JSON (exit {done.returncode})")
        for line in lines:
            print(line, file=sys.stderr)
        return 3
    expected = declared_names(args.trace)
    if list(result.get("metrics", {})) != expected:
        log("perfbench's metrics do not match BENCHMARK.json")
        print(last, file=sys.stderr)
        return 3
    for line in notes:
        print(line)
    print(last, flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
