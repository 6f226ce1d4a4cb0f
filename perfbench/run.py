#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout.  Configures perfbench/CMakeLists.txt into
.bench_build/ (Release), builds the harness incrementally, then runs it with
the same flags.  Build output goes to stderr, so the harness's last stdout
line -- one JSON object with correct / attempted / failed / metrics -- is
the last line of this script's stdout.  A traced run (--trace 1) also writes
its spans to .bench_build/trace_<workload>_<seed>.json (Chrome Trace Event
JSON; check it with tools/trace_timeline.py --validate).

Exit status is the harness's: 0 success, 1 failed check, 2 refused.  A
checkout without the library sources fails here with status 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    return 1


def build() -> bool:
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int)
    args = parser.parse_args()

    for needed in ("src", "bench"):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            return fail(f"no {needed}/ beside perfbench/: this is not a "
                        "checkout of the library")
    if not build():
        return fail("build failed")

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.threads is not None:
        command += ["--threads", str(args.threads)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD, f"trace_{args.workload}_{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, check=False,
                              timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
