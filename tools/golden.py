#!/usr/bin/env python3
"""Golden outputs of the 15 experiment drivers at MCOPT_BENCH_SCALE=0.1.

Tick budgets make every driver's numbers a pure function of the seed, so
the reduced-scale outputs are pinned byte for byte in tests/golden/: the
CSV of each of the 13 table drivers, and the stdout of the two drivers
that print their tables without a CSV (partition_compare, tsp_compare).
Every run goes through ``--run-dir``, so metrics, profile and perf-counter
collection are live, and a run fails unless its ``metrics.json`` holds
collected runs: the pinned tables are the ones a fully observed run prints.

    python3 tools/golden.py regen --bin-dir build/bench
    python3 tools/golden.py check --bin-dir build/bench table_4_1 [--threads 4]

``regen`` runs every driver serially (one thread) and rewrites the golden
files.  A changed golden file needs a CHANGES.md line saying why the
numbers moved.  ``check`` runs one driver (at --threads 4 by default; the
output must not depend on the thread count) and compares its output with
the golden file, printing the first differing lines.
Exit status: 0 identical, 1 different, 2 usage or run error.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

SCALE = "0.1"
CSV_DRIVERS = (
    "table_4_1",
    "table_4_2a",
    "table_4_2b",
    "table_4_2c",
    "table_4_2d",
    "ablation_temperature",
    "ablation_gate",
    "ablation_schedule",
    "ablation_moves",
    "ablation_objective",
    "convergence_curves",
    "scaling_study",
    "extension_tempering",
)
STDOUT_DRIVERS = ("partition_compare", "tsp_compare")
DRIVERS = CSV_DRIVERS + STDOUT_DRIVERS
DEFAULT_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "golden")


def golden_name(driver: str) -> str:
    return driver + (".csv" if driver in CSV_DRIVERS else ".stdout")


def run_driver(bin_dir: str, driver: str, threads: int) -> str:
    """Runs `driver` at the golden scale; returns its golden output."""
    with tempfile.TemporaryDirectory() as run_dir:
        env = dict(os.environ, MCOPT_BENCH_SCALE=SCALE)
        proc = subprocess.run([os.path.join(bin_dir, driver), "--threads",
                               str(threads), "--run-dir", run_dir, "--quiet"],
                              env=env, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{driver} exited {proc.returncode}")
        with open(os.path.join(run_dir, "metrics.json"),
                  encoding="utf-8") as f:
            if '"collected": true' not in f.read():
                raise RuntimeError(f"{driver}: metrics.json holds no "
                                   "collected runs")
        if driver in STDOUT_DRIVERS:
            return proc.stdout
        with open(os.path.join(run_dir, driver + ".csv"),
                  encoding="utf-8") as f:
            return f.read()


def regen(bin_dir: str, golden_dir: str) -> int:
    os.makedirs(golden_dir, exist_ok=True)
    for driver in DRIVERS:
        path = os.path.join(golden_dir, golden_name(driver))
        with open(path, "w", encoding="utf-8") as f:
            f.write(run_driver(bin_dir, driver, 1))
        print(f"wrote {path}")
    return 0


def check(bin_dir: str, golden_dir: str, driver: str, threads: int) -> int:
    path = os.path.join(golden_dir, golden_name(driver))
    with open(path, encoding="utf-8") as f:
        expected = f.read()
    actual = run_driver(bin_dir, driver, threads)
    if actual == expected:
        print(f"{driver} --threads {threads}: identical to {path}")
        return 0
    diff = difflib.unified_diff(expected.splitlines(), actual.splitlines(),
                                path, f"{driver} --threads {threads}",
                                lineterm="")
    print("\n".join(list(diff)[:40]))
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("regen", "check"))
    parser.add_argument("driver", nargs="?", choices=DRIVERS)
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding the driver binaries")
    parser.add_argument("--golden-dir", default=DEFAULT_GOLDEN_DIR)
    parser.add_argument("--threads", type=int, default=4)
    args = parser.parse_intermixed_args()
    try:
        if args.mode == "regen":
            return regen(args.bin_dir, args.golden_dir)
        if args.driver is None:
            parser.error("check needs a driver name")
        return check(args.bin_dir, args.golden_dir, args.driver, args.threads)
    except (OSError, RuntimeError) as error:
        print(f"golden.py: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
