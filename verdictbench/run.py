#!/usr/bin/env python3
"""Time-to-verdict benchmark: builds the driver and runs one workload.

    python3 verdictbench/run.py --workload plain --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The first run configures and builds
.bench_build/verdictbench (CMake, Release): the driver plus the repository's
rc11 library, from source. Later runs only rebuild what changed. Build
output goes to stderr; the driver's report goes to stdout, whose last line
is one JSON object (see verdictbench/README.md). The driver's per-job
verdict records, spans and per-layer numbers go to .bench_build/out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "verdictbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
DRIVER = os.path.join(BUILD, "verdict_bench")
WORKLOADS = ("plain", "por", "derived")
RUN_TIMEOUT_S = 170


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} not found in {ROOT}: the benchmark "
                     "builds the library from a full checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "verdict_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("run.py: --seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    driver = subprocess.Popen([
        DRIVER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--programs", os.path.join(HERE, "programs"), "--out", OUT])
    try:
        return driver.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        driver.kill()
        driver.wait()
        print("run.py: driver stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
