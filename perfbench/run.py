#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fuzz|batch \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the compiler libraries from src/ plus the benchmark
binary, Release) into .bench_build/, then runs the binary. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. With --trace 1 the spans are written to
.bench_build/spans/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_JOBS = "2"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no compiler sources at src/; nothing to build",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["fuzz", "batch"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 2
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.json" % (a.workload, a.seed))
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perfbench"),
                           "--workload", a.workload,
                           "--seed", str(a.seed),
                           "--seconds", repr(a.seconds),
                           "--trace", a.trace,
                           "--spans-out", spans]).returncode


if __name__ == "__main__":
    sys.exit(main())
