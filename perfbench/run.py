#!/usr/bin/env python3
"""Builds the tcdb performance benchmark and runs one workload.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (Release) into the
directory named by CARGO_TARGET_DIR, or .bench_build when it is unset;
later calls only check that the build is up to date. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Exits
non-zero, without a result, when the build fails (for example when the
program's sources are not there).
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))

    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return built.returncode or 1

    binary = os.path.join(build_dir, "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
