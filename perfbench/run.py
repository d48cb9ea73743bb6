#!/usr/bin/env python3
"""Build and run the whole-system benchmark from the checkout root.

    python3 perfbench/run.py --workload compile|serve|restart \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (and the library modules it links) into
.bench_build/perfbench, then runs the perfbench binary with the same
arguments. Build output goes to stderr; the binary's last stdout line is
the run's JSON result. Exits non-zero without a result when the library
sources are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            sys.exit(f"perfbench: {required} not found under {ROOT}; "
                     "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")


def main():
    build()
    done = subprocess.run([os.path.join(BUILD, "perfbench")] + sys.argv[1:], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
