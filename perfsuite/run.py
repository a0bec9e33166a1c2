#!/usr/bin/env python3
"""Builds aurora_bench from this checkout's sources, then runs it.

Run from the repository root:

    python3 perfsuite/run.py --workload fed3 --seed 1 --seconds 10 --trace 0

Every argument is passed to aurora_bench unchanged (see README.md). The first
run configures a Release build of the program's sources and the benchmark in
the build directory ($CARGO_TARGET_DIR when set, else .bench_build); later
runs rebuild only what changed. Build output goes to stderr, so stdout holds
only the benchmark's own lines, ending with its JSON result line.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sources = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(sources, "engine", "aurora_engine.h")):
        print("run.py: no program sources under %s; run it from a full "
              "checkout of the repository" % sources,
              file=sys.stderr)
        return 2
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "aurora_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 3
    binary = os.path.join(build, "aurora_bench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
