#!/usr/bin/env python3
"""Builds and runs the statdb end-to-end benchmark.

Run from the root of a statdb checkout:

    python3 perfbench/run.py --workload explore_scan --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/; later runs rebuild only what
changed. Build output goes to stderr, so the benchmark's result stays the
last line of stdout. Every argument is passed to the benchmark binary;
see perfbench/main.cc for the flags.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "statdb_perfbench")


def build():
    """Configures (once) and builds the benchmark; returns an exit code."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no statdb sources next to perfbench/ "
              "(expected src/CMakeLists.txt); run from a statdb checkout",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc = subprocess.run(cmd, stdout=sys.stderr).returncode
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "--target",
                           "statdb_perfbench", "-j", jobs],
                          stdout=sys.stderr).returncode


def main(argv):
    rc = build()
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc or 1
    args = list(argv)
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(ROOT, ".bench_build", "perfbench")]
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
