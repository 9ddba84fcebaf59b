#!/usr/bin/env python3
"""Builds and runs the end-to-end ARDA benchmark (see README.md).

    python3 perfbench/run.py --workload rifs_scenarios|lake_filter|serve_mixed
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. It configures perfbench/ with CMake into
.bench_build/perfbench (the repository's libraries come from src/), builds
the benchmark binary (perfbench, or perfbench_traced for --trace 1) and
the self-test, runs the self-test, and then runs the benchmark binary,
whose last stdout line is the JSON result. Build output goes to stderr.
Any failure exits non-zero without a result line.
"""

import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: {' '.join(cmd)}: {err}")
    if done.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited {done.returncode}")


def build(binary):
    """Builds `binary` and the self-test, then runs the self-test."""
    source = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(source, "..", "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/; run it from a full "
                 "checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "-S", source, "-B", BUILD_DIR,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    # An untraced run never builds the traced binary, so a layer wrapper
    # broken by a signature change cannot stop it.
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                binary, "perfbench_selftest"], BUILD_TIMEOUT_S)
    run_logged([os.path.join(BUILD_DIR, "perfbench_selftest")], 60)


def main(argv):
    traced = "--trace=1" in argv or any(
        a == "--trace" and argv[i + 1:i + 2] == ["1"]
        for i, a in enumerate(argv))
    binary = "perfbench_traced" if traced else "perfbench"
    build(binary)
    if "--selftest" in argv:
        return 0
    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, binary)] + argv + ["--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {binary} ran longer than {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
