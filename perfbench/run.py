#!/usr/bin/env python3
"""Builds the end-to-end pipeline benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload query_serving --seed 1 \
        --seconds 10 --trace 0

The library and the driver are built with CMake from perfbench/CMakeLists.txt
into $CARGO_TARGET_DIR (default .bench_build) under the repository root; the
first run builds, later runs reuse the build. Every argument is forwarded to
the driver (perfbench/e2e_bench.cc), whose last stdout line is the JSON
result. The span trace of each run is written next to the build, under
traces/. Exits non-zero, without a result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def flag(argv, name, default):
    for i, arg in enumerate(argv):
        if arg == name and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return default


def build(build_dir, env):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "e2e_bench"]]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(build_dir, env):
        print("run.py: build failed", file=sys.stderr)
        return 1

    trace_out = os.path.join(trace_dir, "%s-seed%s-trace%s.json" % (
        flag(argv, "--workload", "none"), flag(argv, "--seed", "1"),
        flag(argv, "--trace", "0")))
    command = [os.path.join(build_dir, "e2e_bench")] + argv
    if flag(argv, "--trace_out", None) is None:
        command += ["--trace_out", trace_out]
    try:
        result = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
