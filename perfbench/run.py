#!/usr/bin/env python3
"""Builds the benchmark from source (once per checkout) and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload inmem_uniform --seed 1 \
        --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to stderr; the benchmark's
result is the last line of stdout. The exit code is the benchmark's, or 2
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "sj_perfbench",
           "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    os.makedirs(build_dir, exist_ok=True)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "sj_perfbench")
    cmd = [binary, "--out-dir", os.path.relpath(build_dir)] + sys.argv[1:]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
