#!/usr/bin/env python3
"""Builds bench_e2e from source on first use, then runs one workload.

Usage, from the repository root:

    python3 bench_e2e/run.py --workload paper_fit --seed 1 --seconds 10 --trace 0

Every argument is passed to the bench_e2e binary unchanged (see the header
of bench_e2e.cc). The build goes to $CARGO_TARGET_DIR when it is set,
otherwise to .bench_build/ at the repository root; build output goes to
stderr so that the binary's result line stays the last line of stdout.
Exits nonzero, printing no result, when the sources are missing or the
build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: wpred sources (src/) not found next to bench_e2e/")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out_dir, "--parallel", "4",
                    "--target", "bench_e2e"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    out_dir = build_dir()
    try:
        build(out_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        sys.exit(f"run.py: build failed: {error}")
    binary = os.path.join(out_dir, "bench_e2e")
    try:
        result = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: bench_e2e exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
