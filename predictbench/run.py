#!/usr/bin/env python3
"""Builds and runs predictbench from the root of a source checkout.

    python3 predictbench/run.py --workload cold_predict --seed 1 \
        --seconds 20 --trace 0

Configures a Release build of predictbench/ (which compiles the library
from src/) under $CARGO_TARGET_DIR or .bench_build, then runs the binary
with the same arguments. The benchmark's own output, ending with one JSON
result line, goes to stdout; build output goes to stderr. Exits non-zero
when the sources are missing, the build fails, or any check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "predictbench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("predictbench: no library sources at src/", file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "predictbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("predictbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out, "predictbench")


def main(argv):
    binary = build()
    if binary is None:
        return 2
    try:
        return subprocess.run([binary, "--out-dir", build_dir()] + argv,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("predictbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
