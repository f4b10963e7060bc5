#!/usr/bin/env python3
"""Build the benchmark harness from this checkout's sources and run it.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload best_r32 --seed 1 --seconds 10 --trace 0

Extra flags (--loops N, --threads N) are passed through to the harness.
The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), configured once and brought up to date on every
run; build output goes to stderr. A traced run (--trace 1) writes its
Chrome trace-event spans to trace-<workload>.json in the same directory.
The harness prints the result as the last line of stdout, and this
script exits with its status.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure (once) and build the harness; return its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no swp sources beside perfbench/; "
                 "run from the root of a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "swp_perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(out, "swp_perfbench")


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [binary] + list(argv) + ["--trace-dir", build_dir()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
