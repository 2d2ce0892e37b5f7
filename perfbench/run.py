#!/usr/bin/env python3
"""Build and run the mvsim benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload outbreak [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first call configures and builds
the simulator's libraries plus the benchmark program (mvsim_perfbench)
into .bench_build/ (about a minute on four cores); later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout
is always the program's JSON result. The exit code is the program's:
non-zero when an output check failed, the build failed or the checkout
holds no simulator sources.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mvsim_perfbench")
WORKLOADS = ["outbreak", "proximity", "sharded-100k", "observed"]


def build():
    """Configures once, then builds incrementally. Returns success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources under src/ in " + ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "mvsim_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"),
                        help="pinned outcomes at the default seed")
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_build", "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", out_dir, "--pins", args.pins]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
