#!/usr/bin/env python3
"""Build and run the HEPEX end-to-end benchmark.

    python3 hepbench/run.py --workload advise|validate|scaleout|serve|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
HEPEX libraries and the `hepbench` program in `.bench_build/` (Release);
later calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the JSON result of `hepbench`. A traced run writes its
spans to `.bench_build/spans-<workload>-seed<N>.json`, which Perfetto
(ui.perfetto.dev) or chrome://tracing opens. The exit status is the
one of `hepbench`: 0 when every output check passed.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configure (once) and build; returns the path of the hepbench binary."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # Runs started together build once, one after the other.
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if not os.path.exists(cache):
            configure = subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr)
            if configure.returncode != 0:
                if os.path.exists(cache):
                    os.remove(cache)  # configure again next time
                configure.check_returncode()
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "hepbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"hepbench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--spans", BUILD]).returncode


if __name__ == "__main__":
    sys.exit(main())
