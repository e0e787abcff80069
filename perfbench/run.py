#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles the simulator from ../src) into .bench_build/perfbench, then runs
the ocb_perfbench binary serially in this process's environment with the
simulator's thread knobs pinned: no PDES workers, one sweep thread, no
forced race checking. Its last stdout line is the result JSON;
with --trace 1 its spans go to .bench_build/traces/<workload>-<seed>.json.
Exits non-zero without a result when the sources or the build are missing.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "Release"


def build(root):
    """Configures once and builds incrementally; returns the binary's path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    out = os.path.join(root, ".bench_build", "perfbench")
    quiet = {"stdout": subprocess.DEVNULL}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], check=True, **quiet)
    subprocess.run(["cmake", "--build", out, "--target", "ocb_perfbench",
                    "-j", "4"], check=True, **quiet)
    return os.path.join(out, "ocb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    env = dict(os.environ)
    env.pop("OCB_PDES_THREADS", None)
    env.pop("OCB_CHECK", None)
    env["OCB_SWEEP_THREADS"] = "1"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(root, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace_out",
                os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
