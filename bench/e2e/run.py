#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 bench/e2e/run.py --workload csim_w1 --seed 1 --seconds 20 --trace 0

Run from the repository root. On first use it configures and builds
e2e_bench from the repository sources into $CARGO_TARGET_DIR (default
.bench_build); later runs only rebuild what changed. Build output goes to
stderr. The benchmark's own output is passed through, so the last line of
stdout is the run's JSON result. `--trace 1` runs the traced replay and
writes its Chrome trace to <build dir>/trace_<workload>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("csim_w1", "geo_w4", "serve_mixed", "live_ingest")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds e2e_bench; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_bench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    exe = build(build_dir)
    if exe is None:
        print("e2e_bench build failed", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", build_dir]
    if args.trace:
        cmd += ["--trace",
                os.path.join(build_dir, "trace_%s.json" % args.workload)]
    env = dict(os.environ, GS_BENCH_JSON_DIR=build_dir)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2e_bench timed out after %.0f s" % (time.monotonic() - start),
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
