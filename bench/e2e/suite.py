#!/usr/bin/env python3
"""Runs the whole end-to-end benchmark: every workload, once per seed.

    python3 bench/e2e/suite.py OUT_DIR [--seeds 1-5]

Run from the repository root. Each run is untraced and lasts BENCHMARK.json's
run_seconds; its stdout goes to OUT_DIR/<workload>_<seed>.txt, the input
compare.py reads:

    python3 bench/e2e/compare.py OUT_DIR              # spread of one set
    python3 bench/e2e/compare.py BASE_DIR NEW_DIR     # verdict per metric

Exits nonzero if any run fails or reports a result that is not correct.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    """"1-5" or "1,4,9" → [1, 2, 3, 4, 5] or [1, 4, 9]."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir")
    parser.add_argument("--seeds", default="1-5", type=parse_seeds)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)

    os.makedirs(args.out_dir, exist_ok=True)
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            path = os.path.join(args.out_dir, "%s_%d.txt" % (workload, seed))
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            with open(path, "w") as out:
                rc = subprocess.run(cmd, stdout=out).returncode
            with open(path) as f:
                lines = f.read().strip().splitlines()
            correct = bool(lines) and '"correct": true' in lines[-1]
            print("%-12s seed %-4d %s" % (workload, seed,
                                          "ok" if rc == 0 and correct
                                          else "FAILED (exit %d)" % rc))
            failed += rc != 0 or not correct
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
