#!/usr/bin/env python3
"""Smoke test for e2e_bench (the e2e_bench_smoke ctest).

    smoke.py <e2e_bench binary> <BENCHMARK.json>

Runs every workload named in BENCHMARK.json with --smoke (tiny inputs) and
one-second phases, untraced and traced, and checks that each run
  - passes its reference check (exit 0, "correct": true),
  - prints every end-to-end (untraced) or per-layer (traced) metric that
    BENCHMARK.json names, with its unit, both as a metric line and in the
    final JSON, whose metrics are exactly those,
  - writes a --trace file that parses as Chrome trace JSON with events.
"""
import json
import os
import subprocess
import sys
import tempfile


def check_run(exe, workload, names, trace_path, work_dir):
    cmd = [exe, "--workload", workload, "--smoke", "--seed", "1",
           "--seconds", "1", "--work-dir", work_dir]
    if trace_path:
        cmd += ["--trace", trace_path]
    env = dict(os.environ, GS_BENCH_JSON_DIR=work_dir)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, timeout=120)
    problems = []
    if proc.returncode != 0:
        problems.append("exit code %d: %s" % (
            proc.returncode, proc.stderr.decode(errors="replace")[-500:]))
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["last stdout line is not a JSON result"]
    if result.get("correct") is not True:
        problems.append("result not correct")
    printed = {parts[1]: parts[3] for parts in (line.split() for line in lines)
               if len(parts) == 4 and parts[0] == workload}
    metrics = result.get("metrics", {})
    if set(metrics) != set(names):
        problems.append("JSON result metrics differ from BENCHMARK.json: %s"
                        % sorted(set(metrics) ^ set(names)))
    for name, unit in names.items():
        if printed.get(name) != unit:
            problems.append("metric %s not printed with unit %s" % (name, unit))
        if metrics.get(name, {}).get("unit") != unit:
            problems.append("metric %s missing from the JSON result or not in "
                            "%s" % (name, unit))
    if trace_path:
        try:
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            if not events:
                problems.append("trace has no events")
        except (OSError, ValueError, KeyError) as e:
            problems.append("trace does not parse: %s" % e)
    return problems


def main():
    exe, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failed = False
    with tempfile.TemporaryDirectory(dir=".") as work_dir:
        for workload in (w["name"] for w in spec["workloads"]):
            for traced in (False, True):
                trace = (os.path.join(work_dir, "trace_%s.json" % workload)
                         if traced else None)
                problems = check_run(exe, workload, layer if traced else e2e,
                                     trace, work_dir)
                label = "%s %s" % (workload, "traced" if traced else
                                   "untraced")
                print("%-24s %s" % (label, "ok" if not problems else "FAIL"))
                for p in problems:
                    print("    " + p)
                failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
