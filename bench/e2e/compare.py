#!/usr/bin/env python3
"""Summarizes and compares sets of end-to-end benchmark runs (stdlib only).

    python3 bench/e2e/compare.py RUNS_DIR            # spread of one set
    python3 bench/e2e/compare.py BASE_DIR NEW_DIR    # verdict per metric

A runs directory holds one file per run: the stdout of run.py or e2e_bench
(any file name). Each file's `<workload> <metric> <value> <unit>` lines name
its workload; the values come from its final JSON line.

For every (workload, metric) the report gives the median, the quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median. With one
directory, an end-to-end metric is "steady" when its spread is below a third
of its BENCHMARK.json bound. With two, each end-to-end metric gets a verdict
against its bound:

  worse       the new median is worse than the base median by more than
              the bound;
  unresolved  otherwise, when either spread exceeds the bound, unless every
              new run beats every base run (then "better");
  better      the new median is better by more than the base spread and the
              new run wins at least 9/10 of all (new, base) pairs;
  within      anything else.

Per-layer metrics are summarized without a verdict. Failed requests (each
run's "failed" out of "attempted") are gated per workload with a bound of 0:
one set must have none, and a new set is "worse" when its failed fraction is
above the base set's.

Exits nonzero when a metric is not steady (one set) or is worse or
unresolved (two sets), or when requests failed.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(directory):
    """({(workload, metric): [values]}, {workload: [attempted, failed]})
    over the run files in `directory`."""
    values = {}
    requests = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, errors="replace") as f:
            lines = [line.strip() for line in f if line.strip()]
        if not lines or not lines[-1].startswith("{"):
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            continue
        metrics = result.get("metrics", {})
        workload = None
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 4 and parts[1] in metrics:
                workload = parts[0]
                break
        if workload is None:
            continue
        for metric, entry in metrics.items():
            values.setdefault((workload, metric), []).append(
                float(entry["value"]))
        counts = requests.setdefault(workload, [0, 0])
        counts[0] += int(result.get("attempted", 0))
        counts[1] += int(result.get("failed", 0))
    return values, requests


def failed_frac(counts):
    attempted, failed = counts
    return failed / attempted if attempted else 1.0


def summarize(samples):
    median = statistics.median(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def verdict(base, new, better, bound):
    b_med, _, _, b_spread = summarize(base)
    n_med, _, _, n_spread = summarize(new)
    change = (n_med - b_med) / b_med if b_med else 0.0
    sign = 1 if better == "lower" else -1
    worse_by = sign * change
    pairs = [(n, b) for n in new for b in base]
    wins = sum(1 for n, b in pairs if sign * (n - b) < 0)
    if worse_by > bound:
        return "worse", change
    if max(b_spread, n_spread) > bound:
        return ("better" if wins == len(pairs) else "unresolved"), change
    if -worse_by > b_spread and wins >= 0.9 * len(pairs):
        return "better", change
    return "within", change


def fmt(x):
    return "%.4g" % x


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dirs", nargs="+", metavar="RUNS_DIR")
    args = parser.parse_args()
    if len(args.dirs) > 2:
        parser.error("give one or two run directories")

    with open(BENCHMARK) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    order = list(e2e) + list(layer)
    workloads = [w["name"] for w in spec["workloads"]]
    loaded = [load_runs(d) for d in args.dirs]
    sets = [values for values, _ in loaded]
    requests = [counts for _, counts in loaded]

    keys = sorted(set().union(*sets),
                  key=lambda k: (workloads.index(k[0])
                                 if k[0] in workloads else len(workloads),
                                 order.index(k[1]) if k[1] in order
                                 else len(order), k))
    failing = 0
    for workload, metric in keys:
        info = e2e.get(metric) or layer.get(metric) or {"better": "lower"}
        bound = info.get("bound")
        cells = []
        for runs in sets:
            samples = runs.get((workload, metric))
            if not samples:
                cells.append("n=0")
                continue
            med, q1, q3, spread = summarize(samples)
            cells.append("n=%d median %s [%s, %s] spread %.1f%%" % (
                len(samples), fmt(med), fmt(q1), fmt(q3), 100 * spread))
        line = "%-12s %-34s %s" % (workload, metric, " | ".join(cells))
        if bound is not None and len(sets) == 1:
            samples = sets[0].get((workload, metric), [])
            steady = bool(samples) and summarize(samples)[3] < bound / 3
            failing += not steady
            line += "  bound %.0f%% %s" % (100 * bound,
                                           "steady" if steady else "NOISY")
        elif bound is not None:
            base = sets[0].get((workload, metric))
            new = sets[1].get((workload, metric))
            if base and new:
                v, change = verdict(base, new, info["better"], bound)
                line += "  change %+.1f%% bound %.0f%% %s" % (
                    100 * change, 100 * bound, v)
                failing += v in ("worse", "unresolved")
        print(line)

    for workload in sorted(set().union(*requests),
                           key=lambda w: (workloads.index(w)
                                          if w in workloads
                                          else len(workloads), w)):
        counts = [r.get(workload, [0, 0]) for r in requests]
        cells = " | ".join("failed %d of %d" % (c[1], c[0]) for c in counts)
        if len(counts) == 1:
            ok = counts[0][0] > 0 and counts[0][1] == 0
            v = "none failed" if ok else "FAILED REQUESTS"
        else:
            ok = failed_frac(counts[1]) <= failed_frac(counts[0])
            v = "within" if ok else "worse"
        failing += not ok
        print("%-12s %-34s %s  %s" % (workload, "failed_frac", cells, v))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
