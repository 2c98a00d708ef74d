#!/usr/bin/env bash
# Runs every bench binary and collects the machine-readable BENCH_*.json
# reports. Usage:
#   bench/run_all.sh [--smoke] [--compare [baseline_dir]] [build_dir] [output_dir]
# Defaults: build_dir=build, output_dir=<build_dir>/bench_json.
# --smoke runs only the deterministic engine workload (micro_differential
# with the google-benchmark micros filtered out) — the CI observability
# check: fast, and the emitted JSON still carries the metrics snapshot.
# --compare diffs the fresh JSON against bench/baselines/ (or the given
# directory) with compare_baselines.py and exits nonzero on any wall-time
# regression beyond 15%.
# Build first with:
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

SMOKE=0
COMPARE=0
BASELINE_DIR="${SCRIPT_DIR}/baselines"
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --smoke)
      SMOKE=1
      shift
      ;;
    --compare)
      COMPARE=1
      shift
      if [[ -n "${1:-}" && "${1:-}" != --* && -d "${1:-}" ]]; then
        BASELINE_DIR="$1"
        shift
      fi
      ;;
    *)
      echo "unknown option: $1" >&2
      exit 2
      ;;
  esac
done

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-${BUILD_DIR}/bench_json}"
BENCH_DIR="${BUILD_DIR}/bench"

if [[ ! -d "${BENCH_DIR}" ]]; then
  echo "error: ${BENCH_DIR} not found — build the project first" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"
export GS_BENCH_JSON_DIR="${OUT_DIR}"
# Stall watchdog on by default: every bench runs with it active at its
# default cadence, so --compare doubles as its overhead gate. Override with
# GRAPHSURGE_WATCHDOG=0 to measure without it.
# The scheduler attribution profiler (sched_profile, the "sched" block of
# each dataflow's /statusz source) is always on — it is a handful of clock
# reads per Step() — so the 15% --compare bound also gates its overhead;
# its rollup lands in each BENCH_*.json under "sched".
export GRAPHSURGE_WATCHDOG="${GRAPHSURGE_WATCHDOG:-1}"
export GRAPHSURGE_FLIGHT_DIR="${GRAPHSURGE_FLIGHT_DIR:-${OUT_DIR}}"

BENCHES=(
  micro_differential
  table2_diff_vs_scratch
  fig6_similar_views
  fig7_nonoverlapping_views
  table3_adaptive_splitting
  table4_fig8_fig9_ordering
  fig10_scalability
  bounds_best_worst_case
  graphbolt_style_pr_baseline
)

EXTRA_ARGS=()
if (( SMOKE )); then
  BENCHES=(micro_differential)
  # ^$ matches no benchmark name: skip the micros, keep the deterministic
  # end-to-end engine workload that main() always runs.
  EXTRA_ARGS=(--benchmark_filter='^$')
fi

for bench in "${BENCHES[@]}"; do
  bin="${BENCH_DIR}/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "skipping ${bench} (not built)" >&2
    continue
  fi
  echo "==> ${bench}"
  "${bin}" ${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"}
done

echo
echo "JSON reports in ${OUT_DIR}:"
ls -l "${OUT_DIR}"

if (( COMPARE )); then
  echo
  echo "==> comparing against baselines in ${BASELINE_DIR}"
  # Capture the exit code explicitly instead of relying on `set -e`: when
  # this script runs mid-pipeline (`run_all.sh --compare | tee ...`) or in a
  # conditional context, -e is suppressed and a comparator failure would
  # otherwise be swallowed — the regression gate must not silently pass.
  rc=0
  python3 "${SCRIPT_DIR}/compare_baselines.py" \
    --fresh "${OUT_DIR}" --baseline "${BASELINE_DIR}" || rc=$?
  if (( rc != 0 )); then
    echo "baseline comparison FAILED (exit ${rc})" >&2
    exit "${rc}"
  fi
  echo "baseline comparison passed"
fi
