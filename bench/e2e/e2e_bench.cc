// End-to-end benchmark: times the path a user takes — GVDL text or an HTTP
// script in, per-view results out — on four workloads, and splits that time
// into layers in a separate traced run.
//
//   e2e_bench --workload <csim_w1|geo_w4|serve_mixed|live_ingest>
//             --seconds S [--seed N] [--trace out.json] [--smoke]
//             [--work-dir DIR]
//
// Prints one `<workload> <metric> <value> <unit>` line per metric (the
// end-to-end metrics untraced, the per-layer metrics with --trace), writes
// BENCH_e2e_<workload>.json through BenchReport, and ends with one JSON line
// {"correct", "attempted", "failed", "metrics"}. Exits nonzero when any
// result differs from the sequential reference (algorithms/reference.h).
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "bench_util.h"
#include "e2e.h"

namespace gs::bench::e2e {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, in the order BENCHMARK.json lists them. A layer every
/// workload passes through is timed in ms per request; a layer only some
/// workloads pass through gets a *_share, its part of the request wall
/// time, so a workload that bypasses it reads 0 rather than a zero time.
/// Counts are per request; fractions and ratios are over the whole phase.
constexpr MetricSpec kLayerMetrics[] = {
    {"gvdl.parse_ms", "ms"},
    {"views.materialize_ms", "ms"},
    {"views.total_diffs", "count"},
    {"ordering.order_share", "frac"},
    {"ordering.diffs_ratio", "ratio"},
    {"splitting.scratch_share", "frac"},
    {"splitting.diff_share", "frac"},
    {"views.execute.wcc_share", "frac"},
    {"views.execute.bfs_share", "frac"},
    {"views.execute.pr_share", "frac"},
    {"differential.op_ms.reduce", "ms"},
    {"differential.op_ms.join_arranged", "ms"},
    {"differential.op_ms.feedback", "ms"},
    {"differential.op_ms.input", "ms"},
    {"differential.op_ms.other", "ms"},
    {"differential.reduce_evaluations", "count"},
    {"differential.join_matches", "count"},
    {"differential.updates_published", "count"},
    {"differential.worker.busy_frac", "frac"},
    {"differential.worker.exchange_frac", "frac"},
    {"differential.worker.barrier_frac", "frac"},
    {"differential.worker.seal_frac", "frac"},
    {"differential.worker.idle_frac", "frac"},
    {"differential.event_skew", "ratio"},
    {"differential.exchanged_bytes", "bytes"},
    {"differential.trace_high_water_mb", "MB"},
    {"server.session_share", "frac"},
    {"server.create_share", "frac"},
    {"server.run_collection_share", "frac"},
    {"server.run_graph_share", "frac"},
    {"server.results_share", "frac"},
    {"server.response_kb", "KB"},
    {"server.rejected_503", "count"},
    {"arrcache.hit_ratio", "ratio"},
    {"graph.mutation.apply_share", "frac"},
    {"graph.wal.append_share", "frac"},
    {"views.maintain_share", "frac"},
    {"views.live.advance_share", "frac"},
    {"views.live.read_share", "frac"},
    {"views.live.input_diffs", "count"},
    {"process.cpu_ms_per_request", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "frac"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <csim_w1|geo_w4|serve_mixed|live_ingest>"
               " --seconds S [--seed N] [--trace out.json] [--smoke]"
               " [--work-dir DIR]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// Chrome trace-event JSON (complete "X" events, microseconds from the
/// first span), loadable in Perfetto or chrome://tracing.
bool WriteChromeTrace(const std::string& path, const Report& report) {
  uint64_t origin = UINT64_MAX;
  for (const auto& log : report.span_logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool first = true;
  for (const auto& log : report.span_logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"request\": %" PRIu64 "}}",
                   first ? "" : ",", s.name.c_str(), log->tid(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, s.request);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  Report report;
  if (args.workload == "csim_w1" || args.workload == "geo_w4") {
    RunBatchWorkload(args, &report);
  } else if (args.workload == "serve_mixed") {
    RunServeMixed(args, &report);
  } else if (args.workload == "live_ingest") {
    RunLiveIngest(args, &report);
  } else {
    return Usage(argv[0]);
  }

  std::vector<Metric> metrics = report.end_to_end;
  if (args.traced()) {
    metrics.clear();
    for (const MetricSpec& spec : kLayerMetrics) {
      auto it = report.layer.find(spec.name);
      metrics.push_back(
          {spec.name, it == report.layer.end() ? 0 : it->second, spec.unit});
    }
    if (!WriteChromeTrace(args.trace_path, report)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_path.c_str());
      report.correct = false;
    }
  }

  BenchReport bench("e2e_" + args.workload);
  bench.Meta()
      .Str("workload", args.workload)
      .Int("seed", args.seed)
      .Num("seconds", args.seconds)
      .Int("traced", args.traced() ? 1 : 0)
      .Int("smoke", args.smoke ? 1 : 0)
      .Int("nproc", std::thread::hardware_concurrency())
      .Int("attempted", report.attempted)
      .Int("failed", report.failed);
  for (const auto& [key, value] : report.meta) bench.Meta().Num(key, value);
  // Context lines, not BENCHMARK.json metrics.
  report.context.push_back(
      {"failed_frac",
       report.attempted > 0 ? static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted)
                            : 0.0,
       "failed/attempted"});
  auto print = [&](const Metric& m) {
    std::printf("%s %s %.9g %s\n", args.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  };
  for (const Metric& m : metrics) {
    print(m);
    bench.AddRow().Str("metric", m.name).Num("value", m.value).Str("unit",
                                                                  m.unit);
  }
  for (const Metric& m : report.context) {
    print(m);
    bench.Meta().Num(m.name, m.value);
  }
  bench.Write();

  std::string json = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  return report.correct && report.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace gs::bench::e2e

int main(int argc, char** argv) { return gs::bench::e2e::Main(argc, argv); }
