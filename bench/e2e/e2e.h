// Shared pieces of the end-to-end benchmark (e2e_bench): command-line
// arguments, the per-run report, latency statistics, process counters, and
// the bench-side span log behind the traced run.
//
// Every workload runs in one of two modes:
//   untraced  the timed phase goes only through the entry points a user
//             calls (api::Graphsurge, server::QueryServer over HTTP) and
//             yields the end-to-end metrics;
//   traced    the same requests are replayed by calling each layer's public
//             function directly, with spans recorded here, around the calls
//             — nothing inside src/ is instrumented. Untraced requests
//             alternate with the replayed ones as the overhead baseline.
//             It yields the per-layer metrics and a Chrome/Perfetto trace
//             file.
#ifndef GRAPHSURGE_BENCH_E2E_E2E_H_
#define GRAPHSURGE_BENCH_E2E_E2E_H_

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/timer.h"
#include "views/collection.h"
#include "views/executor.h"

namespace gs::bench::e2e {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase (untraced), or of all phases together
  /// (traced). Required.
  double seconds = 0;
  /// Non-empty → traced run; the Chrome trace JSON is written here.
  std::string trace_path;
  /// Tiny inputs and short phases, for the ctest smoke run.
  bool smoke = false;
  /// Parent directory for the run's scratch files (CSV inputs, WALs).
  std::string work_dir = ".";

  bool traced() const { return !trace_path.empty(); }
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Tracing

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t request = 0;
};

/// Append-only span log owned by one thread; logs are merged only when the
/// trace file is written, so recording costs a clock read and a push_back.
class SpanLog {
 public:
  explicit SpanLog(uint32_t tid) : tid_(tid) {}

  uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

  void Record(std::string name, uint64_t start_ns, uint64_t dur_ns,
              uint64_t request) {
    spans_.push_back({std::move(name), start_ns, dur_ns, request});
  }

  /// Runs `fn` as span `name`; returns the span's duration in ms.
  double Time(std::string name, uint64_t request,
              const std::function<void()>& fn) {
    const uint64_t start = NowNs();
    fn();
    const uint64_t dur = NowNs() - start;
    Record(std::move(name), start, dur, request);
    return static_cast<double>(dur) / 1e6;
  }

 private:
  uint32_t tid_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: correctness, request counts, and its metrics.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run).
  std::vector<Metric> end_to_end;
  /// Per-layer metrics by name (traced run). A name missing here is
  /// reported as 0: the layer did no such work in this workload.
  std::map<std::string, double> layer;
  /// Printed beside the metrics but not gated: sample count, drift, tail.
  std::vector<Metric> context;
  /// Run description for the BENCH json's meta block.
  std::vector<std::pair<std::string, double>> meta;
  /// Traced run: one span log per recording thread.
  std::vector<std::unique_ptr<SpanLog>> span_logs;

  SpanLog* NewSpanLog() {
    span_logs.push_back(
        std::make_unique<SpanLog>(static_cast<uint32_t>(span_logs.size())));
    return span_logs.back().get();
  }

  /// Records a result mismatch; the run then exits nonzero.
  void Mismatch(const std::string& what) {
    std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
    correct = false;
  }
};

// ---------------------------------------------------------------------------
// Statistics and process counters

/// Linear-interpolation percentile (q in [0, 1]) of unsorted samples.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Peak resident set size of this process, MB (getrusage maxrss).
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// User + system CPU seconds consumed by every thread of this process.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Runs a stream of single-threaded work (set-ups, or requests) on each of
/// the CPUs the process may use in turn. On a shared host the CPUs differ
/// in speed at the same moment (loading the csim_w1 graph took 1.4 ms on
/// one CPU and 2.6 ms on another), and a thread mostly stays on the CPU it
/// started on, so an unpinned run's timings depend on the CPU it drew.
/// Rotating makes every run sample each CPU alike.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  /// Pins the calling thread to the rotation's next CPU until destroyed; a
  /// null rotation pins nothing. Threads inherit their creator's CPU mask,
  /// so nothing that starts threads may run while pinned.
  class Pinned {
   public:
    explicit Pinned(CpuRotation* rotation) {
      if (rotation == nullptr || rotation->cpus_.empty() ||
          sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
        return;
      }
      const auto& cpus = rotation->cpus_;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[rotation->next_++ % cpus.size()], &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    ~Pinned() {
      if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
    }
    Pinned(const Pinned&) = delete;
    Pinned& operator=(const Pinned&) = delete;

   private:
    cpu_set_t saved_{};
    bool pinned_ = false;
  };

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// A fresh directory under `parent` (the run's CSV inputs and WALs),
/// removed with its contents. path() is empty when it cannot be created.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::string tmpl = parent + "/e2e_XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The set-up timings of one run; setup_s is their median. Workloads set up
/// a few times before the timed phase and again throughout it, so that the
/// median covers the whole run, as the request latencies do: host speed
/// drifts, and a burst of set-ups at one instant would sample one speed.
class SetupTimes {
 public:
  template <typename T>
  std::unique_ptr<T> Time(const std::function<std::unique_ptr<T>()>& make) {
    Timer timer;
    std::unique_ptr<T> result = make();
    samples_.push_back(timer.Seconds());
    return result;
  }

  /// Sets up 5 times, keeping the last result in `out`. Each earlier
  /// result is destroyed before the next set-up starts, so peak memory is
  /// that of one set-up.
  template <typename T>
  void Repeat(const std::function<std::unique_ptr<T>()>& make,
              std::unique_ptr<T>* out) {
    for (int i = 0; i < 5; ++i) {
      out->reset();
      *out = Time(make);
    }
  }

  double median() const { return Median(samples_); }

 private:
  std::vector<double> samples_;
};

/// The end-to-end metrics every workload reports. `latencies_ms` are the
/// timed phase's request latencies in the order the requests started;
/// `busy_seconds` is the time the load generator spent inside requests (one
/// client) or the phase's wall time (concurrent clients). The context lines
/// give the sample count; p50_drift, the p50 of the phase's second half over
/// that of its first half, minus one; and the highest of p99 and p90 that
/// has at least ten samples beyond it, if any.
inline void AddEndToEnd(Report* report, double setup_s,
                        const std::vector<double>& latencies_ms,
                        double busy_seconds) {
  const double n = static_cast<double>(latencies_ms.size());
  const auto middle = latencies_ms.begin() + latencies_ms.size() / 2;
  const double first_p50 = Median({latencies_ms.begin(), middle});
  const double second_p50 = Median({middle, latencies_ms.end()});
  report->end_to_end = {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", Percentile(latencies_ms, 0.50), "ms"},
      {"requests_per_s", busy_seconds > 0 ? n / busy_seconds : 0, "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  report->context.push_back({"samples", n, "count"});
  report->context.push_back(
      {"p50_drift", first_p50 > 0 ? second_p50 / first_p50 - 1 : 0, "frac"});
  if (n >= 1000) {
    report->context.push_back(
        {"latency_p99_ms", Percentile(latencies_ms, 0.99), "ms"});
  } else if (n >= 100) {
    report->context.push_back(
        {"latency_p90_ms", Percentile(latencies_ms, 0.90), "ms"});
  }
}

/// Per-layer metrics from sums over a traced phase: a name ending in
/// "_share" is a time sum divided by the phase's summed request wall time
/// (`request_ms`); any other name is divided by the request count.
inline void AddLayerAverages(const std::map<std::string, double>& sums,
                             double requests, double request_ms,
                             std::map<std::string, double>* layer) {
  for (const auto& [name, sum] : sums) {
    const double base = name.ends_with("_share") ? request_ms : requests;
    (*layer)[name] = base > 0 ? sum / base : 0;
  }
}

/// Nanoseconds per scheduler state: busy, exchange, barrier, seal, idle.
using StateNanos = std::map<std::string, double>;

/// The scheduler's exact per-state time attribution: the registry counters
/// gs_sched_state_nanos{state, worker}, summed over `workers`.
inline StateNanos SchedStateNanos(size_t workers) {
  StateNanos out;
  for (const char* state : {"busy", "exchange", "barrier", "seal", "idle"}) {
    double sum = 0;
    for (size_t w = 0; w < workers; ++w) {
      sum += static_cast<double>(
          metrics::Registry::Global()
              .GetCounter("gs_sched_state_nanos",
                          {{"state", state}, {"worker", std::to_string(w)}})
              ->Value());
    }
    out[state] = sum;
  }
  return out;
}

/// differential.worker.<state>_frac: each state's part of the time between
/// two snapshots (a state missing from `before` counts from 0).
inline void AddWorkerFractions(const StateNanos& before,
                               const StateNanos& after,
                               std::map<std::string, double>* layer) {
  StateNanos delta;
  double total = 0;
  for (const auto& [state, nanos] : after) {
    const auto it = before.find(state);
    delta[state] = nanos - (it == before.end() ? 0 : it->second);
    total += delta[state];
  }
  if (total <= 0) return;
  for (const auto& [state, nanos] : delta) {
    (*layer)["differential.worker." + state + "_frac"] = nanos / total;
  }
}

/// The differential.op_ms.<op> metric an engine operator's time counts
/// toward: the operators every workload's plans run, by name, everything
/// else (arrange, exchange, ...) as "other".
inline std::string OpMetricName(const std::string& op) {
  for (const char* known : {"reduce", "join_arranged", "feedback", "input"}) {
    if (op == known) return "differential.op_ms." + op;
  }
  return "differential.op_ms.other";
}

/// Sums of per-layer quantities over a traced phase's requests, shared by
/// the batch runs, the live sessions and serve_mixed's replay.
struct LayerTotals {
  /// By metric name; AddLayerSummary divides them per request, or, for a
  /// *_share, by the summed request wall time.
  std::map<std::string, double> sums;
  double requests = 0;
  double request_ms = 0;
  /// The part of request_ms covered by stage spans.
  double stage_ms = 0;
  double total_diffs = 0;
  double identity_ds = 0;
  std::vector<double> worker_events;
  double trace_high_water_bytes = 0;

  /// A materialized collection's difference counts.
  void AddCollection(const views::MaterializedCollection& mc) {
    sums["views.total_diffs"] += static_cast<double>(mc.total_diffs);
    total_diffs += static_cast<double>(mc.total_diffs);
    identity_ds += static_cast<double>(mc.identity_ds);
  }

  /// A collection run: per-view time by splitting mode, scheduler events
  /// per worker, and the run's engine counters.
  void AddRun(const views::ExecutionResult& result) {
    for (const views::ViewRunStats& v : result.per_view) {
      sums[v.ran_scratch ? "splitting.scratch_share"
                         : "splitting.diff_share"] += v.seconds * 1e3;
    }
    const auto& events = result.per_worker_events;
    if (worker_events.size() < events.size()) {
      worker_events.resize(events.size(), 0);
    }
    for (size_t w = 0; w < events.size(); ++w) {
      worker_events[w] += static_cast<double>(events[w]);
    }
    AddEngine(result.engine_stats);
  }

  /// Engine counters: one run's, or a live session's growth from `before`
  /// to `after`.
  void AddEngine(const differential::DataflowStats& after,
                 const differential::DataflowStats& before = {}) {
    const auto ops_before = before.AggregatedOpNanos();
    for (const auto& [op, nanos] : after.AggregatedOpNanos()) {
      const auto it = ops_before.find(op);
      const uint64_t prev = it == ops_before.end() ? 0 : it->second;
      sums[OpMetricName(op)] += static_cast<double>(nanos - prev) / 1e6;
    }
    auto add = [&](const char* name, uint64_t a, uint64_t b) {
      sums[name] += static_cast<double>(a - b);
    };
    add("differential.reduce_evaluations", after.reduce_evaluations,
        before.reduce_evaluations);
    add("differential.join_matches", after.join_matches, before.join_matches);
    add("differential.updates_published", after.updates_published,
        before.updates_published);
    add("differential.exchanged_bytes", after.exchanged_bytes,
        before.exchanged_bytes);
    trace_high_water_bytes =
        std::max(trace_high_water_bytes,
                 static_cast<double>(after.trace_high_water_bytes));
  }
};

/// The per-layer metrics every traced phase derives from its totals: the
/// averaged sums, ordering.diffs_ratio, differential.event_skew (max over
/// mean of the per-worker events; 1 when none were recorded, as on a live
/// run's single worker), differential.trace_high_water_mb and
/// trace.coverage.
inline void AddLayerSummary(const LayerTotals& t, Report* report) {
  auto& layer = report->layer;
  AddLayerAverages(t.sums, t.requests, t.request_ms, &layer);
  layer["ordering.diffs_ratio"] =
      t.identity_ds > 0 ? t.total_diffs / t.identity_ds : 0;
  double events_max = 0;
  double events_sum = 0;
  for (double e : t.worker_events) {
    events_max = std::max(events_max, e);
    events_sum += e;
  }
  layer["differential.event_skew"] =
      events_sum > 0 ? events_max * static_cast<double>(
                                        t.worker_events.size()) /
                           events_sum
                     : 1.0;
  layer["differential.trace_high_water_mb"] =
      t.trace_high_water_bytes / (1 << 20);
  layer["trace.coverage"] = t.request_ms > 0 ? t.stage_ms / t.request_ms : 0;
}

/// What tracing costs, and the traced sample count: trace.overhead_frac is
/// the traced requests' p50 over the untraced `baseline_ms` p50, minus one.
inline void AddTraceOverhead(const std::vector<double>& baseline_ms,
                             const std::vector<double>& traced_ms,
                             double cpu_ms_per_request, Report* report) {
  const double base_p50 = Median(baseline_ms);
  report->layer["trace.overhead_frac"] =
      base_p50 > 0 ? Median(traced_ms) / base_p50 - 1 : 0;
  report->layer["process.cpu_ms_per_request"] = cpu_ms_per_request;
  report->context.push_back(
      {"samples", static_cast<double>(traced_ms.size()), "count"});
}

// ---------------------------------------------------------------------------
// Workloads (one translation unit each)

/// csim_w1 and geo_w4.
void RunBatchWorkload(const Args& args, Report* report);
void RunServeMixed(const Args& args, Report* report);
void RunLiveIngest(const Args& args, Report* report);

}  // namespace gs::bench::e2e

#endif  // GRAPHSURGE_BENCH_E2E_E2E_H_
