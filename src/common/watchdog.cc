#include "common/watchdog.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/crash_dump.h"
#include "common/introspect.h"
#include "common/logging.h"
#include "common/timer.h"

namespace gs::watchdog {

namespace {

/// Streaming SLO histograms whose percentiles the health JSON reports.
const char* const kSloHistograms[] = {
    "gs_wal_append_nanos",       "gs_wal_fsync_nanos",
    "gs_ingest_apply_nanos",     "gs_live_epoch_advance_nanos",
    "gs_executor_view_nanos",    "gs_spine_merge_nanos",
    "gs_spine_compaction_nanos",
};

/// Wall-clock milliseconds since the Unix epoch, for dump file names (the
/// in-process time base, NowMillis, is process-relative).
uint64_t UnixMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

metrics::Counter* FrontierRounds() {
  static auto* counter =
      metrics::Registry::Global().GetCounter("gs_engine_frontier_rounds");
  return counter;
}

metrics::Gauge* RecordsOutstanding() {
  static auto* gauge =
      metrics::Registry::Global().GetGauge("gs_engine_records_outstanding");
  return gauge;
}

metrics::Gauge* AdvanceStartedMs() {
  static auto* gauge = metrics::Registry::Global().GetGauge(
      "gs_live_epoch_advance_started_ms");
  return gauge;
}

metrics::Histogram* WalFsyncNanos() {
  static auto* histogram =
      metrics::Registry::Global().GetHistogram("gs_wal_fsync_nanos");
  return histogram;
}

metrics::Gauge* LastSealedEpoch() {
  static auto* gauge =
      metrics::Registry::Global().GetGauge("gs_engine_last_sealed_epoch");
  return gauge;
}

/// Max gs_graph_epoch over all graphs (the ingest side of the lag rule).
int64_t MaxGraphEpoch() {
  int64_t max_epoch = 0;
  metrics::Registry::Global().VisitScalars(
      [&](const std::string& key, double value, bool is_counter) {
        if (is_counter) return;
        if (key.compare(0, 15, "gs_graph_epoch{") != 0 &&
            key != "gs_graph_epoch") {
          return;
        }
        max_epoch = std::max(max_epoch, static_cast<int64_t>(value));
      });
  return max_epoch;
}

}  // namespace

Watchdog& Watchdog::Global() {
  static Watchdog* watchdog = new Watchdog();  // leaked: alive during atexit
  static auto* source = new introspect::ScopedSource(
      "health", [] { return Watchdog::Global().RenderHealthJson(); });
  (void)source;
  return *watchdog;
}

void Watchdog::SyncBaselines() {
  state_.last_rounds = FrontierRounds()->Value();
  state_.last_progress_ms = NowMillis();
  state_.fsync_baseline = metrics::BucketSnapshot(*WalFsyncNanos());
  state_.last_lag = MaxGraphEpoch() - LastSealedEpoch()->Value();
  state_.consecutive_lag_increases = 0;
}

Status Watchdog::Start(const WatchdogOptions& options) {
  if (options.ingest_lag_increases < 1) {
    return Status::InvalidArgument(
        "watchdog ingest_lag_increases must be at least 1");
  }
  {
    std::lock_guard<std::mutex> thread_lock(thread_mutex_);
    if (running_) return Status::InvalidArgument("watchdog already running");
    std::lock_guard<std::mutex> eval_lock(eval_mutex_);
    options_ = options;
    if (options_.cadence_ms == 0) options_.cadence_ms = 1;
    currently_violated_.clear();
    SyncBaselines();
    stop_requested_ = false;
    running_ = true;
    thread_ = std::thread([this] { Loop(); });
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_.running = true;
    snapshot_.healthy = true;
    snapshot_.violated_rules.clear();
  }
  // Sanitizer-clean shutdown even when no one calls Stop().
  static const bool atexit_registered = [] {
    std::atexit([] { Watchdog::Global().Stop(); });
    return true;
  }();
  (void)atexit_registered;
  return Status::Ok();
}

void Watchdog::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    if (!running_) return;
    stop_requested_ = true;
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  if (to_join.joinable()) to_join.join();
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    running_ = false;
  }
  {
    std::lock_guard<std::mutex> eval_lock(eval_mutex_);
    currently_violated_.clear();
  }
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_.running = false;
  snapshot_.healthy = true;
  snapshot_.violated_rules.clear();
}

bool Watchdog::running() const {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  return running_;
}

HealthSnapshot Watchdog::Health() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

void Watchdog::Loop() {
  for (;;) {
    EvaluateNow();
    std::unique_lock<std::mutex> lock(thread_mutex_);
    uint64_t cadence;
    {
      std::lock_guard<std::mutex> eval_lock(eval_mutex_);
      cadence = options_.cadence_ms;
    }
    cv_.wait_for(lock, std::chrono::milliseconds(cadence),
                 [this] { return stop_requested_; });
    if (stop_requested_) return;
  }
}

std::vector<std::string> Watchdog::EvaluateNow() {
  static auto* evaluations =
      metrics::Registry::Global().GetCounter("gs_watchdog_evaluations");
  static auto* healthy_gauge =
      metrics::Registry::Global().GetGauge("gs_watchdog_healthy");
  static auto* lag_gauge =
      metrics::Registry::Global().GetGauge("gs_watchdog_ingest_lag");

  std::lock_guard<std::mutex> eval_lock(eval_mutex_);
  const uint64_t now = NowMillis();
  std::vector<std::string> violated;

  // frontier_stall: outstanding records with a static round counter. Any
  // round advance — or an idle engine — resets the progress clock.
  const uint64_t rounds = FrontierRounds()->Value();
  const int64_t outstanding = RecordsOutstanding()->Value();
  if (outstanding <= 0 || rounds != state_.last_rounds) {
    state_.last_rounds = rounds;
    state_.last_progress_ms = now;
  } else if (now - state_.last_progress_ms >= options_.frontier_stall_ms) {
    violated.push_back("frontier_stall");
  }

  // epoch_advance_deadline: an in-progress AdvanceEpoch carries its start
  // time in the gauge; 0 means none in flight.
  const int64_t advance_started = AdvanceStartedMs()->Value();
  if (advance_started > 0 &&
      now >= static_cast<uint64_t>(advance_started) +
                 options_.epoch_advance_deadline_ms) {
    violated.push_back("epoch_advance_deadline");
  }

  // wal_fsync_latency: p99 over the fsyncs since the previous evaluation.
  const auto fsync_now = metrics::BucketSnapshot(*WalFsyncNanos());
  std::array<uint64_t, metrics::Histogram::kNumBuckets> window{};
  uint64_t window_count = 0;
  for (size_t i = 0; i < window.size(); ++i) {
    window[i] = fsync_now[i] - state_.fsync_baseline[i];
    window_count += window[i];
  }
  state_.fsync_baseline = fsync_now;
  if (window_count > 0 &&
      metrics::QuantileFromBuckets(window, 0.99) >
          static_cast<double>(options_.wal_fsync_p99_ns)) {
    violated.push_back("wal_fsync_latency");
  }

  // ingest_lag: monotone growth of (graph epoch − sealed engine epoch).
  const int64_t lag = MaxGraphEpoch() - LastSealedEpoch()->Value();
  if (lag > state_.last_lag &&
      lag >= static_cast<int64_t>(options_.ingest_lag_min)) {
    ++state_.consecutive_lag_increases;
  } else {
    state_.consecutive_lag_increases = 0;
  }
  state_.last_lag = lag;
  if (state_.consecutive_lag_increases >= options_.ingest_lag_increases) {
    violated.push_back("ingest_lag");
  }

  lag_gauge->Set(lag);

  evaluations->Increment();
  healthy_gauge->Set(violated.empty() ? 1 : 0);

  // Edge-triggered firing: only rules that flipped failing this evaluation.
  std::vector<std::string> new_rules;
  for (const std::string& rule : violated) {
    if (currently_violated_.count(rule) == 0) new_rules.push_back(rule);
  }
  currently_violated_ =
      std::set<std::string>(violated.begin(), violated.end());
  if (!new_rules.empty()) Fire(new_rules, violated);

  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_.healthy = violated.empty();
    snapshot_.evaluations += 1;
    snapshot_.last_eval_ms = now;
    snapshot_.violated_rules = violated;
  }
  return violated;
}

void Watchdog::Fire(const std::vector<std::string>& new_rules,
                    const std::vector<std::string>& all_violated) {
  // Called with eval_mutex_ held.
  static auto* firings =
      metrics::Registry::Global().GetCounter("gs_watchdog_firings");
  firings->Increment();
  for (const std::string& rule : new_rules) {
    metrics::Registry::Global()
        .GetCounter("gs_watchdog_rule_firings", {{"rule", rule}})
        ->Increment();
    GS_LOG(Warning) << "watchdog rule violated: " << rule;
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_.firings += new_rules.empty() ? 0 : 1;
  }
  if (!options_.write_flight_dumps) return;
  const std::string path = options_.flight_dir + "/flight_" +
                           std::to_string(UnixMillis()) + "_" +
                           new_rules.front() + ".json";
  const std::string reason = "watchdog:" + new_rules.front();
  Status status = WriteFlightRecorderFile(path, reason.c_str(), all_violated);
  if (status.ok()) {
    GS_LOG(Warning) << "watchdog flight recorder dumped to " << path;
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_.last_dump_path = path;
  } else {
    GS_LOG(Warning) << "watchdog flight dump failed: " << status.ToString();
  }
}

std::string Watchdog::RenderHealthJson() const {
  HealthSnapshot health = Health();
  std::string out = "{\"healthy\": ";
  out += health.healthy ? "true" : "false";
  out += ", \"running\": ";
  out += health.running ? "true" : "false";
  out += ", \"evaluations\": " + std::to_string(health.evaluations);
  out += ", \"firings\": " + std::to_string(health.firings);
  out += ", \"last_eval_ms\": " + std::to_string(health.last_eval_ms);
  out += ", \"violated_rules\": [";
  for (size_t i = 0; i < health.violated_rules.size(); ++i) {
    out += i ? ", \"" : "\"";
    out += introspect::JsonEscape(health.violated_rules[i]);
    out += '"';
  }
  out += "]";
  if (!health.last_dump_path.empty()) {
    out += ", \"last_dump\": \"" +
           introspect::JsonEscape(health.last_dump_path) + "\"";
  }
  out += ", \"slo_nanos\": {";
  bool first = true;
  char buf[96];
  for (const char* name : kSloHistograms) {
    metrics::Histogram* h = metrics::Registry::Global().GetHistogram(name);
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"count\": %llu, \"p50\": %.0f, \"p95\": %.0f, "
                  "\"p99\": %.0f}",
                  static_cast<unsigned long long>(h->Count()),
                  metrics::HistogramQuantile(*h, 0.5),
                  metrics::HistogramQuantile(*h, 0.95),
                  metrics::HistogramQuantile(*h, 0.99));
    out += '"';
    out += name;
    out += "\": ";
    out += buf;
  }
  out += "}}";
  return out;
}

namespace {

/// Parses `env_name` as a decimal integer in [min, max] into `*out`.
/// Unparsable or out-of-range values keep `*out` and warn once per variable
/// per process — a misconfigured deployment should not spam a log line per
/// evaluation.
void ApplyEnvThreshold(const char* env_name, uint64_t* out,
                       uint64_t min = 0, uint64_t max = UINT64_MAX) {
  const char* value = std::getenv(env_name);
  if (value == nullptr || *value == '\0') return;
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || value[0] == '-' ||
      parsed < min || parsed > max) {
    static std::mutex warned_mutex;
    static std::set<std::string>* warned = new std::set<std::string>();
    std::lock_guard<std::mutex> lock(warned_mutex);
    if (warned->insert(env_name).second) {
      GS_LOG(Warning) << "ignoring invalid " << env_name << "=\"" << value
                      << "\" (want an integer in [" << min << ", " << max
                      << "]); keeping default " << *out;
    }
    return;
  }
  *out = static_cast<uint64_t>(parsed);
}

}  // namespace

void Watchdog::ApplyEnvOverrides(WatchdogOptions* options) {
  ApplyEnvThreshold("GRAPHSURGE_WATCHDOG_FRONTIER_STALL_MS",
                    &options->frontier_stall_ms);
  ApplyEnvThreshold("GRAPHSURGE_WATCHDOG_EPOCH_ADVANCE_DEADLINE_MS",
                    &options->epoch_advance_deadline_ms);
  ApplyEnvThreshold("GRAPHSURGE_WATCHDOG_WAL_FSYNC_P99_NS",
                    &options->wal_fsync_p99_ns);
  ApplyEnvThreshold("GRAPHSURGE_WATCHDOG_INGEST_LAG_MIN",
                    &options->ingest_lag_min);
  // A streak of zero increases would fire on every evaluation, and values
  // above INT_MAX would wrap in the int option.
  uint64_t increases = static_cast<uint64_t>(options->ingest_lag_increases);
  ApplyEnvThreshold("GRAPHSURGE_WATCHDOG_INGEST_LAG_INCREASES", &increases,
                    1, INT_MAX);
  options->ingest_lag_increases = static_cast<int>(increases);
}

bool Watchdog::MaybeStartFromEnv() {
  Watchdog& watchdog = Global();
  if (watchdog.running()) return true;
  const char* env = std::getenv("GRAPHSURGE_WATCHDOG");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "0") == 0) {
    return false;
  }
  WatchdogOptions options;
  const char* dir = std::getenv("GRAPHSURGE_FLIGHT_DIR");
  if (dir != nullptr && *dir != '\0') options.flight_dir = dir;
  ApplyEnvOverrides(&options);
  Status status = watchdog.Start(options);
  if (!status.ok()) {
    GS_LOG(Warning) << "watchdog failed to start: " << status.ToString();
    return false;
  }
  return true;
}

}  // namespace gs::watchdog
