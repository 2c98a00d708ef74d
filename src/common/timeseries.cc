#include "common/timeseries.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/introspect.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace gs::timeseries {

namespace {

/// Families the sampler always follows: the streaming ingest path, engine
/// progress, and the watchdog's own activity. Chosen for bounded
/// cardinality — per-operator and per-arrangement gauges stay out.
const char* const kDefaultWatchList[] = {
    "gs_ingest_batches",
    "gs_ingest_mutations",
    "gs_graph_epoch",
    "gs_wal_records",
    "gs_wal_bytes",
    "gs_live_epochs_fed",
    "gs_engine_frontier_rounds",
    "gs_engine_versions_sealed",
    "gs_engine_epochs_sealed",
    "gs_engine_records_outstanding",
    "gs_engine_last_sealed_epoch",
    "gs_executor_views_run",
    "gs_status_server_requests",
    "gs_watchdog_firings",
};

/// JSON-safe number rendering: finite shortest-ish form, non-finite → 0
/// (JSON has no NaN/Inf literals).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void AppendStats(std::string* out, const SeriesStats& stats) {
  *out += "\"count\": " + std::to_string(stats.count) +
          ", \"min\": " + JsonNumber(stats.min) +
          ", \"max\": " + JsonNumber(stats.max) +
          ", \"last\": " + JsonNumber(stats.last) +
          ", \"rate_per_s\": " + JsonNumber(stats.rate_per_s);
}

}  // namespace

uint64_t NowMillis() {
  using Clock = std::chrono::steady_clock;
  // Origin = 1 ms before the first call (the earliest metrics/health-plane
  // activity in the process), so no reading is 0: in-progress markers such
  // as gs_live_epoch_advance_started_ms use 0 for "none in flight". Only
  // differences between NowMillis values are meaningful.
  static const Clock::time_point origin = Clock::now();
  return 1 + static_cast<uint64_t>(
                 std::chrono::duration_cast<std::chrono::milliseconds>(
                     Clock::now() - origin)
                     .count());
}

Series::Series(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void Series::Record(uint64_t t_ms, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(Sample{t_ms, value});
    return;
  }
  ring_[next_] = Sample{t_ms, value};
  next_ = (next_ + 1) % capacity_;
}

std::vector<Sample> Series::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Sample> out;
  out.reserve(ring_.size());
  // Oldest first: ring_[next_..) then ring_[0..next_) once the ring wrapped
  // (before wrapping next_ is 0, so this is simply front-to-back order).
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

SeriesStats Series::Stats() const {
  std::vector<Sample> samples = Snapshot();
  SeriesStats stats;
  stats.count = samples.size();
  if (samples.empty()) return stats;
  stats.min = stats.max = samples[0].value;
  for (const Sample& s : samples) {
    stats.min = std::min(stats.min, s.value);
    stats.max = std::max(stats.max, s.value);
  }
  stats.last = samples.back().value;
  uint64_t span_ms = samples.back().t_ms - samples.front().t_ms;
  if (samples.size() >= 2 && span_ms > 0) {
    stats.rate_per_s = (samples.back().value - samples.front().value) /
                       (static_cast<double>(span_ms) / 1000.0);
  }
  return stats;
}

std::string Sparkline(const std::vector<Sample>& samples, size_t width) {
  static const char* const kBlocks[8] = {"▁", "▂", "▃",
                                         "▄", "▅", "▆",
                                         "▇", "█"};
  if (samples.empty() || width == 0) return "";
  size_t start = samples.size() > width ? samples.size() - width : 0;
  double lo = samples[start].value, hi = samples[start].value;
  for (size_t i = start; i < samples.size(); ++i) {
    lo = std::min(lo, samples[i].value);
    hi = std::max(hi, samples[i].value);
  }
  std::string out;
  for (size_t i = start; i < samples.size(); ++i) {
    size_t level = 0;
    if (hi > lo) {
      level = static_cast<size_t>((samples[i].value - lo) / (hi - lo) * 7.0);
      if (level > 7) level = 7;
    }
    out += kBlocks[level];
  }
  return out;
}

Store& Store::Global() {
  static Store* store = new Store();  // leaked: alive during atexit dumps
  // Registered once, never unregistered (the store outlives everything):
  // /statusz shows the rollup + sparkline summary, not full sample arrays.
  static auto* source = new introspect::ScopedSource(
      "timeseries", [] { return Store::Global().ToSummaryJson(); });
  (void)source;
  return *store;
}

Series* Store::GetSeries(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(name);
  if (it != series_.end()) return it->second.get();
  if (series_.size() >= kMaxSeries) {
    ++dropped_series_;
    // Mirror the drop count into a /metrics gauge so scrapers notice a store
    // at capacity without reading /timeseriez (and /statusz can banner it).
    static metrics::Gauge* dropped_gauge =
        metrics::Registry::Global().GetGauge("gs_timeseries_dropped_series");
    dropped_gauge->Set(static_cast<int64_t>(dropped_series_));
    return nullptr;
  }
  auto& slot = series_[name];
  slot = std::make_unique<Series>();
  return slot.get();
}

void Store::Record(const std::string& name, uint64_t t_ms, double value) {
  Series* series = GetSeries(name);
  if (series != nullptr) series->Record(t_ms, value);
}

std::vector<std::string> Store::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, series] : series_) names.push_back(name);
  return names;
}

std::string Store::ToJson() const {
  // Series pointers are stable and internally synchronized; copy the map
  // under the store mutex, render outside it.
  std::vector<std::pair<std::string, const Series*>> entries;
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(series_.size());
    for (const auto& [name, series] : series_) {
      entries.emplace_back(name, series.get());
    }
    dropped = dropped_series_;
  }
  std::string out = "{\"now_ms\": " + std::to_string(NowMillis());
  out += ", \"sampler\": {\"running\": ";
  out += Sampler::Global().running() ? "true" : "false";
  out += ", \"cadence_ms\": " + std::to_string(Sampler::Global().cadence_ms());
  out += "}, \"dropped_series\": " + std::to_string(dropped);
  out += ", \"series\": {";
  bool first = true;
  for (const auto& [name, series] : entries) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + introspect::JsonEscape(name) + "\": {";
    AppendStats(&out, series->Stats());
    out += ", \"samples\": [";
    std::vector<Sample> samples = series->Snapshot();
    for (size_t i = 0; i < samples.size(); ++i) {
      if (i) out += ", ";
      out += "[" + std::to_string(samples[i].t_ms) + ", " +
             JsonNumber(samples[i].value) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string Store::ToSummaryJson() const {
  std::vector<std::pair<std::string, const Series*>> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(series_.size());
    for (const auto& [name, series] : series_) {
      entries.emplace_back(name, series.get());
    }
  }
  std::string out = "{\"now_ms\": " + std::to_string(NowMillis());
  out += ", \"series\": {";
  bool first = true;
  for (const auto& [name, series] : entries) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + introspect::JsonEscape(name) + "\": {";
    AppendStats(&out, series->Stats());
    out += ", \"spark\": \"" +
           introspect::JsonEscape(Sparkline(series->Snapshot(), 32)) + "\"}";
  }
  out += "}}";
  return out;
}

Sampler& Sampler::Global() {
  static Sampler* sampler = new Sampler();  // leaked; atexit stops it
  return *sampler;
}

Status Sampler::Start(uint64_t cadence_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return Status::InvalidArgument("sampler already running");
  cadence_ms_ = cadence_ms == 0 ? 1 : cadence_ms;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
  // Sanitizer-clean shutdown even when no one calls Stop(): join before
  // static destruction. Registered once per process.
  static bool atexit_registered = [] {
    std::atexit([] { Sampler::Global().Stop(); });
    return true;
  }();
  (void)atexit_registered;
  return Status::Ok();
}

void Sampler::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  if (to_join.joinable()) to_join.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

bool Sampler::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

uint64_t Sampler::cadence_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cadence_ms_;
}

void Sampler::AddWatch(const std::string& family) {
  std::lock_guard<std::mutex> lock(mutex_);
  extra_watches_.push_back(family);
}

bool Sampler::Watched(const std::string& family) const {
  for (const char* name : kDefaultWatchList) {
    if (family == name) return true;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& name : extra_watches_) {
    if (family == name) return true;
  }
  return false;
}

void Sampler::SampleOnce() {
  const uint64_t now = NowMillis();
  Store& store = Store::Global();
  metrics::Registry::Global().VisitScalars(
      [&](const std::string& key, double value, bool /*is_counter*/) {
        size_t brace = key.find('{');
        const std::string family =
            brace == std::string::npos ? key : key.substr(0, brace);
        if (!Watched(family)) return;
        store.Record(key, now, value);
      });
}

void Sampler::Loop() {
  for (;;) {
    SampleOnce();
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::milliseconds(cadence_ms_),
                 [this] { return stop_requested_; });
    if (stop_requested_) return;
  }
}

bool Sampler::MaybeStartFromEnv() {
  Sampler& sampler = Global();
  if (sampler.running()) return true;
  const char* env = std::getenv("GRAPHSURGE_SAMPLE_MS");
  if (env == nullptr || *env == '\0') return false;
  char* end = nullptr;
  long cadence = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || cadence <= 0) {
    if (cadence != 0 || end == env || *end != '\0') {
      GS_LOG(Warning) << "ignoring invalid GRAPHSURGE_SAMPLE_MS: " << env;
    }
    return false;
  }
  Status status = sampler.Start(static_cast<uint64_t>(cadence));
  if (!status.ok()) {
    GS_LOG(Warning) << "sampler failed to start: " << status.ToString();
    return false;
  }
  return true;
}

}  // namespace gs::timeseries
