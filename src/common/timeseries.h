// In-process metrics time-series: the historical half of the health plane.
//
// The metrics registry (metrics.h) answers "what is the value now"; this
// store answers "how did it move" — each selected metric series gets a
// fixed-size ring buffer of (timestamp, value) samples, populated by a
// low-overhead sampler thread that snapshots the registry's counters and
// gauges at a configurable cadence. Consumers are the /timeseriez endpoint
// (full sample history as JSON), /statusz (sparkline summaries), the
// watchdog (rule evaluation over recent movement), and flight-recorder
// dumps (history at the moment a rule fired).
//
// Memory is strictly bounded: kMaxSeries rings of Series::kDefaultCapacity
// samples each (16 bytes per sample); series beyond the cap are counted as
// dropped, never silently resized. Writers take one per-series mutex for a
// ring-slot store — the sampler is the only steady writer, so there is no
// contention to speak of, and scrapes copy the ring under the same mutex.
//
// Timestamps are milliseconds since process start on the steady clock
// (NowMillis) — the shared time origin for every sample, the watchdog's
// deadlines, and the in-progress markers instrumented code publishes
// (e.g. gs_live_epoch_advance_started_ms).
#ifndef GRAPHSURGE_COMMON_TIMESERIES_H_
#define GRAPHSURGE_COMMON_TIMESERIES_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace gs::timeseries {

/// Milliseconds elapsed since process start, on the steady clock, counted
/// from 1 (never 0, which in-progress markers reserve for "none"). The time
/// origin shared by samples, watchdog deadlines, and in-progress markers.
uint64_t NowMillis();

/// One observation: value of a series at `t_ms` (NowMillis time).
struct Sample {
  uint64_t t_ms = 0;
  double value = 0.0;
};

/// Rollups over a series' retained window.
struct SeriesStats {
  size_t count = 0;      // samples retained (≤ capacity)
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;
  /// (last − first) / elapsed seconds over the retained window: the delta
  /// rate for counters, the average slope for gauges. 0 with < 2 samples.
  double rate_per_s = 0.0;
};

/// Fixed-capacity ring of samples. Thread-safe; Record overwrites the
/// oldest sample once full.
class Series {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  explicit Series(size_t capacity = kDefaultCapacity);

  void Record(uint64_t t_ms, double value);

  /// The retained samples, oldest first.
  std::vector<Sample> Snapshot() const;

  SeriesStats Stats() const;

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Sample> ring_;  // size ≤ capacity_, ring_[next_] is oldest
  size_t next_ = 0;           // overwrite position once full
};

/// Unicode sparkline (▁▂▃▄▅▆▇█) of the last `width` samples, min-max
/// normalized over that window. Empty string for an empty series; a flat
/// series renders as all-minimum.
std::string Sparkline(const std::vector<Sample>& samples, size_t width);

/// Name → Series map with a hard series cap. Series pointers are stable for
/// the store's lifetime (Global() is never destroyed).
class Store {
 public:
  /// Series retained per store; families with per-label series (e.g.
  /// gs_graph_epoch{graph=...}) stay bounded by this, not by label count.
  static constexpr size_t kMaxSeries = 128;

  Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// The process-wide store (leaked singleton; registers the "timeseries"
  /// /statusz source on first use).
  static Store& Global();

  /// Finds or creates the series; nullptr once kMaxSeries distinct names
  /// exist (the drop is counted, see ToJson).
  Series* GetSeries(const std::string& name);

  /// Convenience: GetSeries + Record, ignoring the over-cap case.
  void Record(const std::string& name, uint64_t t_ms, double value);

  std::vector<std::string> Names() const;

  /// Full store as one JSON object: per-series rollups and the sample
  /// history, plus sampler state and the dropped-series count. The payload
  /// behind /timeseriez, and embedded in flight-recorder dumps and
  /// BENCH_*.json reports.
  std::string ToJson() const;

  /// Compact JSON (rollups + sparklines, no sample arrays) for /statusz.
  std::string ToSummaryJson() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Series>> series_;
  uint64_t dropped_series_ = 0;
};

/// The sampler thread: every cadence_ms, snapshots all watched counter and
/// gauge series from metrics::Registry::Global() into Store::Global().
/// Watching is by family name (the key up to '{'), so one watch covers
/// every label combination of a family.
class Sampler {
 public:
  Sampler() = default;
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// The process-wide sampler (leaked singleton).
  static Sampler& Global();

  /// Starts the thread at `cadence_ms` (clamped to ≥ 1). Fails if already
  /// running. The thread is joined by Stop(), which an atexit hook also
  /// runs, so sanitizer builds see a clean shutdown.
  Status Start(uint64_t cadence_ms = kDefaultCadenceMs);

  /// Stops and joins the thread. Idempotent.
  void Stop();

  bool running() const;
  uint64_t cadence_ms() const;

  /// Adds `family` to the watch list (on top of the built-in defaults).
  void AddWatch(const std::string& family);

  /// Takes one sample pass on the caller's thread (also what the thread
  /// does each tick; exposed for tests and for pre-dump freshness).
  void SampleOnce();

  /// Starts Global() per GRAPHSURGE_SAMPLE_MS (unset/empty/0 = off).
  /// Returns true if the sampler is running on return.
  static bool MaybeStartFromEnv();

  static constexpr uint64_t kDefaultCadenceMs = 250;

 private:
  void Loop();
  bool Watched(const std::string& family) const;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_requested_ = false;
  uint64_t cadence_ms_ = kDefaultCadenceMs;
  std::vector<std::string> extra_watches_;
  std::thread thread_;
};

}  // namespace gs::timeseries

#endif  // GRAPHSURGE_COMMON_TIMESERIES_H_
