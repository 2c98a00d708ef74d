// Stall watchdog: a background thread that evaluates health rules over the
// live metrics registry, flips the process's health state, and emits
// a flight-recorder dump (crash_dump.h) when a rule starts failing —
// without killing the process. The /healthz endpoint serves the verdict
// (200 healthy / 503 naming the violated rules), so an external supervisor
// can restart a wedged process that is still technically alive.
//
// Rules (names are the contract — they appear in /healthz bodies, dump
// files, and per-rule firing counters):
//   frontier_stall          the engine reports records outstanding but the
//                           frontier-round counter has not moved for longer
//                           than the deadline: a wedged or livelocked step.
//   epoch_advance_deadline  a LiveRun epoch advance has been in progress
//                           (gs_live_epoch_advance_started_ms != 0) past
//                           its deadline.
//   wal_fsync_latency       p99 WAL fsync latency over the window since the
//                           previous evaluation exceeds the threshold: the
//                           durability path is the ingest bottleneck.
//   ingest_lag              gs_graph_epoch (max over graphs) minus the last
//                           sealed engine epoch has grown on N consecutive
//                           evaluations while at/above a floor: the engine
//                           is falling monotonically behind ingest. Each
//                           evaluation publishes the lag it read as the
//                           gs_watchdog_ingest_lag gauge.
//
// Firing is edge-triggered: one dump + one firing count when a rule flips
// from passing to failing; the rule must pass again before it can fire
// again. Dumps are JSON files flight_<unix_ms>_<rule>.json in flight_dir,
// containing trace events and a metrics snapshot (see crash_dump.h
// WriteFlightRecorderFile).
//
// Determinism for tests: EvaluateNow() runs one evaluation on the caller's
// thread, and differential/fuzz_hooks.h can inject a frontier stall or a
// delayed epoch seal to force specific rules.
#ifndef GRAPHSURGE_COMMON_WATCHDOG_H_
#define GRAPHSURGE_COMMON_WATCHDOG_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace gs::watchdog {

struct WatchdogOptions {
  /// Evaluation cadence. Rules are deadline-based, so the effective
  /// detection latency is deadline + one cadence.
  uint64_t cadence_ms = 100;

  /// frontier_stall: how long the round counter may sit still with records
  /// outstanding.
  uint64_t frontier_stall_ms = 5000;

  /// epoch_advance_deadline: how long one LiveRun::AdvanceEpoch may run.
  uint64_t epoch_advance_deadline_ms = 10000;

  /// wal_fsync_latency: p99 threshold (nanoseconds) over the delta window
  /// between evaluations. Default 1s — an fsync that slow means the
  /// durability device is in serious trouble.
  uint64_t wal_fsync_p99_ns = 1000000000;

  /// ingest_lag: floor below which lag growth is ignored, and how many
  /// consecutive strictly-increasing evaluations at/above the floor fire.
  uint64_t ingest_lag_min = 4;
  int ingest_lag_increases = 3;

  /// Directory for flight_<unix_ms>_<rule>.json dumps.
  std::string flight_dir = ".";

  /// Master switch for writing dump files (health state and counters still
  /// update when false).
  bool write_flight_dumps = true;
};

/// Point-in-time health verdict (copied out under the watchdog's lock).
struct HealthSnapshot {
  bool healthy = true;
  bool running = false;
  uint64_t evaluations = 0;
  uint64_t firings = 0;
  uint64_t last_eval_ms = 0;            // NowMillis of the last evaluation
  std::vector<std::string> violated_rules;  // currently failing, sorted
  std::string last_dump_path;           // most recent dump file ("" if none)
};

class Watchdog {
 public:
  Watchdog() = default;
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// The process-wide watchdog (leaked singleton; registers the "health"
  /// /statusz source on construction). Healthy while not running.
  static Watchdog& Global();

  /// Starts the evaluation thread. Baselines (round counter, fsync bucket
  /// window, lag) are synced to current values first, so pre-existing
  /// metric state cannot fire spuriously. Fails if already running.
  Status Start(const WatchdogOptions& options = WatchdogOptions());

  /// Stops and joins the thread, and clears the violated-rule set (the
  /// process is no longer being judged). Idempotent.
  void Stop();

  bool running() const;

  HealthSnapshot Health() const;

  /// Runs one rule evaluation on the caller's thread (exactly what the
  /// thread does each tick) and returns the rules currently violated.
  /// Usable without Start() — tests drive detection deterministically.
  std::vector<std::string> EvaluateNow();

  /// Health verdict as JSON: {"healthy": ..., "violated_rules": [...], ...}
  /// plus p50/p95/p99 of the streaming SLO histograms. The /healthz 503
  /// body and the "health" /statusz source.
  std::string RenderHealthJson() const;

  /// Starts Global() when GRAPHSURGE_WATCHDOG is set to anything but "0",
  /// with flight_dir from GRAPHSURGE_FLIGHT_DIR (default ".") and rule
  /// thresholds from the GRAPHSURGE_WATCHDOG_* overrides below. Returns
  /// true if the watchdog is running on return.
  static bool MaybeStartFromEnv();

  /// Applies per-rule threshold overrides from the environment to
  /// `options`:
  ///   GRAPHSURGE_WATCHDOG_FRONTIER_STALL_MS
  ///   GRAPHSURGE_WATCHDOG_EPOCH_ADVANCE_DEADLINE_MS
  ///   GRAPHSURGE_WATCHDOG_WAL_FSYNC_P99_NS
  ///   GRAPHSURGE_WATCHDOG_INGEST_LAG_MIN
  ///   GRAPHSURGE_WATCHDOG_INGEST_LAG_INCREASES
  /// Each must be a non-negative decimal integer; an unparsable value keeps
  /// the default and logs one warning per variable per process (not one per
  /// evaluation). Called by MaybeStartFromEnv; exposed so embedders that
  /// Start() with explicit options can opt in too.
  static void ApplyEnvOverrides(WatchdogOptions* options);

 private:
  void Loop();
  void Fire(const std::vector<std::string>& new_rules,
            const std::vector<std::string>& all_violated);

  // Rule state carried between evaluations (guarded by eval_mutex_).
  struct RuleState {
    uint64_t last_rounds = 0;
    uint64_t last_progress_ms = 0;
    std::array<uint64_t, metrics::Histogram::kNumBuckets> fsync_baseline{};
    int64_t last_lag = 0;
    int consecutive_lag_increases = 0;
  };

  void SyncBaselines();

  // One evaluation (or baseline sync) at a time; also guards state_ and
  // options_.
  mutable std::mutex eval_mutex_;
  WatchdogOptions options_;
  RuleState state_;
  std::set<std::string> currently_violated_;

  // Published snapshot, refreshed at the end of every evaluation.
  mutable std::mutex snapshot_mutex_;
  HealthSnapshot snapshot_;

  // Thread lifecycle.
  mutable std::mutex thread_mutex_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace gs::watchdog

#endif  // GRAPHSURGE_COMMON_WATCHDOG_H_
