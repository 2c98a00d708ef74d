// Scheduler-level time attribution for sharded execution. A StepProfile
// accounts every nanosecond of a ShardedDataflow::Step() round into five
// mutually exclusive per-worker states:
//
//   busy      operator execution (scheduler events, input flushes)
//   exchange  draining cross-worker exchange inboxes
//   barrier   waiting at a phase barrier for slower peers
//   seal      version/epoch seal work (trace compaction, snapshots)
//   idle      coordinator-side time between phases (frontier computation,
//             snapshot refresh) — charged to every worker, since none runs
//
// Accounting is exact by construction, not sampled: the coordinator thread
// measures the wall time of each ParallelFor block and of the gaps between
// blocks; workers measure their own active time inside a block; the
// remainder of a block is barrier wait (or idle at W == 1, where the pool
// runs inline and there is nobody to wait for). The five states therefore
// tile each step's wall clock exactly — busy+exchange+barrier+seal+idle ==
// step wall for every worker — which is what makes the numbers trustworthy
// for scheduling decisions: "worker 3 spends 40% of wall in barrier-wait"
// is a measurement, not an estimate.
//
// Per-shard record counts (DataflowStats::shard_work, maintained by keyed
// operators at join/reduce boundaries) and per-worker scheduler event
// counts feed two skew figures: max/mean ratio (1.0 = perfectly balanced;
// the ratio bounds achievable speedup) and the Gini coefficient over
// shards. Both are published as registry gauges, so a slow sharded run and
// a skewed one are distinguishable.
//
// Thread model: the coordinator (the thread driving Step) calls StepBegin /
// BlockBegin / BlockEnd / StepEnd; worker w calls AddBusy/AddExchange/
// AddSeal(w, ...) only inside a block, and only for its own slot. All
// cross-thread reads are ordered by the pool's barrier. Scrape threads
// (/statusz, through the owning dataflow's source) only ever read the
// mutex-protected snapshot folded at StepEnd, never the live accumulators.
#ifndef GRAPHSURGE_COMMON_SCHED_PROFILE_H_
#define GRAPHSURGE_COMMON_SCHED_PROFILE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace gs::metrics {
class Counter;
}  // namespace gs::metrics

namespace gs::sched {

/// Monotonic nanoseconds for attribution arithmetic (same clock for the
/// coordinator and every worker, so block walls and worker active times are
/// directly comparable).
uint64_t ProfileNow();

/// The exclusive worker states, in rendering order.
enum class State { kBusy = 0, kExchange, kBarrier, kSeal, kIdle };
inline constexpr size_t kNumStates = 5;
const char* StateName(State state);

/// One worker's accumulated state times plus its work counters.
struct WorkerAttribution {
  uint64_t busy_ns = 0;
  uint64_t exchange_ns = 0;
  uint64_t barrier_ns = 0;
  uint64_t seal_ns = 0;
  uint64_t idle_ns = 0;
  uint64_t events = 0;        // scheduler events processed
  uint64_t peak_pending = 0;  // high-water scheduler backlog

  uint64_t total_ns() const {
    return busy_ns + exchange_ns + barrier_ns + seal_ns + idle_ns;
  }
  void Add(const WorkerAttribution& other) {
    busy_ns += other.busy_ns;
    exchange_ns += other.exchange_ns;
    barrier_ns += other.barrier_ns;
    seal_ns += other.seal_ns;
    idle_ns += other.idle_ns;
    events += other.events;
    if (other.peak_pending > peak_pending) peak_pending = other.peak_pending;
  }
};

/// Imbalance summary over a per-shard work distribution.
struct Skew {
  /// max(shard) / mean(shard); 1.0 = perfectly balanced, W = one hot shard.
  /// The modeled speedup ceiling of a W-worker run is W / ratio. 0 when the
  /// distribution is empty or all-zero.
  double max_mean_ratio = 0.0;
  /// Gini coefficient over shards in [0, 1): 0 = balanced, → 1 = all work
  /// on one shard. Unlike the ratio it sees mid-distribution imbalance.
  double gini = 0.0;
};

Skew ComputeSkew(const std::vector<uint64_t>& per_shard);

/// Per-step counters the driver hands to StepEnd. Event/record figures are
/// cumulative (the profile differences them internally).
struct StepInputs {
  std::vector<uint64_t> per_worker_events;        // cumulative per worker
  std::vector<uint64_t> per_worker_peak_pending;  // high-water this step
  std::vector<uint64_t> per_shard_records;        // cumulative shard_work
  uint64_t exchange_batches = 0;                  // cumulative hub pushes
};

/// Time attribution for one sharded dataflow, rendered under "sched" in
/// the dataflow's /statusz source. All methods are cheap (a clock read and
/// a few adds); the only lock taken on the driver path is snapshot_mutex_,
/// once per step.
class StepProfile {
 public:
  /// `name` is the owning dataflow's /statusz source name, e.g.
  /// "dataflow-3".
  StepProfile(std::string name, size_t num_workers);

  StepProfile(const StepProfile&) = delete;
  StepProfile& operator=(const StepProfile&) = delete;

  const std::string& name() const { return name_; }
  size_t num_workers() const { return num_workers_; }

  // --- Coordinator protocol (one thread) --------------------------------

  /// Opens a step window at `version`. Time before the first BlockBegin is
  /// idle.
  void StepBegin(uint32_t version);
  /// Marks the start of a ParallelFor block; the gap since the previous
  /// boundary is charged to idle on every worker.
  void BlockBegin();
  /// Marks the end of a ParallelFor block; each worker's unaccounted share
  /// of the block wall is barrier wait (idle at W == 1 — the inline pool
  /// has no peers to wait for).
  void BlockEnd();
  /// Closes the step window: charges the final gap to idle, folds the
  /// step's attribution into the lifetime totals and the recent-version
  /// ring, refreshes skew gauges, and bumps the registry counters.
  void StepEnd(const StepInputs& inputs);

  // --- Worker-side, only inside a block, only slot `w`'s thread ----------

  void AddBusy(size_t w, uint64_t nanos);
  void AddExchange(size_t w, uint64_t nanos);
  void AddSeal(size_t w, uint64_t nanos);

  // --- Scrape surface ----------------------------------------------------

  /// Attribution for one completed step (the recent-version ring entry).
  struct VersionRecord {
    uint32_t version = 0;
    uint64_t wall_ns = 0;
    std::vector<WorkerAttribution> workers;
  };

  struct Snapshot {
    size_t num_workers = 0;
    uint64_t steps = 0;
    uint64_t wall_ns = 0;  // total across completed steps
    uint64_t exchange_batches = 0;
    std::vector<WorkerAttribution> totals;  // per worker, lifetime
    std::vector<uint64_t> per_shard_records;
    Skew record_skew;
    Skew event_skew;
    std::vector<VersionRecord> recent;  // newest last, ≤ kRecentVersions
  };

  /// Copies the snapshot folded at the last StepEnd. Safe from any thread.
  Snapshot GetSnapshot() const;

  /// The "sched" object of the dataflow's /statusz source: lifetime
  /// per-worker attribution, record and event skew, and the
  /// recent-version ring.
  std::string RenderJson() const;

  static constexpr size_t kRecentVersions = 32;

 private:
  const std::string name_;
  const size_t num_workers_;

  // Live step state — coordinator-owned except the worker-slot adds, which
  // are ordered against coordinator reads by the pool barrier.
  bool in_step_ = false;
  bool in_block_ = false;
  uint32_t step_version_ = 0;
  uint64_t step_start_ns_ = 0;
  uint64_t boundary_ns_ = 0;  // last block edge (or step start)
  std::vector<WorkerAttribution> current_;
  std::vector<uint64_t> block_active_ns_;  // per worker, reset per block
  std::vector<uint64_t> last_events_;      // cumulative, for deltas

  // Registry counters cached at construction: [state * num_workers + w].
  std::vector<metrics::Counter*> state_counters_;

  mutable std::mutex snapshot_mutex_;
  uint64_t steps_ = 0;
  uint64_t wall_ns_ = 0;
  uint64_t exchange_batches_ = 0;
  std::vector<WorkerAttribution> totals_;
  std::vector<uint64_t> per_shard_records_;
  Skew record_skew_;
  Skew event_skew_;
  std::deque<VersionRecord> recent_;
};

/// Process-lifetime rollup across all profiles (including torn-down ones):
/// the BENCH json `sched` block. `{"steps", "wall_ns", "state_nanos",
/// "busy_frac", "skew"}`.
std::string GlobalSummaryJson();

}  // namespace gs::sched

#endif  // GRAPHSURGE_COMMON_SCHED_PROFILE_H_
