// Multi-worker sharded execution of a differential dataflow (timely-style
// data parallelism, in-process). A ShardedDataflow owns W worker shards —
// each a full Dataflow with its own Scheduler, operator instances, traces,
// and stats — built by running the same deterministic dataflow builder once
// per shard. Keyed operators repartition records by key hash through the
// shared ExchangeHub (exchange.h); everything else runs shard-locally.
//
// Progress protocol: Step() runs barrier-separated frontier rounds on a
// ThreadPool.
//   1. every shard flushes its inputs (OnStepBegin);
//   2. rounds: every shard first drains its exchange inboxes (so all
//      batches pushed in the previous round become scheduled events) and
//      reports its earliest pending event time; the lex-minimum over all
//      shards is the global frontier F. Each shard then runs only events
//      at times ≤ F, re-draining its inboxes as peers deliver more work at
//      F concurrently. When no shard reports pending work after a drain,
//      the version has reached global quiescence.
//   3. every shard seals the version (trace compaction) and advances.
// Restricting each round to the frontier is what makes sharded execution
// *work-efficient*, not just correct: without it a shard races ahead into
// loop iterations whose cross-shard input has not arrived, computes from
// partial data, and then pays for avalanches of corrections when late
// diffs land (measured 3-4x total event inflation on WCC). With it, every
// shard observes the complete input for iteration j before evaluating
// iteration j+1 — the in-process analog of timely's frontier notification.
// `iterate` scopes need no extra machinery: iteration coordinates travel
// with each batch, and lexicographic frontier order is a linear extension
// of the product order, so times are processed in a valid serial order and
// the consolidated per-version output is identical to single-worker runs.
#ifndef GRAPHSURGE_DIFFERENTIAL_SHARDED_H_
#define GRAPHSURGE_DIFFERENTIAL_SHARDED_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/introspect.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/sched_profile.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace_event.h"
#include "differential/dataflow.h"
#include "differential/exchange.h"
#include "differential/fuzz_hooks.h"

namespace gs::differential {

class ShardedDataflow {
 public:
  explicit ShardedDataflow(DataflowOptions options = DataflowOptions())
      : options_(FixupOptions(options)),
        hub_(std::make_unique<ExchangeHub>(options_.num_workers)),
        pool_(std::make_unique<ThreadPool>(options_.num_workers)) {
    workers_.reserve(options_.num_workers);
    for (size_t w = 0; w < options_.num_workers; ++w) {
      workers_.push_back(
          std::make_unique<Dataflow>(options_, hub_.get(), w));
    }
    // Register with the live-introspection registry so /statusz can render
    // this dataflow, its time attribution included. The producer only
    // copies snapshots refreshed at phase barriers and step ends, so a
    // scrape never touches operator state.
    static std::atomic<uint64_t> next_instance{0};
    std::string name =
        "dataflow-" +
        std::to_string(next_instance.fetch_add(1, std::memory_order_relaxed));
    profile_ =
        std::make_unique<sched::StepProfile>(name, options_.num_workers);
    introspect_source_ = std::make_unique<introspect::ScopedSource>(
        std::move(name), [this] { return RenderStatusJson(); });
  }

  ShardedDataflow(const ShardedDataflow&) = delete;
  ShardedDataflow& operator=(const ShardedDataflow&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Worker shard `w`. Graph builders must be applied to every shard, in
  /// the same order with the same operators (see exchange.h on channel
  /// identity).
  Dataflow* worker(size_t w) { return workers_[w].get(); }

  /// The worker owning key-hash `hash` — use to place input records so
  /// that seeding work is spread across shards.
  size_t OwnerOfHash(uint64_t hash) const { return hash % workers_.size(); }

  const DataflowOptions& options() const { return options_; }

  /// The version the next Step() will process (identical on all shards).
  uint32_t current_version() const { return workers_[0]->current_version(); }

  /// Runs all shards to the global differential fixpoint for the current
  /// version, then seals it everywhere. Single-worker instances degrade to
  /// exactly the serial engine (the pool runs inline, no exchange edges
  /// exist).
  Status Step() {
    const size_t w = num_workers();
    GS_TRACE_SPAN_V("engine", "step", current_version());
    // Open the attribution window: from here to StepEnd every nanosecond is
    // charged to exactly one of busy/exchange/barrier/seal/idle per worker
    // (see common/sched_profile.h for the tiling protocol).
    profile_->StepBegin(current_version());
    std::vector<Status> statuses(w, Status::Ok());
    std::vector<char> has_pending(w, 0);
    std::vector<Time> min_pending(w);
    {
      // Graph topology is construction-time state and the builder has run
      // by the first Step; capture it once. The small per-step fields are
      // refreshed under the same mutex the scrape producer takes.
      std::lock_guard<std::mutex> lock(status_mutex_);
      status_.version = current_version();
      status_.stepping = true;
      if (status_.edges.empty()) status_.edges = workers_[0]->GraphEdges();
    }
    profile_->BlockBegin();
    pool_->ParallelFor(w, [&](size_t i) {
      ScopedWorkerId tag(static_cast<int>(i));
      const uint64_t t0 = sched::ProfileNow();
      workers_[i]->BeginStepPhase();
      const uint64_t total = sched::ProfileNow() - t0;
      // TakeDrainNanos also clears residue from any out-of-step drains, so
      // the flush phase's attribution starts clean.
      const uint64_t drain = std::min(workers_[i]->TakeDrainNanos(), total);
      profile_->AddExchange(i, drain);
      profile_->AddBusy(i, total - drain);
    });
    profile_->BlockEnd();
    static metrics::Counter* frontier_rounds =
        metrics::Registry::Global().GetCounter("gs_engine_frontier_rounds");
    // Heartbeat gauge for the watchdog's frontier_stall rule: non-zero
    // while a round's pending work is known, cleared when the step ends.
    static metrics::Gauge* outstanding_gauge =
        metrics::Registry::Global().GetGauge("gs_engine_records_outstanding");
    bool stall_injected = false;
    for (;;) {
      // Drain-and-report phase. Every inbox is drained here, so after the
      // barrier nothing is in flight and the reported minima are complete:
      // all pending work in the system is visible in some shard's scheduler.
      profile_->BlockBegin();
      pool_->ParallelFor(w, [&](size_t i) {
        ScopedWorkerId tag(static_cast<int>(i));
        const uint64_t t0 = sched::ProfileNow();
        workers_[i]->DrainExchangeInboxes();
        has_pending[i] = workers_[i]->HasPendingWork() ? 1 : 0;
        if (has_pending[i]) min_pending[i] = workers_[i]->MinPendingTime();
        const uint64_t total = sched::ProfileNow() - t0;
        const uint64_t drain = std::min(workers_[i]->TakeDrainNanos(), total);
        profile_->AddExchange(i, drain);
        profile_->AddBusy(i, total - drain);
      });
      profile_->BlockEnd();
      GS_CHECK(hub_->in_flight() == 0)
          << "exchange batches still in flight after a full drain barrier";
      bool any = false;
      Time frontier;
      for (size_t i = 0; i < w; ++i) {
        if (!has_pending[i]) continue;
        if (!any || min_pending[i].LexLess(frontier)) frontier = min_pending[i];
        any = true;
      }
      if (!any) break;  // global quiescence
      frontier_rounds->Increment();
      {
        // Post-barrier: no shard is running, so the schedulers' pending
        // counts are stable — sum them as "records outstanding".
        uint64_t outstanding = 0;
        for (size_t i = 0; i < w; ++i) {
          outstanding += workers_[i]->scheduler().pending();
        }
        outstanding_gauge->Set(static_cast<int64_t>(outstanding));
        std::lock_guard<std::mutex> lock(status_mutex_);
        status_.frontier = frontier;
        status_.frontier_valid = true;
        status_.frontier_rounds += 1;
        status_.records_outstanding = outstanding;
      }
      if (fuzz::GlobalHooks().stall_frontier_ms != 0 && !stall_injected) {
        // Injected frontier stall (watchdog testing): hold the round open
        // with outstanding records published and the round counter static.
        // Once per Step so multi-version feeds don't multiply the delay.
        stall_injected = true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(fuzz::GlobalHooks().stall_frontier_ms));
      }
      if (trace::Enabled()) {
        // One instant event per frontier advance: which (version, iteration)
        // the fleet agreed to run next. Formatting only happens when a trace
        // is actually being recorded.
        char name[trace::kNameCapacity];
        std::snprintf(name, sizeof(name), "frontier v%u d%u i%u",
                      frontier.version,
                      static_cast<unsigned>(frontier.depth),
                      frontier.depth > 0 ? frontier.iters[0] : 0u);
        trace::AddInstantEvent("engine", name, frontier.version);
      }
      // Run phase, restricted to the frontier. At least the frontier event
      // itself is consumed, and every dataflow cycle passes through the
      // feedback edge's Delayed() hop, so each round makes progress and the
      // loop terminates.
      profile_->BlockBegin();
      pool_->ParallelFor(w, [&](size_t i) {
        ScopedWorkerId tag(static_cast<int>(i));
        const uint64_t t0 = sched::ProfileNow();
        statuses[i] = workers_[i]->RunBoundedPhase(frontier);
        const uint64_t total = sched::ProfileNow() - t0;
        const uint64_t drain = std::min(workers_[i]->TakeDrainNanos(), total);
        profile_->AddExchange(i, drain);
        profile_->AddBusy(i, total - drain);
      });
      profile_->BlockEnd();
      for (const Status& s : statuses) GS_RETURN_IF_ERROR(s);
    }
    profile_->BlockBegin();
    pool_->ParallelFor(w, [&](size_t i) {
      ScopedWorkerId tag(static_cast<int>(i));
      const uint64_t t0 = sched::ProfileNow();
      workers_[i]->SealPhase();
      profile_->AddSeal(i, sched::ProfileNow() - t0);
    });
    profile_->BlockEnd();
    // Post-seal barrier: every shard is idle, so per-operator memory and
    // timing snapshots can be collected without racing operator execution.
    {
      std::vector<ShardOperatorStatus> ops;
      for (size_t i = 0; i < w; ++i) {
        for (auto& snap : workers_[i]->CollectOperatorSnapshots()) {
          ops.push_back(ShardOperatorStatus{i, std::move(snap)});
        }
      }
      std::vector<uint64_t> events = PerWorkerEvents();
      std::lock_guard<std::mutex> lock(status_mutex_);
      status_.ops = std::move(ops);
      status_.per_worker_events = std::move(events);
      status_.version = current_version();
      status_.stepping = false;
      status_.frontier_valid = false;
      status_.records_outstanding = 0;
    }
    outstanding_gauge->Set(0);
    // Close the attribution window (the snapshot collection above lands in
    // the final idle gap) and feed the skew inputs collected post-barrier.
    profile_->StepEnd(CollectStepInputs());
    return Status::Ok();
  }

  /// Seals a graph-update epoch on every shard (full spine compaction; see
  /// Dataflow::SealEpoch). Call between Steps, after the last version of the
  /// epoch was stepped. The barrier semantics match SealPhase: no shard is
  /// running when this executes, and snapshots refresh afterwards.
  void SealEpoch() {
    // Epoch seals get their own attribution window (they run between Step
    // windows), so full-spine compaction shows up as seal time, not as a
    // mystery gap. An injected fuzz delay lands in the window's idle state.
    profile_->StepBegin(current_version());
    if (fuzz::GlobalHooks().delay_epoch_seal_ms != 0) {
      // Injected seal delay (watchdog testing): stretches AdvanceEpoch past
      // the epoch_advance_deadline without perturbing what is computed.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fuzz::GlobalHooks().delay_epoch_seal_ms));
    }
    const size_t w = num_workers();
    profile_->BlockBegin();
    pool_->ParallelFor(w, [&](size_t i) {
      ScopedWorkerId tag(static_cast<int>(i));
      const uint64_t t0 = sched::ProfileNow();
      workers_[i]->SealEpoch();
      profile_->AddSeal(i, sched::ProfileNow() - t0);
    });
    profile_->BlockEnd();
    std::vector<ShardOperatorStatus> ops;
    for (size_t i = 0; i < w; ++i) {
      for (auto& snap : workers_[i]->CollectOperatorSnapshots()) {
        ops.push_back(ShardOperatorStatus{i, std::move(snap)});
      }
    }
    // The ingest-lag denominator: the watchdog compares this gauge to
    // gs_graph_epoch to see whether the engine keeps up with ingest.
    static metrics::Gauge* last_sealed =
        metrics::Registry::Global().GetGauge("gs_engine_last_sealed_epoch");
    last_sealed->Set(static_cast<int64_t>(workers_[0]->epochs_sealed()));
    {
      std::lock_guard<std::mutex> lock(status_mutex_);
      status_.ops = std::move(ops);
      status_.epochs_sealed = workers_[0]->epochs_sealed();
    }
    profile_->StepEnd(CollectStepInputs());
  }

  /// Graph-update epochs sealed so far (identical on all shards).
  uint64_t epochs_sealed() const { return workers_[0]->epochs_sealed(); }

  /// This dataflow's time-attribution profile (per-worker busy / exchange /
  /// barrier / seal / idle accounting, skew figures). Snapshot reads are
  /// safe from any thread.
  const sched::StepProfile& profile() const { return *profile_; }

  /// Sum of all shards' work counters (call between Steps).
  DataflowStats AggregatedStats() const {
    DataflowStats total;
    for (const auto& worker : workers_) total.Merge(worker->stats());
    return total;
  }

  /// Per-shard events processed so far — the measured (not modeled) work
  /// distribution; max/mean over shards bounds achievable speedup.
  std::vector<uint64_t> PerWorkerEvents() const {
    std::vector<uint64_t> events;
    events.reserve(workers_.size());
    for (const auto& worker : workers_) {
      events.push_back(worker->scheduler().events_processed());
    }
    return events;
  }

  /// Renders the current status snapshot as one JSON object: execution
  /// state (version, frontier, rounds, records outstanding), per-operator
  /// memory/timing attribution, the operator→operator channels, a Graphviz
  /// DOT rendering of the worker-0 graph, and under "sched" the per-worker
  /// time attribution (StepProfile::RenderJson). Safe to call from any
  /// thread at any time — it only reads the snapshot refreshed at phase
  /// barriers and the profile's snapshot folded at step ends.
  std::string RenderStatusJson() const {
    StatusSnapshot snap;
    {
      std::lock_guard<std::mutex> lock(status_mutex_);
      snap = status_;
    }
    std::string out = "{";
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "\"workers\": %zu, \"version\": %u, \"stepping\": %s",
                  workers_.size(), snap.version,
                  snap.stepping ? "true" : "false");
    out += buf;
    if (snap.frontier_valid) {
      std::snprintf(buf, sizeof(buf),
                    ", \"frontier\": {\"version\": %u, \"depth\": %u, "
                    "\"iter\": %u}",
                    snap.frontier.version,
                    static_cast<unsigned>(snap.frontier.depth),
                    snap.frontier.depth > 0 ? snap.frontier.iters[0] : 0u);
      out += buf;
    } else {
      out += ", \"frontier\": null";
    }
    std::snprintf(buf, sizeof(buf),
                  ", \"frontier_rounds\": %llu, "
                  "\"records_outstanding\": %llu, \"epochs_sealed\": %llu",
                  static_cast<unsigned long long>(snap.frontier_rounds),
                  static_cast<unsigned long long>(snap.records_outstanding),
                  static_cast<unsigned long long>(snap.epochs_sealed));
    out += buf;
    out += ", \"per_worker_events\": [";
    for (size_t i = 0; i < snap.per_worker_events.size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(snap.per_worker_events[i]);
    }
    out += "], \"operators\": [";
    for (size_t i = 0; i < snap.ops.size(); ++i) {
      const ShardOperatorStatus& op = snap.ops[i];
      if (i) out += ", ";
      out += "{\"shard\": " + std::to_string(op.shard) +
             ", \"slot\": " + std::to_string(op.snap.order) + ", \"name\": \"" +
             introspect::JsonEscape(op.snap.name) + "\"";
      std::snprintf(
          buf, sizeof(buf),
          ", \"queued_bytes\": %llu, \"trace_bytes\": %llu, "
          "\"trace_batches\": %llu",
          static_cast<unsigned long long>(op.snap.memory.queued_bytes),
          static_cast<unsigned long long>(op.snap.memory.trace_bytes),
          static_cast<unsigned long long>(op.snap.memory.trace_batches));
      out += buf;
      std::snprintf(
          buf, sizeof(buf),
          ", \"trace_high_water_bytes\": %llu, "
          "\"trace_reclaimed_bytes\": %llu, \"run_nanos\": %llu}",
          static_cast<unsigned long long>(
              op.snap.memory.trace_high_water_bytes),
          static_cast<unsigned long long>(op.snap.memory.trace_reclaimed_bytes),
          static_cast<unsigned long long>(op.snap.total_run_nanos));
      out += buf;
    }
    out += "], \"channels\": [";
    for (size_t i = 0; i < snap.edges.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s[%u, %u]", i ? ", " : "",
                    snap.edges[i].first, snap.edges[i].second);
      out += buf;
    }
    out += "], \"dot\": \"";
    out += introspect::JsonEscape(RenderDot(snap));
    out += "\", \"sched\": ";
    out += profile_->RenderJson();
    out += "}";
    return out;
  }

 private:
  struct ShardOperatorStatus {
    size_t shard = 0;
    Dataflow::OperatorSnapshot snap;
  };

  /// Point-in-time execution state, refreshed at Step's phase barriers and
  /// copied (under status_mutex_) by the scrape producer.
  struct StatusSnapshot {
    uint32_t version = 0;
    bool stepping = false;
    bool frontier_valid = false;
    Time frontier;
    uint64_t frontier_rounds = 0;
    uint64_t records_outstanding = 0;
    uint64_t epochs_sealed = 0;
    std::vector<uint64_t> per_worker_events;
    std::vector<ShardOperatorStatus> ops;
    std::vector<std::pair<uint32_t, uint32_t>> edges;  // worker-0 topology
  };

  /// Graphviz digraph of the worker-0 operator graph, labeled with the
  /// latest memory attribution.
  static std::string RenderDot(const StatusSnapshot& snap) {
    std::string dot = "digraph dataflow {\n  rankdir=LR;\n";
    for (const ShardOperatorStatus& op : snap.ops) {
      if (op.shard != 0) continue;
      dot += "  n" + std::to_string(op.snap.order) + " [label=\"" +
             op.snap.name + " #" + std::to_string(op.snap.order);
      if (op.snap.memory.trace_bytes > 0) {
        dot += "\\n" + std::to_string(op.snap.memory.trace_bytes) + "B";
      }
      dot += "\"];\n";
    }
    for (const auto& [from, to] : snap.edges) {
      dot += "  n" + std::to_string(from) + " -> n" + std::to_string(to) +
             ";\n";
    }
    dot += "}\n";
    return dot;
  }

  static DataflowOptions FixupOptions(DataflowOptions options) {
    options.num_workers = std::max<size_t>(1, options.num_workers);
    return options;
  }

  /// Post-barrier skew/work inputs for StepProfile::StepEnd. Only called
  /// while no worker is running, so the schedulers and stats are stable.
  sched::StepInputs CollectStepInputs() {
    sched::StepInputs inputs;
    inputs.per_worker_events = PerWorkerEvents();
    inputs.per_worker_peak_pending.reserve(workers_.size());
    inputs.per_shard_records.assign(workers_.size(), 0);
    for (auto& worker : workers_) {
      inputs.per_worker_peak_pending.push_back(
          worker->scheduler().TakePeakPending());
      const std::vector<uint64_t>& work = worker->stats().shard_work;
      for (size_t s = 0; s < work.size() && s < inputs.per_shard_records.size();
           ++s) {
        inputs.per_shard_records[s] += work[s];
      }
    }
    inputs.exchange_batches = hub_->total_pushed();
    return inputs;
  }

  DataflowOptions options_;
  std::unique_ptr<ExchangeHub> hub_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Dataflow>> workers_;
  mutable std::mutex status_mutex_;
  StatusSnapshot status_;
  std::unique_ptr<sched::StepProfile> profile_;
  // Declared last: unregisters first on destruction, so no scrape can reach
  // a partially-destroyed dataflow (or profile_, which the render reads).
  std::unique_ptr<introspect::ScopedSource> introspect_source_;
};

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_SHARDED_H_
