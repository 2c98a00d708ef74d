// Dataflow construction and execution: operators, publishers, streams, and
// the per-version driver loop. See DESIGN.md §3 for the execution model.
//
// Usage sketch (Bellman-Ford-like):
//
//   Dataflow df;
//   auto edges = df.NewInput<WeightedEdge>();
//   auto roots = df.NewInput<std::pair<VertexId, int64_t>>();
//   auto dists = Iterate<std::pair<VertexId, int64_t>>(
//       roots.stream(), [&](LoopScope& scope, auto inner) {
//         auto e = scope.Enter(edges.stream());
//         ...
//       });
//   auto capture = Capture(dists);
//   edges.Send(...); roots.Send(...);
//   df.Step();   // version 0 to fixpoint
//   edges.Send(...);  // differences only
//   df.Step();   // version 1 shares computation
#ifndef GRAPHSURGE_DIFFERENTIAL_DATAFLOW_H_
#define GRAPHSURGE_DIFFERENTIAL_DATAFLOW_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/trace_event.h"
#include "differential/fuzz_hooks.h"
#include "differential/scheduler.h"
#include "differential/time.h"
#include "differential/update.h"

namespace gs::differential {

class Dataflow;
class ExchangeHub;   // defined in exchange.h
class ArrCacheTxn;   // defined in arrcache.h

/// Execution parameters.
struct DataflowOptions {
  /// Worker parallelism. A ShardedDataflow (sharded.h) with num_workers = W
  /// runs W worker shards, each owning its own Scheduler, operator state,
  /// and traces; keyed operators (join/reduce) hash-partition their input
  /// across shards through exchange queues, mirroring Timely worker
  /// parallelism in-process. 1 = serial. A standalone Dataflow constructed
  /// directly never shards and does not read num_workers.
  size_t num_workers = 1;
  /// Safety cap on events processed within one version (divergence guard).
  /// In sharded mode the cap applies per worker shard.
  uint64_t max_events_per_version = 1ull << 34;
  /// Per-run transaction against the process-level shared-arrangement
  /// cache (arrcache.h), threaded to operators by views::RunOnGraph. When
  /// set, qualifying arrangement owners (ArrangeOp, arranged ReduceOp)
  /// either export their built traces (builder role) or seed them from the
  /// cached snapshot and skip the build (reader role). Null → every
  /// dataflow builds its own arrangements, the pre-cache behavior.
  std::shared_ptr<ArrCacheTxn> arrcache;
};

/// Aggregate counters. `updates_published` is the engine's measure of work
/// performed.
///
/// Thread model: each worker shard owns a private DataflowStats and updates
/// it without synchronization; cross-worker aggregation happens only through
/// Merge() after a barrier (ShardedDataflow::AggregatedStats), so no counter
/// is ever written concurrently.
struct DataflowStats {
  uint64_t updates_published = 0;
  uint64_t join_matches = 0;
  uint64_t reduce_evaluations = 0;
  /// Payload bytes pushed into peer shards' exchange inboxes (record size ×
  /// update count; wire format equals in-memory format in-process).
  uint64_t exchanged_bytes = 0;
  /// Reads of a *shared* arrangement trace by a consumer that does not own
  /// it (JoinArranged probes, reduce-over-arrangement accumulations) — the
  /// work the pre-arrangement plan would have answered from private copies.
  uint64_t arrangement_probes = 0;
  /// Consumers attached to a shared arrangement (JoinArranged /
  /// ReduceArranged endpoints), counted at graph construction. Each share is
  /// one private trace the pre-arrangement plan would have built and
  /// maintained redundantly.
  uint64_t arrangement_shares = 0;
  /// Operator-state totals of the last seal (Dataflow::SealPhase or
  /// SealEpoch), summed over its operator snapshot: entries and spine
  /// batches across all operator-owned traces, live resident bytes of
  /// operator history — owned traces (entry count × sizeof(Entry), see
  /// Trace::kEntryBytes) plus reduces' per-key iteration-major histories —
  /// the high-water mark of that figure, and cumulative spine batch merges.
  /// Merge() sums them, so a sharded aggregate is the fleet-wide total.
  uint64_t trace_entries = 0;
  uint64_t trace_spine_batches = 0;
  uint64_t trace_bytes = 0;
  uint64_t trace_high_water_bytes = 0;
  uint64_t trace_spine_merges = 0;
  /// Wall time per operator name, folded in at each seal: RunAt plus the
  /// operator's OnStepBegin / OnVersionSealed / OnEpochSealed work (input
  /// flushes, trace compaction). A stateful operator's RunAt includes the
  /// synchronous linear subscribers it feeds (map/filter chains run inside
  /// Publish). Per-shard, per-operator time is each snapshot row's
  /// run_nanos.
  std::map<std::string, uint64_t> op_nanos;
  /// Records processed by this dataflow's keyed operators: one per join
  /// match, plus the input and output sizes of each reduce evaluation that
  /// emits. A worker shard touches only the keys it owns, so per worker this
  /// is its shard's record count (StepInputs::per_shard_records).
  uint64_t shard_records = 0;

  /// Folds another stats object into this one (element-wise sums; op_nanos
  /// summed per operator name).
  void Merge(const DataflowStats& other) {
    updates_published += other.updates_published;
    join_matches += other.join_matches;
    reduce_evaluations += other.reduce_evaluations;
    exchanged_bytes += other.exchanged_bytes;
    arrangement_probes += other.arrangement_probes;
    arrangement_shares += other.arrangement_shares;
    trace_entries += other.trace_entries;
    trace_spine_batches += other.trace_spine_batches;
    trace_bytes += other.trace_bytes;
    trace_high_water_bytes += other.trace_high_water_bytes;
    trace_spine_merges += other.trace_spine_merges;
    shard_records += other.shard_records;
    for (const auto& [name, nanos] : other.op_nanos) {
      op_nanos[name] += nanos;
    }
  }

  /// Per-operator wall time rolled up across shards. Every shard keys
  /// op_nanos by operator name, so the rollup is a copy of op_nanos.
  std::map<std::string, uint64_t> AggregatedOpNanos() const {
    return op_nanos;
  }
};

/// Point-in-time memory attribution for one operator, filled in by
/// OperatorBase::CollectMemory overrides. Byte figures are entry counts ×
/// fixed record sizes (Trace::kEntryBytes, sizeof(Update<D>)), not malloc
/// capacity — deterministic across execution orders, so serial == sum of
/// shards holds exactly and /statusz gauges can be checked against a manual
/// spine-size computation.
struct OperatorMemory {
  /// Updates buffered in input ports + exchange inboxes, in bytes.
  uint64_t queued_bytes = 0;
  uint64_t trace_entries = 0;
  uint64_t trace_bytes = 0;
  uint64_t trace_batches = 0;
  uint64_t trace_high_water_bytes = 0;
  uint64_t trace_reclaimed_bytes = 0;
  uint64_t trace_merges = 0;

  /// Folds one owned trace's accounting into this snapshot.
  template <typename Tr>
  void AddTrace(const Tr& trace) {
    trace_entries += trace.total_entries();
    trace_bytes += trace.live_bytes();
    trace_batches += trace.num_spine_batches();
    trace_high_water_bytes += trace.high_water_bytes();
    trace_reclaimed_bytes += trace.reclaimed_bytes();
    trace_merges += trace.num_merges();
  }
};

/// Base class of all operators; concrete operators are created through
/// Dataflow::AddOperator and owned by the Dataflow.
///
/// Delivery model: linear (stateless) operators run synchronously inside
/// Publisher::Publish. Stateful operators (join, reduce, scope egress)
/// instead buffer incoming batches per timestamp in InputPorts and call
/// RequestRun(t); the scheduler then invokes RunAt(t) exactly once per
/// pending (operator, time), which drains *all* buffered input at t
/// atomically. This per-timestamp atomicity mirrors DD's frontier-batched
/// operator execution and is essential: processing a retraction and its
/// matching re-assertion separately would send transient correction pairs
/// around feedback loops forever.
class OperatorBase {
 public:
  OperatorBase(Dataflow* dataflow, std::string name);
  virtual ~OperatorBase();

  uint32_t order() const { return order_; }
  const std::string& name() const { return name_; }

  /// Hook called when Step() begins (inputs flush their buffers here).
  virtual void OnStepBegin(uint32_t version) {}
  /// Hook called after a version reaches quiescence (traces compact here).
  virtual void OnVersionSealed(uint32_t version) {}
  /// Hook called when a graph-update epoch is sealed (Dataflow::SealEpoch):
  /// every version of the finished epoch is final and no future input will
  /// land at or before `last_version`, so trace-owning operators compact
  /// their full spines (Trace::CompactEpoch) under the looser epoch guard.
  virtual void OnEpochSealed(uint32_t last_version) {}

  /// Stateful operators override this to attribute their resident memory
  /// (owned traces, buffered input) into `out`. Called once per seal, by
  /// the seal walk on the shard's own thread (never concurrently with
  /// operator execution).
  virtual void CollectMemory(OperatorMemory* out) const {}

  /// Returns and resets the wall time this operator spent in RunAt since
  /// the last call (folded into DataflowStats::op_nanos at each seal).
  uint64_t TakeRunNanos() { return std::exchange(run_nanos_, 0); }

  /// Attributes extra wall time to this operator. The Dataflow uses this to
  /// charge OnStepBegin / OnVersionSealed work (input flushes, compaction)
  /// to the operator that performed it, so per-operator profiles account
  /// for (nearly) all engine time, not just RunAt.
  void AddRunNanos(uint64_t nanos) { run_nanos_ += nanos; }

  /// Moves this operator's share of the per-arrangement registry gauges to
  /// a memory snapshot by adding the change since its last report, so
  /// dataflows whose operators share a {op, shard, slot} series sum. Gauges
  /// are created lazily on the first snapshot with any trace footprint
  /// (linear operators never allocate any); the destructor takes the last
  /// report back out, so a torn-down dataflow stops claiming memory.
  void UpdateMemoryGauges(const OperatorMemory& memory);

 protected:
  /// Schedules RunAt(t) unless one is already pending for t.
  void RequestRun(const Time& time);

  /// Stateful operators override this to drain their ports at `time`.
  virtual void RunAt(const Time& time) {}

  Dataflow* dataflow_;

 private:
  struct MemoryGauges {
    metrics::Gauge* bytes = nullptr;
    metrics::Gauge* batches = nullptr;
    // This operator's last report, which the series above include.
    int64_t reported_bytes = 0;
    int64_t reported_batches = 0;
  };

  uint32_t order_ = 0;
  std::string name_;
  uint64_t run_nanos_ = 0;
  MemoryGauges gauges_;
  std::set<Time, TimeLexLess> run_pending_;
};

/// A per-timestamp input buffer for stateful operators.
template <typename D>
class InputPort {
 public:
  void Append(const Time& time, const Batch<D>& batch) {
    Batch<D>& pending = buffers_[time];
    pending.insert(pending.end(), batch.begin(), batch.end());
  }

  /// Removes and returns the (consolidated) buffered batch at `time`.
  Batch<D> Take(const Time& time) {
    auto it = buffers_.find(time);
    if (it == buffers_.end()) return {};
    Batch<D> batch = std::move(it->second);
    buffers_.erase(it);
    Consolidate(&batch);
    return batch;
  }

  /// Buffered payload bytes (record size × update count), for the
  /// queued-update memory accounting in /statusz.
  size_t buffered_bytes() const {
    size_t n = 0;
    for (const auto& [time, batch] : buffers_) n += batch.size();
    return n * sizeof(Update<D>);
  }

 private:
  std::map<Time, Batch<D>, TimeLexLess> buffers_;
};

/// Fan-out point owned by a producing operator. Publishing consolidates the
/// batch and hands it to every subscriber's callback.
template <typename D>
class Publisher {
 public:
  using Callback = std::function<void(const Time&, const Batch<D>&)>;

  void Subscribe(Callback callback) {
    subscribers_.push_back(std::move(callback));
  }

  void Publish(Dataflow* dataflow, const Time& time, Batch<D>&& batch);

 private:
  std::vector<Callback> subscribers_;
};

/// A lightweight handle to an operator's output. Copyable; valid as long as
/// the Dataflow lives. Fluent transformation methods are defined in
/// operators.h / join.h / reduce.h / iterate.h (include differential.h).
template <typename D>
class Stream {
 public:
  Stream() = default;
  Stream(Dataflow* dataflow, Publisher<D>* publisher)
      : dataflow_(dataflow), publisher_(publisher) {}

  Dataflow* dataflow() const { return dataflow_; }
  Publisher<D>* publisher() const { return publisher_; }
  bool valid() const { return publisher_ != nullptr; }

  // Fluent API (definitions in operators.h and friends).
  template <typename Fn>
  auto Map(Fn fn) const;  // Stream<result_of Fn(D)>
  template <typename Fn>
  Stream<D> Filter(Fn fn) const;
  template <typename Fn>
  auto FlatMap(Fn fn) const;  // Fn(D, std::vector<Out>*)
  Stream<D> Concat(Stream<D> other) const;
  Stream<D> Negate() const;
  Stream<D> InspectBatches(
      std::function<void(const Time&, const Batch<D>&)> fn) const;

 private:
  Dataflow* dataflow_ = nullptr;
  Publisher<D>* publisher_ = nullptr;
};

/// The dataflow graph plus its execution state.
///
/// A Dataflow is either standalone (the classic single-threaded engine) or
/// one worker shard of a ShardedDataflow (sharded.h). In the latter case it
/// carries its worker index and a pointer to the shared ExchangeHub, and
/// keyed operators splice exchange edges into the graph at construction
/// time. A shard's operators, scheduler, traces, and stats are only ever
/// touched by the one thread running the shard's current phase.
class Dataflow {
 public:
  explicit Dataflow(DataflowOptions options = DataflowOptions())
      : options_(options) {}

  /// Worker-shard constructor, used by ShardedDataflow only.
  Dataflow(DataflowOptions options, ExchangeHub* hub, size_t worker_index)
      : options_(options), hub_(hub), worker_index_(worker_index) {}

  Dataflow(const Dataflow&) = delete;
  Dataflow& operator=(const Dataflow&) = delete;

  const DataflowOptions& options() const { return options_; }
  Scheduler& scheduler() { return scheduler_; }
  DataflowStats& stats() { return stats_; }
  const DataflowStats& stats() const { return stats_; }

  // --- Sharded execution wiring (see exchange.h / sharded.h) --------------

  /// True when this dataflow is a shard of a multi-worker run and keyed
  /// operators must repartition their input by key hash.
  bool sharded() const { return hub_ != nullptr && options_.num_workers > 1; }
  ExchangeHub* exchange_hub() const { return hub_; }
  size_t worker_index() const { return worker_index_; }

  /// Exchange channel ids. Worker shards are built by running the same
  /// deterministic builder once per shard, so the n-th allocation on every
  /// shard refers to the same logical exchange edge.
  uint32_t AllocateExchangeChannel() { return next_exchange_channel_++; }

  /// Exchange endpoints register a drainer that moves cross-worker batches
  /// from their mutex-protected inbox into the operator's input port.
  void RegisterInboxDrainer(std::function<bool()> drainer) {
    inbox_drainers_.push_back(std::move(drainer));
  }

  /// Delivers all pending cross-worker batches. Returns true if anything
  /// was delivered (i.e. the scheduler may have new work). Wall time spent
  /// here accumulates into the exchange-drain attribution bucket; a shard
  /// with no exchange endpoints (serial execution) reports exactly zero.
  bool DrainExchangeInboxes() {
    if (inbox_drainers_.empty()) return false;
    Timer timer;
    bool any = false;
    for (auto& drain : inbox_drainers_) any = drain() || any;
    drain_nanos_ += static_cast<uint64_t>(timer.Nanos());
    return any;
  }

  /// Returns and resets the wall time spent in DrainExchangeInboxes since
  /// the last call (the sharded driver folds it into the per-worker
  /// exchange-drain state; see common/sched_profile.h).
  uint64_t TakeDrainNanos() {
    uint64_t nanos = drain_nanos_;
    drain_nanos_ = 0;
    return nanos;
  }

  /// Constructs and takes ownership of an operator.
  template <typename Op, typename... Args>
  Op* AddOperator(Args&&... args) {
    auto op = std::make_unique<Op>(this, std::forward<Args>(args)...);
    Op* raw = op.get();
    operators_.push_back(std::move(op));
    return raw;
  }

  uint32_t RegisterOperator(OperatorBase* op) {
    registered_.push_back(op);
    return static_cast<uint32_t>(registered_.size() - 1);
  }

  /// One operator's state as of the last seal. The seal walk writes it on
  /// the shard's own thread; a sharded coordinator copies it after the seal
  /// barrier, so a scrape reads plain data, never operator state.
  struct OperatorSnapshot {
    std::string name;
    OperatorMemory memory;
    uint64_t run_nanos = 0;  // cumulative, summed by the seal walk
  };

  /// One row per operator, indexed by its order, refreshed by every
  /// SealPhase and SealEpoch; empty before the first seal.
  const std::vector<OperatorSnapshot>& sealed_snapshot() const {
    return sealed_;
  }

  /// The version the next Step() will process.
  uint32_t current_version() const { return version_; }

  /// Flushes all input buffers at the current version, runs the scheduler
  /// to quiescence (the differential fixpoint), seals the version, and
  /// advances. Returns an error if the event cap is exceeded.
  ///
  /// Standalone drivers call Step(); ShardedDataflow instead invokes the
  /// three phases below directly with barriers in between, repeating
  /// RunPhase until every shard and exchange queue is quiescent.
  Status Step() {
    BeginStepPhase();
    GS_RETURN_IF_ERROR(RunPhase());
    SealPhase();
    return Status::Ok();
  }

  /// Phase 1: flush input buffers at the current version (OnStepBegin).
  void BeginStepPhase() {
    GS_TRACE_SPAN_V("engine", "flush", version_);
    step_start_events_ = scheduler_.events_processed();
    for (OperatorBase* op : registered_) {
      Timer timer;
      op->OnStepBegin(version_);
      op->AddRunNanos(static_cast<uint64_t>(timer.Nanos()));
    }
  }

  /// Phase 2 (standalone / single worker): deliver pending exchange batches
  /// and run the local scheduler until both are exhausted.
  Status RunPhase() {
    for (;;) {
      bool delivered = DrainExchangeInboxes();
      if (!delivered && scheduler_.empty()) break;
      while (scheduler_.RunOne()) {
        GS_RETURN_IF_ERROR(CheckEventCap());
      }
    }
    return Status::Ok();
  }

  /// Phase 2 (sharded): run only events at times ≤ `frontier` (lex),
  /// re-draining exchange inboxes as peers deliver concurrently. The
  /// sharded driver computes `frontier` as the global minimum pending time
  /// each round, so no shard speculates past the frontier into loop
  /// iterations whose cross-shard input has not arrived — optimistic
  /// execution there would converge to the same result, but only after
  /// avalanches of corrections that destroy work-efficiency.
  Status RunBoundedPhase(const Time& frontier) {
    for (;;) {
      bool delivered = DrainExchangeInboxes();
      bool ran = false;
      while (!scheduler_.empty() &&
             !frontier.LexLess(scheduler_.PeekKey().time)) {
        scheduler_.RunOne();
        ran = true;
        GS_RETURN_IF_ERROR(CheckEventCap());
      }
      if (!delivered && !ran) break;
    }
    return Status::Ok();
  }

  /// Earliest pending local event time; only valid when HasPendingWork().
  bool HasPendingWork() const { return !scheduler_.empty(); }
  const Time& MinPendingTime() const { return scheduler_.PeekKey().time; }

  /// Phase 3: seal the version (trace compaction) and advance.
  void SealPhase() {
    GS_TRACE_SPAN_V("engine", "seal", version_);
    SealOperators([this](OperatorBase* op) { op->OnVersionSealed(version_); });
    // Registry writes happen only here (per version, not per event), so the
    // hot scheduler loop stays metrics-free.
    static metrics::Counter* versions_sealed =
        metrics::Registry::Global().GetCounter("gs_engine_versions_sealed");
    static metrics::Histogram* version_events =
        metrics::Registry::Global().GetHistogram("gs_engine_version_events");
    versions_sealed->Increment();
    version_events->Observe(scheduler_.events_processed() -
                            step_start_events_);
    ++version_;
  }

  /// Seals a graph-update epoch after its last version was stepped: invokes
  /// every operator's OnEpochSealed with the last sealed version, forcing
  /// full spine compaction. Called between Steps (never mid-phase) by the
  /// live view-collection driver; the epoch counter is only advanced here.
  void SealEpoch() {
    GS_CHECK(version_ > 0) << "SealEpoch before any Step";
    uint32_t last_version = version_ - 1;
    GS_TRACE_SPAN_V("engine", "seal_epoch", last_version);
    SealOperators(
        [last_version](OperatorBase* op) { op->OnEpochSealed(last_version); });
    ++epochs_sealed_;
    static metrics::Counter* epochs_sealed =
        metrics::Registry::Global().GetCounter("gs_engine_epochs_sealed");
    epochs_sealed->Increment();
  }

  /// Graph-update epochs sealed so far on this shard.
  uint64_t epochs_sealed() const { return epochs_sealed_; }

  size_t num_operators() const { return registered_.size(); }

 private:
  /// The seal walk shared by SealPhase and SealEpoch, the one place
  /// operator state is accounted: runs `seal` on each operator (its time
  /// charged to the operator), takes the operator's time into op_nanos,
  /// reads its memory once into the sealed snapshot, and from that row
  /// refreshes the trace totals in stats_ and the per-arrangement gauges.
  template <typename SealFn>
  void SealOperators(SealFn seal) {
    sealed_.resize(registered_.size());
    stats_.trace_entries = 0;
    stats_.trace_spine_batches = 0;
    stats_.trace_bytes = 0;
    stats_.trace_high_water_bytes = 0;
    stats_.trace_spine_merges = 0;
    for (size_t i = 0; i < registered_.size(); ++i) {
      OperatorBase* op = registered_[i];
      Timer timer;
      seal(op);
      op->AddRunNanos(static_cast<uint64_t>(timer.Nanos()));
      const uint64_t nanos = op->TakeRunNanos();
      if (nanos != 0) stats_.op_nanos[op->name()] += nanos;
      OperatorSnapshot& row = sealed_[i];
      row.name = op->name();
      row.run_nanos += nanos;
      row.memory = OperatorMemory();
      op->CollectMemory(&row.memory);
      stats_.trace_entries += row.memory.trace_entries;
      stats_.trace_spine_batches += row.memory.trace_batches;
      stats_.trace_bytes += row.memory.trace_bytes;
      stats_.trace_high_water_bytes += row.memory.trace_high_water_bytes;
      stats_.trace_spine_merges += row.memory.trace_merges;
      op->UpdateMemoryGauges(row.memory);
    }
  }

  Status CheckEventCap() const {
    if (scheduler_.events_processed() - step_start_events_ >
        options_.max_events_per_version) {
      return Status::Internal(
          "event cap exceeded at version " + std::to_string(version_) +
          " — computation may not converge");
    }
    // Fault-injection hook (fuzz_hooks.h): simulate a mid-run resource
    // failure through the same clean Status path as the event cap. The
    // fuzzer asserts teardown leaks nothing and a retry succeeds.
    const fuzz::Hooks& fz = fuzz::GlobalHooks();
    if (fz.fail_after_events != 0 &&
        scheduler_.events_processed() - step_start_events_ >=
            fz.fail_after_events) {
      return Status::Internal(
          "injected allocation failure after " +
          std::to_string(fz.fail_after_events) + " events at version " +
          std::to_string(version_));
    }
    return Status::Ok();
  }

  DataflowOptions options_;
  ExchangeHub* hub_ = nullptr;
  size_t worker_index_ = 0;
  uint32_t next_exchange_channel_ = 0;
  uint64_t drain_nanos_ = 0;
  std::vector<std::function<bool()>> inbox_drainers_;
  Scheduler scheduler_;
  DataflowStats stats_;
  std::vector<std::unique_ptr<OperatorBase>> operators_;
  std::vector<OperatorBase*> registered_;
  std::vector<OperatorSnapshot> sealed_;
  uint32_t version_ = 0;
  uint64_t step_start_events_ = 0;
  uint64_t epochs_sealed_ = 0;
};

inline OperatorBase::OperatorBase(Dataflow* dataflow, std::string name)
    : dataflow_(dataflow), name_(std::move(name)) {
  order_ = dataflow->RegisterOperator(this);
}

inline OperatorBase::~OperatorBase() {
  // Take this operator's share back out, so the gauges return to zero once
  // every dataflow is torn down.
  if (gauges_.bytes == nullptr) return;
  gauges_.bytes->Add(-gauges_.reported_bytes);
  gauges_.batches->Add(-gauges_.reported_batches);
}

inline void OperatorBase::UpdateMemoryGauges(const OperatorMemory& memory) {
  if (gauges_.bytes == nullptr) {
    // Linear operators never own a trace; don't pollute the registry with
    // permanently-zero gauge series for them.
    if (memory.trace_high_water_bytes == 0 && memory.trace_batches == 0) {
      return;
    }
    metrics::Registry& registry = metrics::Registry::Global();
    metrics::Registry::Labels labels{
        {"op", name_},
        {"shard", std::to_string(dataflow_->worker_index())},
        {"slot", std::to_string(order_)}};
    gauges_.bytes = registry.GetGauge("gs_arrangement_bytes", labels);
    gauges_.batches = registry.GetGauge("gs_arrangement_batches", labels);
  }
  const auto bytes = static_cast<int64_t>(memory.trace_bytes);
  const auto batches = static_cast<int64_t>(memory.trace_batches);
  gauges_.bytes->Add(bytes - gauges_.reported_bytes);
  gauges_.batches->Add(batches - gauges_.reported_batches);
  gauges_.reported_bytes = bytes;
  gauges_.reported_batches = batches;
}

inline void OperatorBase::RequestRun(const Time& time) {
  if (!run_pending_.insert(time).second) return;
  dataflow_->scheduler().Schedule(time, order_, [this, time] {
    run_pending_.erase(time);
    GS_TRACE_SPAN_V("op", name_, time.version);
    Timer timer;
    RunAt(time);
    run_nanos_ += static_cast<uint64_t>(timer.Nanos());
  });
}

template <typename D>
void Publisher<D>::Publish(Dataflow* dataflow, const Time& time,
                           Batch<D>&& batch) {
  // Empty batches publish nothing and count nothing: no stats, no subscriber
  // callbacks, no downstream RunAt scheduling. Checked both before and after
  // consolidation (a batch of cancelling diffs consolidates to empty).
  if (batch.empty() || subscribers_.empty()) return;
  Consolidate(&batch);
  if (batch.empty()) return;
  dataflow->stats().updates_published += batch.size();
  // Synchronous fan-out: linear subscribers process (and re-publish)
  // immediately; stateful subscribers buffer into an InputPort and schedule
  // a RunAt through the scheduler.
  for (const Callback& callback : subscribers_) callback(time, batch);
}

/// An input: buffers updates between Steps and publishes them as one batch
/// at the version being stepped.
template <typename D>
class InputOp : public OperatorBase {
 public:
  explicit InputOp(Dataflow* dataflow) : OperatorBase(dataflow, "input") {}

  /// Buffers an update for the next Step().
  void Send(D data, Diff diff) {
    buffer_.push_back(Update<D>{std::move(data), diff});
  }
  void SendBatch(Batch<D> batch) {
    buffer_.insert(buffer_.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
  }

  void OnStepBegin(uint32_t version) override {
    output_.Publish(dataflow_, Time(version), std::move(buffer_));
    buffer_.clear();
  }

  Stream<D> stream() { return Stream<D>(dataflow_, &output_); }

 private:
  Publisher<D> output_;
  Batch<D> buffer_;
};

/// Convenience holder pairing a Dataflow with a new input operator.
template <typename D>
class Input {
 public:
  explicit Input(Dataflow* dataflow)
      : op_(dataflow->AddOperator<InputOp<D>>()) {}

  void Send(D data, Diff diff = 1) { op_->Send(std::move(data), diff); }
  void SendBatch(Batch<D> batch) { op_->SendBatch(std::move(batch)); }
  Stream<D> stream() const { return op_->stream(); }

 private:
  InputOp<D>* op_;
};

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_DATAFLOW_H_
