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

#include <algorithm>
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
  /// directly never shards — there num_workers only sizes the modeled
  /// `shard_work` accounting.
  size_t num_workers = 1;
  /// Safety cap on events processed within one version (divergence guard).
  /// In sharded mode the cap applies per worker shard.
  uint64_t max_events_per_version = 1ull << 34;
  /// Default cap on loop iterations (Iterate may override per-scope).
  uint32_t max_iterations = 1u << 20;
  /// Per-run transaction against the process-level shared-arrangement
  /// cache (arrcache.h), threaded to operators by views::RunOnGraph. When
  /// set, qualifying arrangement owners (ArrangeOp, arranged ReduceOp)
  /// either export their built traces (builder role) or seed them from the
  /// cached snapshot and skip the build (reader role). Null → every
  /// dataflow builds its own arrangements, the pre-cache behavior.
  std::shared_ptr<ArrCacheTxn> arrcache;
};

/// Aggregate counters. `updates_published` is the engine's measure of work
/// performed; the scalability bench derives modeled critical-path time from
/// the per-shard breakdown kept by keyed operators.
///
/// Thread model: each worker shard owns a private DataflowStats and updates
/// it without synchronization; cross-worker aggregation happens only through
/// Merge() after a barrier (ShardedDataflow::AggregatedStats), so no counter
/// is ever written concurrently.
struct DataflowStats {
  uint64_t updates_published = 0;
  uint64_t join_matches = 0;
  uint64_t reduce_evaluations = 0;
  uint64_t batches_published = 0;
  uint64_t exchanged_updates = 0;  // updates routed to a different shard
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
  /// Trace-size gauges, refreshed at each SealPhase: total entries and
  /// spine batches across all operator-owned traces, post-compaction.
  /// Merge() sums them, so a sharded aggregate is the fleet-wide total.
  uint64_t trace_entries = 0;
  uint64_t trace_spine_batches = 0;
  /// Memory-accounting gauges, refreshed alongside the trace gauges above:
  /// live resident bytes of operator history — owned traces (entry count ×
  /// sizeof(Entry), see Trace::kEntryBytes) plus reduces' per-key
  /// iteration-major histories — the high-water mark of that figure,
  /// cumulative bytes reclaimed by trace consolidation/compaction, and
  /// updates currently buffered in operator input ports + exchange inboxes.
  uint64_t trace_bytes = 0;
  uint64_t trace_high_water_bytes = 0;
  uint64_t trace_reclaimed_bytes = 0;
  uint64_t queued_update_bytes = 0;
  /// Cumulative spine maintenance counters, re-reported at each seal like
  /// the gauges above: batch merges performed (geometric invariant + full
  /// compactions) and full-spine compaction passes run.
  uint64_t trace_spine_merges = 0;
  uint64_t trace_compactions = 0;
  /// Wall time per operator, folded in at each SealPhase: RunAt plus the
  /// operator's OnStepBegin / OnVersionSealed work (input flushes, trace
  /// compaction). A stateful operator's RunAt includes the synchronous
  /// linear subscribers it feeds (map/filter chains run inside Publish).
  /// Keys follow the `name@shard` convention in sharded execution (see
  /// NormalizeOpName), so merging shards never conflates distinct shards'
  /// entries.
  std::map<std::string, uint64_t> op_nanos;
  /// Work attributed to each key shard (hash(key) % num_workers) by keyed
  /// operators. The scalability bench derives the modeled critical-path
  /// time of a W-worker run as max(shard_work) / mean(shard_work). In
  /// sharded execution worker w only ever touches keys it owns, so its
  /// shard_work is non-zero only at index w and Merge reassembles the
  /// per-shard breakdown.
  std::vector<uint64_t> shard_work;

  void AddShardWork(uint64_t key_hash, uint64_t amount) {
    if (!shard_work.empty()) {
      shard_work[key_hash % shard_work.size()] += amount;
    }
  }

  /// Folds another stats object into this one (element-wise sums). op_nanos
  /// keys are summed verbatim: worker shards record under distinct
  /// `name@shard` keys, so a merge across shards is lossless — use
  /// AggregatedOpNanos() for the per-operator rollup.
  void Merge(const DataflowStats& other) {
    updates_published += other.updates_published;
    join_matches += other.join_matches;
    reduce_evaluations += other.reduce_evaluations;
    batches_published += other.batches_published;
    exchanged_updates += other.exchanged_updates;
    exchanged_bytes += other.exchanged_bytes;
    arrangement_probes += other.arrangement_probes;
    arrangement_shares += other.arrangement_shares;
    trace_entries += other.trace_entries;
    trace_spine_batches += other.trace_spine_batches;
    trace_bytes += other.trace_bytes;
    trace_high_water_bytes += other.trace_high_water_bytes;
    trace_reclaimed_bytes += other.trace_reclaimed_bytes;
    queued_update_bytes += other.queued_update_bytes;
    trace_spine_merges += other.trace_spine_merges;
    trace_compactions += other.trace_compactions;
    for (const auto& [name, nanos] : other.op_nanos) {
      op_nanos[name] += nanos;
    }
    if (shard_work.size() < other.shard_work.size()) {
      shard_work.resize(other.shard_work.size(), 0);
    }
    for (size_t i = 0; i < other.shard_work.size(); ++i) {
      shard_work[i] += other.shard_work[i];
    }
  }

  /// Canonical operator key: lower-cased, with any `@<digits>` shard suffix
  /// stripped. "Join@3" and "join@0" both normalize to "join".
  static std::string NormalizeOpName(std::string name) {
    size_t at = name.rfind('@');
    if (at != std::string::npos && at + 1 < name.size()) {
      bool digits = true;
      for (size_t i = at + 1; i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9') {
          digits = false;
          break;
        }
      }
      if (digits) name.resize(at);
    }
    for (char& c : name) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    return name;
  }

  /// Per-operator wall time rolled up across shards: op_nanos with keys
  /// normalized (shard suffixes stripped) and equal names summed.
  std::map<std::string, uint64_t> AggregatedOpNanos() const {
    std::map<std::string, uint64_t> aggregated;
    for (const auto& [name, nanos] : op_nanos) {
      aggregated[NormalizeOpName(name)] += nanos;
    }
    return aggregated;
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
  uint64_t trace_compactions = 0;

  /// Folds one owned trace's accounting into this snapshot.
  template <typename Tr>
  void AddTrace(const Tr& trace) {
    trace_entries += trace.total_entries();
    trace_bytes += trace.live_bytes();
    trace_batches += trace.num_spine_batches();
    trace_high_water_bytes += trace.high_water_bytes();
    trace_reclaimed_bytes += trace.reclaimed_bytes();
    trace_merges += trace.num_merges();
    trace_compactions += trace.num_compactions();
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
  /// (owned traces, buffered input) into `out`. Called from SealPhase on
  /// the shard's own thread (never concurrently with operator execution),
  /// then folded into DataflowStats and the per-arrangement gauges.
  virtual void CollectMemory(OperatorMemory* out) const {}

  /// Returns and resets the wall time this operator spent in RunAt since
  /// the last call (folded into DataflowStats::op_nanos at each seal).
  uint64_t TakeRunNanos() {
    uint64_t nanos = run_nanos_;
    total_run_nanos_ += nanos;
    run_nanos_ = 0;
    return nanos;
  }

  /// Cumulative wall time across the operator's lifetime (advanced by
  /// TakeRunNanos at each seal; surfaced by /statusz).
  uint64_t total_run_nanos() const { return total_run_nanos_; }

  /// Attributes extra wall time to this operator. The Dataflow uses this to
  /// charge OnStepBegin / OnVersionSealed work (input flushes, compaction)
  /// to the operator that performed it, so per-operator profiles account
  /// for (nearly) all engine time, not just RunAt.
  void AddRunNanos(uint64_t nanos) { run_nanos_ += nanos; }

  /// Refreshes this operator's per-arrangement registry gauges from a
  /// memory snapshot. Gauges are created lazily on the first snapshot with
  /// any trace footprint (linear operators never allocate any); the
  /// destructor zeroes the live gauges so torn-down dataflows stop
  /// claiming memory in /statusz and /metrics.
  void UpdateMemoryGauges(const OperatorMemory& memory);

 protected:
  /// Schedules RunAt(t) unless one is already pending for t.
  void RequestRun(const Time& time);

  /// Stateful operators override this to drain their ports at `time`.
  virtual void RunAt(const Time& time) {}

  /// Records this operator as the owner of `publisher` (its output handle)
  /// so Dataflow::GraphEdges can resolve subscriptions into operator →
  /// operator channels for /statusz. Call once per output in the ctor.
  void RegisterOutput(const void* publisher);

  Dataflow* dataflow_;

 private:
  struct MemoryGauges {
    metrics::Gauge* bytes = nullptr;
    metrics::Gauge* batches = nullptr;
    metrics::Gauge* high_water = nullptr;
    metrics::Gauge* reclaimed = nullptr;
  };

  uint32_t order_ = 0;
  std::string name_;
  uint64_t run_nanos_ = 0;
  uint64_t total_run_nanos_ = 0;
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

  /// Updates currently buffered across all pending timestamps.
  size_t buffered_updates() const {
    size_t n = 0;
    for (const auto& [time, batch] : buffers_) n += batch.size();
    return n;
  }
  /// Buffered payload bytes (record size × update count), for the
  /// queued-update memory accounting in /statusz.
  size_t buffered_bytes() const {
    return buffered_updates() * sizeof(Update<D>);
  }

 private:
  std::map<Time, Batch<D>, TimeLexLess> buffers_;
};

/// Fan-out point owned by a producing operator. Publishing consolidates the
/// batch and schedules one delivery event per subscriber.
template <typename D>
class Publisher {
 public:
  using Callback = std::function<void(const Time&, const Batch<D>&)>;

  /// Subscribes `op_order`'s callback and records the (publisher →
  /// consumer) channel in the dataflow's graph topology, so /statusz can
  /// render operators and channels without walking live operator state.
  /// Defined after Dataflow (it records the edge there).
  void Subscribe(Dataflow* dataflow, uint32_t op_order, Callback callback);

  void Publish(Dataflow* dataflow, const Time& time, Batch<D>&& batch);

 private:
  struct Subscriber {
    uint32_t op_order;
    Callback callback;
  };
  // unique_ptr for address stability: scheduled events hold pointers to the
  // callback while later Subscribe calls may grow the vector.
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
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
      : options_(options) {
    stats_.shard_work.assign(options_.num_workers, 0);
  }

  /// Worker-shard constructor, used by ShardedDataflow only.
  Dataflow(DataflowOptions options, ExchangeHub* hub, size_t worker_index)
      : options_(options), hub_(hub), worker_index_(worker_index) {
    stats_.shard_work.assign(options_.num_workers, 0);
  }

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

  // --- Graph topology (construction-time only; safe to read at scrape) ----

  /// Records `owner` (an operator order) as the producer behind `publisher`.
  void NotePublisher(const void* publisher, uint32_t owner) {
    publisher_owner_[publisher] = owner;
  }
  /// Records a subscription of operator `consumer` to `publisher`.
  void NoteSubscription(const void* publisher, uint32_t consumer) {
    subscriptions_.emplace_back(publisher, consumer);
  }

  /// Resolved (producer order, consumer order) channels, deduplicated.
  /// Subscriptions whose publisher was never registered through
  /// RegisterOutput (none in-tree) are dropped.
  std::vector<std::pair<uint32_t, uint32_t>> GraphEdges() const {
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    edges.reserve(subscriptions_.size());
    for (const auto& [publisher, consumer] : subscriptions_) {
      auto it = publisher_owner_.find(publisher);
      if (it != publisher_owner_.end()) {
        edges.emplace_back(it->second, consumer);
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
  }

  /// Point-in-time per-operator introspection record (see
  /// CollectOperatorSnapshots).
  struct OperatorSnapshot {
    uint32_t order = 0;
    std::string name;
    OperatorMemory memory;
    uint64_t total_run_nanos = 0;
  };

  /// Collects one snapshot per operator. Must run on the thread that owns
  /// this shard's phase (ShardedDataflow calls it after the SealPhase
  /// barrier); the result is plain data, safe to hand to a scrape thread.
  std::vector<OperatorSnapshot> CollectOperatorSnapshots() const {
    std::vector<OperatorSnapshot> snapshots;
    snapshots.reserve(registered_.size());
    for (const OperatorBase* op : registered_) {
      OperatorSnapshot snap;
      snap.order = op->order();
      snap.name = op->name();
      op->CollectMemory(&snap.memory);
      snap.total_run_nanos = op->total_run_nanos();
      snapshots.push_back(std::move(snap));
    }
    return snapshots;
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
    // The flush span makes input publication visible to the critical-path
    // extractor (critical_path.h): at W == 1 the op/flush/seal spans
    // together cover essentially the whole step.
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
    for (OperatorBase* op : registered_) {
      Timer timer;
      op->OnVersionSealed(version_);
      op->AddRunNanos(static_cast<uint64_t>(timer.Nanos()));
      uint64_t nanos = op->TakeRunNanos();
      if (nanos != 0) {
        // Distinct keys per shard so ShardedDataflow::AggregatedStats keeps
        // the per-shard breakdown (see DataflowStats::NormalizeOpName).
        if (sharded()) {
          stats_.op_nanos[op->name() + "@" + std::to_string(worker_index_)] +=
              nanos;
        } else {
          stats_.op_nanos[op->name()] += nanos;
        }
      }
    }
    // The trace gauges, byte accounting, and cumulative spine counters are
    // re-collected post-compaction from every operator's CollectMemory, so
    // reset them first; per-arrangement registry gauges refresh alongside.
    stats_.trace_entries = 0;
    stats_.trace_spine_batches = 0;
    stats_.trace_bytes = 0;
    stats_.trace_high_water_bytes = 0;
    stats_.trace_reclaimed_bytes = 0;
    stats_.queued_update_bytes = 0;
    stats_.trace_spine_merges = 0;
    stats_.trace_compactions = 0;
    for (OperatorBase* op : registered_) {
      OperatorMemory memory;
      op->CollectMemory(&memory);
      stats_.trace_entries += memory.trace_entries;
      stats_.trace_spine_batches += memory.trace_batches;
      stats_.trace_bytes += memory.trace_bytes;
      stats_.trace_high_water_bytes += memory.trace_high_water_bytes;
      stats_.trace_reclaimed_bytes += memory.trace_reclaimed_bytes;
      stats_.queued_update_bytes += memory.queued_bytes;
      stats_.trace_spine_merges += memory.trace_merges;
      stats_.trace_compactions += memory.trace_compactions;
      op->UpdateMemoryGauges(memory);
    }
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
    for (OperatorBase* op : registered_) {
      Timer timer;
      op->OnEpochSealed(last_version);
      op->AddRunNanos(static_cast<uint64_t>(timer.Nanos()));
      uint64_t nanos = op->TakeRunNanos();
      if (nanos != 0) {
        if (sharded()) {
          stats_.op_nanos[op->name() + "@" + std::to_string(worker_index_)] +=
              nanos;
        } else {
          stats_.op_nanos[op->name()] += nanos;
        }
      }
    }
    ++epochs_sealed_;
    static metrics::Counter* epochs_sealed =
        metrics::Registry::Global().GetCounter("gs_engine_epochs_sealed");
    epochs_sealed->Increment();
  }

  /// Graph-update epochs sealed so far on this shard.
  uint64_t epochs_sealed() const { return epochs_sealed_; }

  size_t num_operators() const { return registered_.size(); }

 private:
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
  std::map<const void*, uint32_t> publisher_owner_;
  std::vector<std::pair<const void*, uint32_t>> subscriptions_;
  Scheduler scheduler_;
  DataflowStats stats_;
  std::vector<std::unique_ptr<OperatorBase>> operators_;
  std::vector<OperatorBase*> registered_;
  uint32_t version_ = 0;
  uint64_t step_start_events_ = 0;
  uint64_t epochs_sealed_ = 0;
};

inline OperatorBase::OperatorBase(Dataflow* dataflow, std::string name)
    : dataflow_(dataflow), name_(std::move(name)) {
  order_ = dataflow->RegisterOperator(this);
}

inline OperatorBase::~OperatorBase() {
  // Zero the live gauges so a torn-down dataflow stops claiming resident
  // memory (satellite invariant: gauges return to zero after teardown).
  // High-water and reclaimed are historical marks and are left standing.
  if (gauges_.bytes != nullptr) gauges_.bytes->Set(0);
  if (gauges_.batches != nullptr) gauges_.batches->Set(0);
}

inline void OperatorBase::RegisterOutput(const void* publisher) {
  dataflow_->NotePublisher(publisher, order_);
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
    gauges_.high_water =
        registry.GetGauge("gs_arrangement_bytes_high_water", labels);
    gauges_.reclaimed =
        registry.GetGauge("gs_arrangement_bytes_reclaimed", labels);
  }
  gauges_.bytes->Set(static_cast<int64_t>(memory.trace_bytes));
  gauges_.batches->Set(static_cast<int64_t>(memory.trace_batches));
  gauges_.high_water->Set(static_cast<int64_t>(memory.trace_high_water_bytes));
  gauges_.reclaimed->Set(static_cast<int64_t>(memory.trace_reclaimed_bytes));
}

template <typename D>
void Publisher<D>::Subscribe(Dataflow* dataflow, uint32_t op_order,
                             Callback callback) {
  dataflow->NoteSubscription(this, op_order);
  subscribers_.push_back(
      std::make_unique<Subscriber>(Subscriber{op_order, std::move(callback)}));
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
  dataflow->stats().batches_published += 1;
  // Synchronous fan-out: linear subscribers process (and re-publish)
  // immediately; stateful subscribers buffer into an InputPort and schedule
  // a RunAt through the scheduler.
  for (const auto& sub : subscribers_) {
    sub->callback(time, batch);
  }
}

/// An input: buffers updates between Steps and publishes them as one batch
/// at the version being stepped.
template <typename D>
class InputOp : public OperatorBase {
 public:
  explicit InputOp(Dataflow* dataflow) : OperatorBase(dataflow, "input") {
    RegisterOutput(&output_);
  }

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
