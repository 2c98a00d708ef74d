#include "views/live.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace_event.h"
#include "differential/time.h"

namespace gs::views {

LiveRun::LiveRun(const PropertyGraph& graph,
                 const MaterializedCollection* collection,
                 const LiveRunOptions& options)
    : graph_(graph), collection_(collection), options_(options) {}

void LiveRun::Send(EdgeId e, differential::Diff diff) {
  engine_->Send(resolved_[e], diff);
  epoch_input_diffs_ += 1;
}

StatusOr<std::unique_ptr<LiveRun>> LiveRun::Start(
    const analytics::Computation& computation, const PropertyGraph& graph,
    const MaterializedCollection* collection, const LiveRunOptions& options) {
  if (collection == nullptr || collection->num_views() == 0) {
    return Status::InvalidArgument("live run needs a non-empty collection");
  }
  GS_RETURN_IF_ERROR(graph.CheckWeightColumn(options.weight_column));
  if (!collection->maintainable()) {
    return Status::FailedPrecondition(
        "live run needs a maintainable (predicate-defined) collection");
  }
  if (collection->graph_epoch != graph.mutation_epoch()) {
    return Status::FailedPrecondition(
        "collection '" + collection->name +
        "' is stale: materialized at epoch " +
        std::to_string(collection->graph_epoch) + ", graph is at " +
        std::to_string(graph.mutation_epoch()));
  }

  auto run = std::unique_ptr<LiveRun>(new LiveRun(graph, collection, options));
  run->num_views_ = collection->num_views();
  run->engine_ =
      std::make_unique<detail::Engine>(computation, options.dataflow);
  run->present_.assign(graph.num_edges(), 0);
  run->resolved_.resize(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    run->resolved_[e] = graph.ResolveWeighted(e, options.weight_column);
  }

  // Epoch 0: replay the difference stream, one engine version per view
  // (δC_0 = GV_0, so the first Step is the full first view).
  for (size_t t = 0; t < run->num_views_; ++t) {
    for (const EdgeDiff& d : collection->diffs.ViewDiffs(t)) {
      run->present_[d.edge] = d.diff > 0 ? 1 : 0;
      run->Send(d.edge, d.diff);
    }
    GS_RETURN_IF_ERROR(run->engine_->Step());
  }
  // Epoch 0 is the full initial build — by far the largest history the run
  // will ever feed — so collapsing it is worth a full compaction whatever
  // the cadence (unless sealing is disabled outright).
  if (options.full_compaction_period != 0) run->engine_->SealEpoch();
  run->epochs_fed_ = 1;
  run->last_epoch_input_diffs_ = run->epoch_input_diffs_;
  run->epoch_input_diffs_ = 0;
  return run;
}

namespace {

/// SLO + watchdog marker around one epoch advance. The start-time gauge is
/// what the watchdog's epoch_advance_deadline rule reads (non-zero =
/// in progress since that NowMillis); the destructor clears it on every
/// exit path so an early validation return can never leave the deadline
/// armed.
class EpochAdvanceScope {
 public:
  EpochAdvanceScope() {
    StartedGauge()->Set(static_cast<int64_t>(NowMillis()));
  }
  ~EpochAdvanceScope() {
    LatencyHistogram()->Observe(static_cast<uint64_t>(timer_.Nanos()));
    StartedGauge()->Set(0);
  }

 private:
  static metrics::Gauge* StartedGauge() {
    static auto* gauge = metrics::Registry::Global().GetGauge(
        "gs_live_epoch_advance_started_ms");
    return gauge;
  }
  static metrics::Histogram* LatencyHistogram() {
    static auto* histogram = metrics::Registry::Global().GetHistogram(
        "gs_live_epoch_advance_nanos");
    return histogram;
  }
  Timer timer_;
};

/// Sums the engine's cumulative per-worker time attribution into one record
/// (peak_pending becomes the max over workers — it is a level, not a sum).
sched::WorkerAttribution SumAttribution(const sched::StepProfile& profile) {
  sched::StepProfile::Snapshot snap = profile.GetSnapshot();
  sched::WorkerAttribution sum;
  for (const sched::WorkerAttribution& w : snap.totals) sum.Add(w);
  return sum;
}

/// after − before per cumulative field (clamped: attribution counters are
/// monotone, but snapshots are taken around code that also runs SealEpoch).
sched::WorkerAttribution AttributionDelta(const sched::WorkerAttribution& a,
                                          const sched::WorkerAttribution& b) {
  auto sub = [](uint64_t after, uint64_t before) {
    return after > before ? after - before : 0;
  };
  sched::WorkerAttribution delta;
  delta.busy_ns = sub(b.busy_ns, a.busy_ns);
  delta.exchange_ns = sub(b.exchange_ns, a.exchange_ns);
  delta.barrier_ns = sub(b.barrier_ns, a.barrier_ns);
  delta.seal_ns = sub(b.seal_ns, a.seal_ns);
  delta.idle_ns = sub(b.idle_ns, a.idle_ns);
  delta.events = sub(b.events, a.events);
  delta.peak_pending = b.peak_pending;
  return delta;
}

}  // namespace

Status LiveRun::AdvanceEpoch(const std::vector<EdgeId>& touched_edges) {
  EpochAdvanceScope slo_scope;
  const uint32_t epoch = epochs_fed_;
  if (collection_->graph_epoch != graph_.mutation_epoch()) {
    return Status::FailedPrecondition(
        "collection '" + collection_->name +
        "' not refreshed before AdvanceEpoch (run "
        "UpdateCollectionForMutations first)");
  }
  if (collection_->num_views() != num_views_) {
    return Status::FailedPrecondition("view count changed mid-run");
  }
  GS_TRACE_SPAN_V("live", "advance_epoch", epoch);
  const sched::WorkerAttribution attr_before =
      SumAttribution(engine_->dataflow.profile());

  const EdgeBooleanMatrix& ebm = *collection_->ebm;
  // Boustrophedon: even epochs walk positions 0 → k−1, odd epochs k−1 → 0.
  // The previous epoch (opposite parity) ended on this epoch's boundary
  // position, so the transition is between the same view.
  const bool descending = (epoch % 2) == 1;
  const size_t boundary_view =
      collection_->order[descending ? num_views_ - 1 : 0];

  // Grow per-edge state for edges appended by this batch. New edges start
  // absent (they were not in any previous-epoch view).
  present_.resize(graph_.num_edges(), 0);
  resolved_.resize(graph_.num_edges());

  // Touched edges may have new weights: save the records originally fed
  // (retractions must match them) before refreshing the cache.
  std::vector<WeightedEdge> old_records(touched_edges.size());
  for (size_t i = 0; i < touched_edges.size(); ++i) {
    EdgeId e = touched_edges[i];
    old_records[i] = resolved_[e];
    resolved_[e] = graph_.ResolveWeighted(e, options_.weight_column);
  }

  // --- First version of the epoch: the transition -----------------------
  // Accumulated input goes from "boundary view, old epoch" to "boundary
  // view, new epoch" — the same view, so only touched edges (membership
  // and/or record changed; maintenance re-evaluates exactly the touched
  // set) can carry a non-zero diff.
  for (size_t i = 0; i < touched_edges.size(); ++i) {
    EdgeId e = touched_edges[i];
    bool old_in = present_[e] != 0;
    bool new_in = ebm.Get(e, boundary_view);  // alive-gated by the maintainer
    const WeightedEdge& old_record = old_records[i];
    if (old_in && new_in && old_record == resolved_[e]) {
      continue;  // carried over unchanged
    }
    if (old_in) {
      // Retract the exact record originally fed (pre-update weight).
      engine_->Send(old_record, -1);
      epoch_input_diffs_ += 1;
    }
    if (new_in) Send(e, 1);
    present_[e] = new_in ? 1 : 0;
  }
  GS_RETURN_IF_ERROR(engine_->Step());

  // --- Remaining versions: replay the maintained stream -----------------
  // Ascending replays δC_t as-is (position t−1 → t); descending replays it
  // negated (position t → t−1).
  if (!descending) {
    for (size_t t = 1; t < num_views_; ++t) {
      for (const EdgeDiff& d : collection_->diffs.ViewDiffs(t)) {
        present_[d.edge] = d.diff > 0 ? 1 : 0;
        Send(d.edge, d.diff);
      }
      GS_RETURN_IF_ERROR(engine_->Step());
    }
  } else {
    for (size_t t = num_views_ - 1; t >= 1; --t) {
      for (const EdgeDiff& d : collection_->diffs.ViewDiffs(t)) {
        present_[d.edge] = d.diff > 0 ? 0 : 1;
        Send(d.edge, -d.diff);
      }
      GS_RETURN_IF_ERROR(engine_->Step());
    }
  }

  if (options_.full_compaction_period != 0 &&
      epoch % options_.full_compaction_period == 0) {
    engine_->SealEpoch();
  }
  ++epochs_fed_;
  last_epoch_input_diffs_ = epoch_input_diffs_;
  epoch_input_diffs_ = 0;
  last_epoch_attr_ = AttributionDelta(
      attr_before, SumAttribution(engine_->dataflow.profile()));

  static auto* epochs_fed =
      metrics::Registry::Global().GetCounter("gs_live_epochs_fed");
  static auto* input_diffs = metrics::Registry::Global().GetHistogram(
      "gs_live_epoch_input_diffs");
  epochs_fed->Increment();
  input_diffs->Observe(last_epoch_input_diffs_);
  // Where this epoch's engine time went, as cumulative /metrics counters: a
  // scraper can diff two samples to see whether live maintenance is
  // operator-bound or stalled on barriers/exchange.
  struct StateCounter {
    const char* state;
    uint64_t sched::WorkerAttribution::* field;
  };
  static const StateCounter kStates[] = {
      {"busy", &sched::WorkerAttribution::busy_ns},
      {"exchange", &sched::WorkerAttribution::exchange_ns},
      {"barrier", &sched::WorkerAttribution::barrier_ns},
      {"seal", &sched::WorkerAttribution::seal_ns},
      {"idle", &sched::WorkerAttribution::idle_ns},
  };
  for (const StateCounter& sc : kStates) {
    metrics::Registry::Global()
        .GetCounter("gs_live_epoch_state_nanos", {{"state", sc.state}})
        ->Increment(last_epoch_attr_.*(sc.field));
  }
  return Status::Ok();
}

StatusOr<analytics::ResultMap> LiveRun::ResultsAt(uint32_t epoch,
                                                  size_t view) const {
  if (epoch >= epochs_fed_ || view >= num_views_) {
    return Status::OutOfRange(
        "no results at epoch " + std::to_string(epoch) + ", view " +
        std::to_string(view) + " (fed " + std::to_string(epochs_fed_) +
        " epochs × " + std::to_string(num_views_) + " views)");
  }
  // Odd epochs fed positions in descending order (see header): reverse the
  // position to find where this view's input landed.
  const size_t position =
      (epoch % 2) == 0 ? view : num_views_ - 1 - view;
  uint32_t version = differential::EpochVersion::Flatten(
      epoch, static_cast<uint32_t>(position),
      static_cast<uint32_t>(num_views_));
  analytics::ResultMap m;
  for (const auto& u : engine_->AccumulatedAt(version)) {
    if (u.diff != 1) {
      return Status::Internal("non-unit multiplicity in live output");
    }
    m[u.data.first] = u.data.second;
  }
  return m;
}

}  // namespace gs::views
