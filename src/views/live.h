// Live (continuously maintained) execution of an analytics computation over
// a view collection across graph-update epochs — the streaming half of the
// tentpole: instead of recomputing a collection's analytics after each
// mutation batch, the differential engine's version axis is extended with an
// epoch dimension and only the *changed* input is fed.
//
// Time model: graph-update epochs and view positions form a product order
// where epochs dominate. The engine's versions are totally ordered, so the
// product is embedded epoch-major (differential::EpochVersion):
//     engine_version = epoch * num_views + view_position
// The accumulated input at flattened version (e, t) is exactly
//     { ResolveWeighted(edge) : edge alive at epoch e
//                               ∧ edge ∈ view t under the epoch-e EBM }
// so the engine's accumulated *output* at (e, t) is the computation's result
// on view t of epoch e — query any (epoch, view) cell at any time.
//
// Within an epoch, views are fed boustrophedon: even epochs walk the
// collection order ascending (0 → k−1), odd epochs descending (k−1 → 0,
// replaying the maintained difference stream negated). Every epoch
// transition is therefore between the *same* view position — the last view
// one epoch fed is the first view the next epoch feeds — so the transition
// only needs diffs for edges touched by the mutation batch. (A fixed
// ascending order would instead pay a wrap-around at every boundary:
// view k−1 → view 0 retracts every edge that alternates anywhere in the
// collection, a deletion cascade through the computation each epoch.)
// Per-epoch input cost is O(|touched| + Σ_t |δC_t|) with the constant
// halved versus the wrap-around design. ResultsAt hides the zigzag: it maps
// (epoch, view position) to the flattened engine version, reversing the
// position for odd epochs. After the last view of an epoch the engine may
// seal the epoch (full trace compaction — no future input can land at or
// before it) at the cadence set by LiveRunOptions::full_compaction_period.
#ifndef GRAPHSURGE_VIEWS_LIVE_H_
#define GRAPHSURGE_VIEWS_LIVE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "algorithms/computation.h"
#include "algorithms/reference.h"
#include "common/sched_profile.h"
#include "common/status.h"
#include "views/collection.h"
#include "views/engine.h"
#include "views/executor.h"

namespace gs::views {

struct LiveRunOptions {
  /// Edge property column used as edge weight; -1 → weight 1. Checked
  /// like ExecutionOptions::weight_column.
  int weight_column = -1;
  /// Engine parameters (num_workers > 1 runs sharded; defaults to the
  /// system's worker count, see SystemDefaultDataflow).
  differential::DataflowOptions dataflow = SystemDefaultDataflow();
  /// Seal (fully compact) the engine's traces after every N-th epoch;
  /// epochs in between rely on the amortized per-version compaction alone.
  /// 0 never epoch-seals. A full-spine rewrite costs O(total state)
  /// regardless of batch size, so streams of small frequent batches should
  /// raise this; 1 (the default) preserves seal-every-epoch behavior.
  /// Purely a compaction cadence — results are identical for any value.
  uint32_t full_compaction_period = 1;
};

/// A continuously maintained differential execution: one computation, one
/// maintainable collection, advanced epoch-by-epoch as mutation batches
/// land. `graph` and `collection` are borrowed and must outlive the run;
/// the collection must be refreshed (UpdateCollectionForMutations) before
/// each AdvanceEpoch.
class LiveRun {
 public:
  /// Builds the engine and feeds epoch 0: every view of the collection's
  /// current materialization, differentially (the kDiffOnly strategy).
  static StatusOr<std::unique_ptr<LiveRun>> Start(
      const analytics::Computation& computation, const PropertyGraph& graph,
      const MaterializedCollection* collection, const LiveRunOptions& options);

  /// Feeds one more epoch. Preconditions: the mutation batch has been
  /// applied to the graph AND the collection has been incrementally updated
  /// (its graph_epoch matches the graph's). `touched_edges` is the batch's
  /// sorted/deduplicated touched set (MutationEffects::touched_edges).
  Status AdvanceEpoch(const std::vector<EdgeId>& touched_edges);

  /// The computation's full result on view `view` of epoch `epoch`
  /// (accumulated engine output at the flattened version).
  StatusOr<analytics::ResultMap> ResultsAt(uint32_t epoch, size_t view) const;

  /// Epochs fed so far (1 after Start: epoch 0).
  uint32_t epochs_fed() const { return epochs_fed_; }
  size_t num_views() const { return num_views_; }
  /// Input updates fed for the most recent epoch (the per-epoch diff count
  /// surfaced by /statusz and gs_live_epoch_input_diffs).
  uint64_t last_epoch_input_diffs() const { return last_epoch_input_diffs_; }
  /// Aggregated engine work counters (call between epochs).
  differential::DataflowStats EngineStats() const {
    return engine_->dataflow.AggregatedStats();
  }
  /// Scheduler time attribution (summed over workers) for the most recent
  /// AdvanceEpoch — where the epoch's wall clock went: operator work,
  /// exchange drains, barrier waits, seals, or idle. Mirrored into the
  /// gs_live_epoch_state_nanos{state=...} counters.
  const sched::WorkerAttribution& last_epoch_attribution() const {
    return last_epoch_attr_;
  }

 private:
  LiveRun(const PropertyGraph& graph, const MaterializedCollection* collection,
          const LiveRunOptions& options);

  /// Feeds resolved_[e] with `diff` and counts it toward the epoch total.
  void Send(EdgeId e, differential::Diff diff);

  const PropertyGraph& graph_;
  const MaterializedCollection* collection_;
  LiveRunOptions options_;
  std::unique_ptr<detail::Engine> engine_;
  size_t num_views_ = 0;
  uint32_t epochs_fed_ = 0;
  uint64_t epoch_input_diffs_ = 0;       // accumulator for the current epoch
  uint64_t last_epoch_input_diffs_ = 0;  // finished-epoch readout
  sched::WorkerAttribution last_epoch_attr_;  // finished-epoch time split
  /// present_[e]: edge e is in the most recently fed view's accumulated
  /// input. resolved_[e]: the exact record fed for e (retractions must
  /// byte-match the original insertion even after a weight update).
  std::vector<uint8_t> present_;
  std::vector<WeightedEdge> resolved_;
};

}  // namespace gs::views

#endif  // GRAPHSURGE_VIEWS_LIVE_H_
