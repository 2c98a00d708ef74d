// The Analytics Computation Executor (paper §3.2.2 + §5): runs a
// Computation over every view of a materialized collection, sharing work
// across views differentially, from scratch, or adaptively per the
// collection splitting optimizer.
#ifndef GRAPHSURGE_VIEWS_EXECUTOR_H_
#define GRAPHSURGE_VIEWS_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algorithms/computation.h"
#include "algorithms/reference.h"
#include "differential/differential.h"
#include "splitting/adaptive.h"
#include "views/collection.h"

namespace gs::views {

/// Engine parameters whose worker count is 0, "system default":
/// api::Graphsurge substitutes GraphsurgeOptions::num_workers, and a direct
/// views:: run uses one worker.
inline differential::DataflowOptions SystemDefaultDataflow() {
  differential::DataflowOptions options;
  options.num_workers = 0;
  return options;
}

struct ExecutionOptions {
  splitting::Strategy strategy = splitting::Strategy::kDiffOnly;
  /// ℓ: adaptive decisions cover this many views at a time (paper §5).
  size_t chunk_size = 10;
  /// Edge property column used as Bellman-Ford/MPSP weight; -1 → weight 1.
  /// Any other value must name an int or double edge column, or the run
  /// fails with InvalidArgument before any edge is resolved.
  int weight_column = -1;
  /// Engine parameters; dataflow.num_workers > 1 runs every view of the
  /// collection on a sharded multi-worker engine (differential/sharded.h)
  /// with results identical to serial execution. Defaults to the system's
  /// worker count (SystemDefaultDataflow).
  differential::DataflowOptions dataflow = SystemDefaultDataflow();
  /// Keep each view's full result (tests and examples; memory-heavy).
  bool capture_results = false;
  /// Non-empty → RunOnGraph shares arrangements through the process-level
  /// arrangement cache (differential/arrcache.h) under this scope. The
  /// scope must identify the graph *content* uniquely process-wide —
  /// api::Graphsurge uses "gs<instance>/<graph>@<epoch>" so mutations and
  /// same-named graphs in other instances never alias. Collection runs
  /// (multi-version) never use the cache regardless of this field.
  std::string arrangement_cache_scope;
};

struct ViewRunStats {
  double seconds = 0;
  bool ran_scratch = false;
  /// Size of the input fed for this view (|GV| for scratch, |δC| for
  /// differential) and of the output difference set produced. These are the
  /// *actual* measured counts; the splitting cost models and EXPLAIN both
  /// consume them (never re-derived from the collection metadata).
  uint64_t input_size = 0;
  uint64_t output_diffs = 0;
  /// The collection's ordering-time estimates for the same view: |GV_t|
  /// from the EBM column and |δC_t| from the difference stream. EXPLAIN
  /// shows estimated_diffs next to the actual input_size.
  uint64_t view_size = 0;
  uint64_t estimated_diffs = 0;
  /// Wall time per operator spent computing this view: the delta of the
  /// engine's op_nanos over this view's Step(), rolled up across worker
  /// shards (DataflowStats::AggregatedOpNanos). Keys are normalized
  /// operator names ("join", "reduce", ...).
  std::map<std::string, uint64_t> op_nanos;
};

/// One splitting decision: the chunk of views it covered, what was chosen,
/// and the cost-model predictions that drove it (meaningful for the
/// adaptive strategy; fixed strategies record predictions of 0 with
/// from_model = false).
struct ChunkDecision {
  size_t begin = 0;
  size_t end = 0;  // exclusive
  bool scratch = false;
  bool from_model = false;
  double predicted_scratch_seconds = 0;
  double predicted_diff_seconds = 0;
};

struct ExecutionResult {
  double total_seconds = 0;
  std::vector<ViewRunStats> per_view;
  /// The strategy and chunking this run used, plus every per-chunk
  /// decision in order — EXPLAIN renders these verbatim.
  splitting::Strategy strategy = splitting::Strategy::kDiffOnly;
  size_t chunk_size = 0;
  std::vector<ChunkDecision> chunk_decisions;
  /// Number of scratch runs after the first view (the paper's "splits").
  size_t num_splits = 0;
  /// Engine work counters summed over all engines used by the run.
  differential::DataflowStats engine_stats;
  /// Scheduler events executed by each worker shard, summed over all
  /// engines — the measured work distribution of a sharded run
  /// (max/mean bounds the achievable multi-worker speedup).
  std::vector<uint64_t> per_worker_events;
  /// Per-view results (only when ExecutionOptions::capture_results).
  std::vector<analytics::ResultMap> results;

  /// Human-readable profiling report: a per-view × per-operator wall-time
  /// table (milliseconds), one row per view plus a TOTAL row, followed by
  /// the run's headline engine counters. The per-operator columns cover the
  /// union of operators seen across views.
  std::string Profile() const;
};

/// Runs `computation` over all views of `collection` (defined over
/// `graph`) with the chosen strategy.
StatusOr<ExecutionResult> RunOnCollection(
    const analytics::Computation& computation, const PropertyGraph& graph,
    const MaterializedCollection& collection,
    const ExecutionOptions& options);

/// The arrangement-cache tag RunOnGraph files a run under:
/// `<cache_tag>/w<num_workers>/c<weight_column>`. It captures everything
/// that shapes the dataflow and its arrangement contents beyond the graph
/// itself (the cache scope covers the graph).
std::string ArrangementCacheTag(const analytics::Computation& computation,
                                const ExecutionOptions& options);

/// Runs `computation` once over a full graph (a single view). Iterative
/// computations still share work across their own iterations.
StatusOr<analytics::ResultMap> RunOnGraph(
    const analytics::Computation& computation, const PropertyGraph& graph,
    const ExecutionOptions& options = ExecutionOptions());

}  // namespace gs::views

#endif  // GRAPHSURGE_VIEWS_EXECUTOR_H_
