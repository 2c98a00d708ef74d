#include "views/executor.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace_event.h"
#include "differential/arrcache.h"
#include "views/engine.h"

namespace gs::views {

namespace {

namespace dd = ::gs::differential;
using analytics::VertexValue;
using detail::Engine;

// Per-key difference of two monotone op_nanos snapshots (after − before).
std::map<std::string, uint64_t> OpNanosDelta(
    const std::map<std::string, uint64_t>& after,
    const std::map<std::string, uint64_t>& before) {
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, nanos] : after) {
    auto it = before.find(name);
    const uint64_t prev = it == before.end() ? 0 : it->second;
    if (nanos > prev) delta[name] = nanos - prev;
  }
  return delta;
}

}  // namespace

StatusOr<ExecutionResult> RunOnCollection(
    const analytics::Computation& computation, const PropertyGraph& graph,
    const MaterializedCollection& collection,
    const ExecutionOptions& options) {
  GS_RETURN_IF_ERROR(graph.CheckWeightColumn(options.weight_column));
  ExecutionResult result;
  result.strategy = options.strategy;
  result.chunk_size = options.chunk_size;
  const size_t k = collection.num_views();
  if (k == 0) return result;

  // Resolve every edge once; views reference edges by id.
  std::vector<WeightedEdge> resolved(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    resolved[e] = graph.ResolveWeighted(e, options.weight_column);
  }

  // Current view contents, maintained by applying the difference stream —
  // needed to seed scratch runs.
  std::vector<bool> present(graph.num_edges(), false);

  splitting::AdaptiveSplitter splitter(options.chunk_size);
  std::unique_ptr<Engine> engine;

  // Per-chunk decisions (strategy). For fixed strategies every chunk is
  // the same; adaptive consults the cost models. Each decision is recorded
  // (with the predictions it compared) for EXPLAIN.
  auto chunk_scratch_decision = [&](size_t chunk_begin,
                                    size_t chunk_end) -> bool {
    ChunkDecision decision;
    decision.begin = chunk_begin;
    decision.end = chunk_end;
    switch (options.strategy) {
      case splitting::Strategy::kDiffOnly:
        break;
      case splitting::Strategy::kScratch:
        decision.scratch = true;
        break;
      case splitting::Strategy::kAdaptive: {
        std::vector<uint64_t> view_sizes(
            collection.view_sizes.begin() + chunk_begin,
            collection.view_sizes.begin() + chunk_end);
        std::vector<uint64_t> diff_sizes(
            collection.diff_sizes.begin() + chunk_begin,
            collection.diff_sizes.begin() + chunk_end);
        splitting::ChunkPrediction prediction;
        decision.scratch = splitter.ChunkShouldRunScratch(
            view_sizes, diff_sizes, &prediction);
        decision.from_model = prediction.models_ready;
        decision.predicted_scratch_seconds = prediction.scratch_seconds;
        decision.predicted_diff_seconds = prediction.diff_seconds;
        break;
      }
    }
    result.chunk_decisions.push_back(decision);
    return decision.scratch;
  };

  // Folds a finished engine's work counters into the result (called before
  // a split discards the instance and once at the end).
  auto harvest = [&result](Engine* e) {
    if (e == nullptr) return;
    result.engine_stats.Merge(e->dataflow.AggregatedStats());
    std::vector<uint64_t> events = e->dataflow.PerWorkerEvents();
    if (result.per_worker_events.size() < events.size()) {
      result.per_worker_events.resize(events.size(), 0);
    }
    for (size_t i = 0; i < events.size(); ++i) {
      result.per_worker_events[i] += events[i];
    }
  };

  Timer total_timer;
  size_t t = 0;
  while (t < k) {
    // Determine the extent of this decision chunk and its strategy.
    size_t chunk_end;
    bool scratch;
    if (options.strategy == splitting::Strategy::kAdaptive && t == 0) {
      chunk_end = 1;
      scratch = true;  // bootstrap: GV1 from scratch
      result.chunk_decisions.push_back({t, chunk_end, scratch, false, 0, 0});
    } else if (options.strategy == splitting::Strategy::kAdaptive && t == 1) {
      chunk_end = 2;
      scratch = false;  // bootstrap: GV2 differentially
      result.chunk_decisions.push_back({t, chunk_end, scratch, false, 0, 0});
    } else {
      chunk_end = std::min(k, t + options.chunk_size);
      scratch = chunk_scratch_decision(t, chunk_end);
    }

    for (; t < chunk_end; ++t) {
      const std::vector<EdgeDiff>& view_diffs = collection.diffs.ViewDiffs(t);
      for (const EdgeDiff& d : view_diffs) {
        present[d.edge] = d.diff > 0;
      }

      // The very first view on a fresh engine is always a full feed; treat
      // a diff-strategy first view as a (free) scratch run of its diffs.
      bool need_new_engine = scratch || engine == nullptr;

      GS_TRACE_SPAN_V("executor", need_new_engine ? "view_scratch" : "view_diff",
                      static_cast<uint32_t>(t));
      Timer view_timer;
      ViewRunStats stats;
      // The engine's op_nanos grow monotonically across Steps; the delta
      // over this view's Step is the view's per-operator attribution.
      std::map<std::string, uint64_t> ops_before;
      if (need_new_engine) {
        harvest(engine.get());
        engine = std::make_unique<Engine>(computation, options.dataflow);
        uint64_t fed = 0;
        for (EdgeId e = 0; e < graph.num_edges(); ++e) {
          if (present[e]) {
            engine->Send(resolved[e], 1);
            ++fed;
          }
        }
        GS_RETURN_IF_ERROR(engine->Step());
        stats.ran_scratch = true;
        stats.input_size = fed;
      } else {
        ops_before = engine->dataflow.AggregatedStats().AggregatedOpNanos();
        for (const EdgeDiff& d : view_diffs) {
          engine->Send(resolved[d.edge], d.diff);
        }
        GS_RETURN_IF_ERROR(engine->Step());
        stats.ran_scratch = false;
        stats.input_size = view_diffs.size();
      }
      stats.op_nanos = OpNanosDelta(
          engine->dataflow.AggregatedStats().AggregatedOpNanos(), ops_before);
      stats.seconds = view_timer.Seconds();
      stats.view_size = collection.view_sizes[t];
      stats.estimated_diffs = collection.diff_sizes[t];
      uint32_t engine_version = engine->dataflow.current_version() - 1;
      stats.output_diffs =
          dd::UpdateMagnitude(engine->VersionDiffs(engine_version));

      // The cost models learn from the *measured* input sizes in stats —
      // the same numbers EXPLAIN later shows next to the estimates.
      if (stats.ran_scratch) {
        if (t > 0) ++result.num_splits;
        splitter.RecordScratch(stats.input_size, stats.seconds);
      } else {
        splitter.RecordDifferential(stats.input_size, stats.seconds);
      }

      if (options.capture_results) {
        analytics::ResultMap m;
        for (const auto& u : engine->AccumulatedAt(engine_version)) {
          if (u.diff != 1) {
            return Status::Internal(
                "non-unit multiplicity in computation output");
          }
          m[u.data.first] = u.data.second;
        }
        result.results.push_back(std::move(m));
      }
      // Registry writes once per view, after the measured region.
      static metrics::Counter* views_run =
          metrics::Registry::Global().GetCounter("gs_executor_views_run");
      static metrics::Counter* scratch_runs =
          metrics::Registry::Global().GetCounter("gs_executor_scratch_runs");
      static metrics::Histogram* view_nanos =
          metrics::Registry::Global().GetHistogram("gs_executor_view_nanos");
      static metrics::Histogram* input_diffs =
          metrics::Registry::Global().GetHistogram(
              "gs_executor_view_input_diffs");
      static metrics::Histogram* output_diffs =
          metrics::Registry::Global().GetHistogram(
              "gs_executor_view_output_diffs");
      views_run->Increment();
      if (stats.ran_scratch) scratch_runs->Increment();
      view_nanos->Observe(static_cast<uint64_t>(stats.seconds * 1e9));
      // Actual per-view |δC| telemetry: input magnitude fed to the engine
      // (full |GV| for a scratch run) and output difference-set magnitude.
      input_diffs->Observe(stats.input_size);
      output_diffs->Observe(stats.output_diffs);
      result.per_view.push_back(stats);
    }
  }
  harvest(engine.get());
  result.total_seconds = total_timer.Seconds();
  return result;
}

std::string ArrangementCacheTag(const analytics::Computation& computation,
                                const ExecutionOptions& options) {
  // 0 workers runs one, so both share the /w1 tag.
  const size_t workers = std::max<size_t>(1, options.dataflow.num_workers);
  return computation.cache_tag() + "/w" + std::to_string(workers) + "/c" +
         std::to_string(options.weight_column);
}

StatusOr<analytics::ResultMap> RunOnGraph(
    const analytics::Computation& computation, const PropertyGraph& graph,
    const ExecutionOptions& options) {
  GS_RETURN_IF_ERROR(graph.CheckWeightColumn(options.weight_column));
  // Single-version runs qualify for the process-level arrangement cache:
  // one transaction per run, builder or reader role decided by Begin.
  dd::DataflowOptions dopts = options.dataflow;
  std::shared_ptr<dd::ArrCacheTxn> txn;
  if (!options.arrangement_cache_scope.empty()) {
    txn = dd::ArrangementCache::Global().Begin(
        options.arrangement_cache_scope,
        ArrangementCacheTag(computation, options));
    dopts.arrcache = txn;
  }
  Engine engine(computation, dopts);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (!graph.edge_alive(e)) continue;
    engine.Send(graph.ResolveWeighted(e, options.weight_column), 1);
  }
  GS_RETURN_IF_ERROR(engine.Step());
  if (txn != nullptr) txn->Commit();
  analytics::ResultMap m;
  for (const auto& u : engine.AccumulatedAt(0)) {
    if (u.diff != 1) {
      return Status::Internal("non-unit multiplicity in computation output");
    }
    m[u.data.first] = u.data.second;
  }
  return m;
}

}  // namespace gs::views
