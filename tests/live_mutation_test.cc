// ApplyMutations incremental-vs-reload equivalence: a LiveRun fed mutation
// epochs (with its collection incrementally maintained) must match a
// from-scratch rematerialization + batch execution at every (epoch, view)
// cell — for WCC, PageRank, and BFS, at 1 and 4 workers. Also covers the
// maintenance preconditions and the Graphsurge facade's WAL recovery path.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "api/graphsurge.h"
#include "common/metrics.h"
#include "common/random.h"
#include "graph/graph.h"
#include "graph/mutation.h"
#include "views/collection.h"
#include "views/executor.h"
#include "views/live.h"

namespace gs {
namespace {

PropertyGraph BuildTestGraph(uint64_t num_nodes, uint64_t num_edges,
                             uint64_t seed) {
  PropertyGraph g;
  g.AddNodes(num_nodes);
  EXPECT_TRUE(g.edge_properties().AddColumn("w", PropertyType::kInt).ok());
  Rng rng(seed);
  for (uint64_t i = 0; i < num_edges; ++i) {
    uint64_t src = rng.Index(num_nodes);
    uint64_t dst = rng.Index(num_nodes);
    EXPECT_TRUE(g.AddEdge(src, dst).ok());
    EXPECT_TRUE(
        g.edge_properties().AppendRow({PropertyValue(rng.Uniform(0, 15))}).ok());
  }
  return g;
}

/// Weight-threshold views (nested) plus the full view. Predicates read the
/// *current* graph state through the reference, so they stay correct as
/// mutations land — exactly what the maintenance path relies on.
std::vector<std::function<bool(EdgeId)>> MakePredicates(
    const PropertyGraph& g, int wcol) {
  std::vector<std::function<bool(EdgeId)>> preds;
  for (int64_t threshold : {4, 8, 12}) {
    preds.push_back([&g, wcol, threshold](EdgeId e) {
      return g.ResolveWeighted(e, wcol).weight <= threshold;
    });
  }
  preds.push_back([](EdgeId) { return true; });
  return preds;
}

/// One epoch's batch against the current graph: weight updates, edge
/// adds/removes, one node removal. Each candidate keeps the whole batch
/// valid or is dropped (same pattern as the fuzz resolver).
MutationBatch MakeBatch(const PropertyGraph& g, Rng* rng) {
  MutationBatch b;
  auto keep_if_valid = [&](Mutation m) {
    b.push_back(std::move(m));
    if (!CheckMutationBatch(g, b).ok()) b.pop_back();
  };
  const uint64_t n = g.num_nodes();
  const uint64_t m = g.num_edges();
  for (int i = 0; i < 4; ++i) {
    keep_if_valid(Mutation::SetEdgeProperty(
        rng->Index(m), "w", PropertyValue(rng->Uniform(0, 15))));
  }
  for (int i = 0; i < 3; ++i) {
    keep_if_valid(Mutation::AddEdge(rng->Index(n), rng->Index(n),
                                    {PropertyValue(rng->Uniform(0, 15))}));
  }
  keep_if_valid(Mutation::RemoveEdge(rng->Index(m)));
  keep_if_valid(Mutation::RemoveNode(rng->Index(n)));
  EXPECT_FALSE(b.empty());
  return b;
}

void ExpectEpochMatchesScratch(
    const analytics::Computation& computation, const PropertyGraph& g,
    const std::vector<std::string>& names,
    const std::vector<std::function<bool(EdgeId)>>& preds,
    const views::LiveRun& live, uint32_t epoch, int wcol) {
  views::MaterializeOptions mopts;
  auto fresh = views::MaterializeCollectionWith(g, "fresh", names, preds, mopts);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  views::ExecutionOptions eo;
  eo.strategy = splitting::Strategy::kDiffOnly;
  eo.weight_column = wcol;
  eo.capture_results = true;
  auto scratch = views::RunOnCollection(computation, g, fresh.value(), eo);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  for (size_t t = 0; t < names.size(); ++t) {
    auto cell = live.ResultsAt(epoch, t);
    ASSERT_TRUE(cell.ok()) << cell.status().ToString();
    EXPECT_EQ(cell.value(), scratch.value().results[t])
        << "epoch " << epoch << " view " << t;
  }
}

void RunEquivalence(const analytics::Computation& computation,
                    size_t workers) {
  PropertyGraph g = BuildTestGraph(24, 60, /*seed=*/7);
  const int wcol = g.FindWeightColumn("w");
  ASSERT_GE(wcol, 0);
  const std::vector<std::string> names = {"w4", "w8", "w12", "all"};
  auto preds = MakePredicates(g, wcol);

  views::MaterializeOptions mopts;
  auto col = views::MaterializeCollectionWith(g, "c", names, preds, mopts);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  views::MaterializedCollection mc = std::move(col).value();
  ASSERT_TRUE(mc.maintainable());

  views::LiveRunOptions lopts;
  lopts.weight_column = wcol;
  lopts.dataflow.num_workers = workers;
  auto live = views::LiveRun::Start(computation, g, &mc, lopts);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  ExpectEpochMatchesScratch(computation, g, names, preds, *live.value(), 0,
                            wcol);
  Rng rng(123 + workers);
  for (uint32_t epoch = 1; epoch <= 3; ++epoch) {
    MutationBatch batch = MakeBatch(g, &rng);
    MutationEffects effects;
    Status applied = ApplyMutationBatch(&g, batch, &effects);
    ASSERT_TRUE(applied.ok()) << applied.ToString();
    Status maintained =
        views::UpdateCollectionForMutations(&mc, g, effects.touched_edges);
    ASSERT_TRUE(maintained.ok()) << maintained.ToString();
    Status advanced = live.value()->AdvanceEpoch(effects.touched_edges);
    ASSERT_TRUE(advanced.ok()) << advanced.ToString();
    EXPECT_EQ(live.value()->epochs_fed(), epoch + 1);
    // Every historical epoch stays queryable, but checking the newest one
    // against a fresh rebuild is the load-bearing assertion.
    ExpectEpochMatchesScratch(computation, g, names, preds, *live.value(),
                              epoch, wcol);
  }
}

TEST(LiveMutationTest, WccOneWorker) {
  analytics::Wcc wcc;
  RunEquivalence(wcc, 1);
}

TEST(LiveMutationTest, WccFourWorkers) {
  analytics::Wcc wcc;
  RunEquivalence(wcc, 4);
}

TEST(LiveMutationTest, PageRankOneWorker) {
  analytics::PageRank pagerank(4);
  RunEquivalence(pagerank, 1);
}

TEST(LiveMutationTest, PageRankFourWorkers) {
  analytics::PageRank pagerank(4);
  RunEquivalence(pagerank, 4);
}

TEST(LiveMutationTest, BfsOneWorker) {
  analytics::Bfs bfs(0);
  RunEquivalence(bfs, 1);
}

TEST(LiveMutationTest, BfsFourWorkers) {
  analytics::Bfs bfs(0);
  RunEquivalence(bfs, 4);
}

TEST(LiveMutationTest, AdvanceEpochRequiresRefreshedCollection) {
  PropertyGraph g = BuildTestGraph(10, 20, 3);
  const int wcol = g.FindWeightColumn("w");
  auto preds = MakePredicates(g, wcol);
  views::MaterializeOptions mopts;
  auto col = views::MaterializeCollectionWith(g, "c", {"a", "b", "c", "d"},
                                              preds, mopts);
  ASSERT_TRUE(col.ok());
  views::MaterializedCollection mc = std::move(col).value();
  analytics::Wcc wcc;
  views::LiveRunOptions lopts;
  lopts.weight_column = wcol;
  auto live = views::LiveRun::Start(wcc, g, &mc, lopts);
  ASSERT_TRUE(live.ok());

  MutationEffects effects;
  ASSERT_TRUE(
      ApplyMutationBatch(&g, {Mutation::RemoveEdge(0)}, &effects).ok());
  // The in-progress marker a scraper reads: non-zero only while an advance
  // runs, so it must read 0 again after every return, early ones included.
  metrics::Gauge* started = metrics::Registry::Global().GetGauge(
      "gs_live_epoch_advance_started_ms");
  // Collection not refreshed yet: the live run must refuse the epoch.
  Status advanced = live.value()->AdvanceEpoch(effects.touched_edges);
  EXPECT_EQ(advanced.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(started->Value(), 0);
  // After maintenance it proceeds.
  ASSERT_TRUE(
      views::UpdateCollectionForMutations(&mc, g, effects.touched_edges).ok());
  EXPECT_TRUE(live.value()->AdvanceEpoch(effects.touched_edges).ok());
  EXPECT_EQ(started->Value(), 0);
}

TEST(LiveMutationTest, ViewsEntryPointsRejectBadWeightColumns) {
  // Columns: w (int, 0) and tag (string, 1).
  PropertyGraph g;
  g.AddNodes(3);
  ASSERT_TRUE(g.edge_properties().AddColumn("w", PropertyType::kInt).ok());
  ASSERT_TRUE(
      g.edge_properties().AddColumn("tag", PropertyType::kString).ok());
  for (uint64_t v = 0; v < 2; ++v) {
    ASSERT_TRUE(g.AddEdge(v, v + 1).ok());
    ASSERT_TRUE(g.edge_properties()
                    .AppendRow({PropertyValue(int64_t{3}), PropertyValue("x")})
                    .ok());
  }
  views::MaterializeOptions mopts;
  auto col = views::MaterializeCollectionWith(
      g, "c", {"all"}, {[](EdgeId) { return true; }}, mopts);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  analytics::BellmanFord sssp(0);
  for (int column : {1, 2, 99, -2}) {
    views::ExecutionOptions eo;
    eo.weight_column = column;
    EXPECT_EQ(views::RunOnGraph(sssp, g, eo).status().code(),
              StatusCode::kInvalidArgument)
        << "RunOnGraph, column " << column;
    EXPECT_EQ(views::RunOnCollection(sssp, g, col.value(), eo).status().code(),
              StatusCode::kInvalidArgument)
        << "RunOnCollection, column " << column;
    views::LiveRunOptions lopts;
    lopts.weight_column = column;
    EXPECT_EQ(views::LiveRun::Start(sssp, g, &col.value(), lopts)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "LiveRun::Start, column " << column;
  }
  views::ExecutionOptions eo;
  eo.weight_column = 0;
  auto weighted = views::RunOnGraph(sssp, g, eo);
  ASSERT_TRUE(weighted.ok()) << weighted.status().ToString();
  EXPECT_EQ(weighted.value(),
            (analytics::ResultMap{{0, 0}, {1, 3}, {2, 6}}));
}

TEST(LiveMutationTest, DiffBatchCollectionsAreNotMaintainable) {
  PropertyGraph g = BuildTestGraph(6, 8, 5);
  views::MaterializedCollection mc = views::CollectionFromDiffBatches(
      "imported", "g", {{{0, +1}, {1, +1}}, {{1, -1}}});
  EXPECT_FALSE(mc.maintainable());
  EXPECT_EQ(views::UpdateCollectionForMutations(&mc, g, {0}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(LiveMutationTest, GraphsurgeFacadeWalRecovery) {
  const std::string wal_path =
      ::testing::TempDir() + "facade_recovery.wal";
  std::remove(wal_path.c_str());

  analytics::Wcc wcc;
  views::ExecutionOptions eo;
  eo.capture_results = true;
  eo.weight_column = -1;

  // First life: WAL-backed ingest with a live computation.
  std::vector<analytics::ResultMap> final_results;
  uint64_t final_epoch = 0;
  {
    Graphsurge system;
    ASSERT_TRUE(system.AddGraph("g", BuildTestGraph(16, 40, 11)).ok());
    auto* g = system.GetGraph("g").value();
    const int wcol = g->FindWeightColumn("w");
    ASSERT_TRUE(system.EnableWal("g", wal_path).ok());
    ASSERT_TRUE(system
                    .CreateCollection("c", "g", {"a", "b", "c", "d"},
                                      MakePredicates(*g, wcol))
                    .ok());
    Status started = system.StartLiveComputation("live", wcc, "c");
    ASSERT_TRUE(started.ok()) << started.ToString();

    Rng rng(99);
    for (int i = 0; i < 3; ++i) {
      Status applied = system.ApplyMutations("g", MakeBatch(*g, &rng));
      ASSERT_TRUE(applied.ok()) << applied.ToString();
    }
    final_epoch = system.GraphEpoch("g").value();
    EXPECT_EQ(final_epoch, 3u);
    // The two gauges a scraper subtracts to see ingest lag: caught up, the
    // engine has sealed epochs 0..3.
    metrics::Registry& registry = metrics::Registry::Global();
    EXPECT_EQ(registry.GetGauge("gs_graph_epoch", {{"graph", "g"}})->Value(),
              3);
    EXPECT_EQ(registry.GetGauge("gs_engine_last_sealed_epoch")->Value(), 4);
    const views::LiveRun* live = system.GetLiveRun("live").value();
    EXPECT_EQ(live->epochs_fed(), 4u);
    for (size_t t = 0; t < live->num_views(); ++t) {
      final_results.push_back(live->ResultsAt(3, t).value());
    }
  }

  // Second life: same base snapshot + WAL replay must reconstruct the same
  // graph epoch and per-view analytics results.
  {
    Graphsurge system;
    ASSERT_TRUE(system.AddGraph("g", BuildTestGraph(16, 40, 11)).ok());
    auto* g = system.GetGraph("g").value();
    const int wcol = g->FindWeightColumn("w");
    ASSERT_TRUE(system.EnableWal("g", wal_path).ok());
    EXPECT_EQ(system.GraphEpoch("g").value(), final_epoch);
    ASSERT_TRUE(system
                    .CreateCollection("c", "g", {"a", "b", "c", "d"},
                                      MakePredicates(*g, wcol))
                    .ok());
    auto run = system.RunComputation(wcc, "c", eo);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run.value().results.size(), final_results.size());
    for (size_t t = 0; t < final_results.size(); ++t) {
      EXPECT_EQ(run.value().results[t], final_results[t]) << "view " << t;
    }
  }
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace gs
