// End-to-end integration through the Graphsurge facade: CSV import, GVDL
// scripts, views over views, collections, analytics, and error handling.
#include "api/graphsurge.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "algorithms/algorithms.h"
#include "algorithms/reference.h"
#include "differential/arrcache.h"
#include "graph/generators.h"

namespace gs {
namespace {

class GraphsurgeApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(system_.AddGraph("Calls", MakeCallGraphExample()).ok());
  }

  Graphsurge system_;
};

TEST_F(GraphsurgeApiTest, LoadCsvAndQuery) {
  auto dir = std::filesystem::temp_directory_path() / "gs_api_test";
  std::filesystem::create_directories(dir);
  PropertyGraph g = MakeCallGraphExample();
  ASSERT_TRUE(WriteGraphToCsv(g, (dir / "n.csv").string(),
                              (dir / "e.csv").string())
                  .ok());
  Graphsurge sys;
  ASSERT_TRUE(sys.LoadGraphCsv("Calls", (dir / "n.csv").string(),
                               (dir / "e.csv").string())
                  .ok());
  auto graph = sys.GetGraph("Calls");
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ((*graph)->num_edges(), 15u);
  std::filesystem::remove_all(dir);
}

TEST_F(GraphsurgeApiTest, FilteredViewAndViewOverView) {
  ASSERT_TRUE(system_
                  .Execute("create view Recent on Calls edges where "
                           "year >= 2018")
                  .ok());
  ASSERT_TRUE(system_
                  .Execute("create view RecentLong on Recent edges where "
                           "duration >= 10")
                  .ok());
  auto recent = system_.GetGraph("Recent");
  ASSERT_TRUE(recent.ok());
  auto recent_long = system_.GetGraph("RecentLong");
  ASSERT_TRUE(recent_long.ok());
  EXPECT_LT((*recent_long)->num_edges(), (*recent)->num_edges());
  for (EdgeId e = 0; e < (*recent_long)->num_edges(); ++e) {
    EXPECT_GE((*recent_long)->edge_properties().GetByName(e, "year")->AsInt(),
              2018);
    EXPECT_GE(
        (*recent_long)->edge_properties().GetByName(e, "duration")->AsInt(),
        10);
  }
}

TEST_F(GraphsurgeApiTest, CollectionLifecycleAndAnalytics) {
  ASSERT_TRUE(system_
                  .Execute("create view collection durations on Calls "
                           "[d5: duration <= 5], [d15: duration <= 15], "
                           "[d34: duration <= 34]")
                  .ok());
  auto collection = system_.GetCollection("durations");
  ASSERT_TRUE(collection.ok());
  EXPECT_EQ((*collection)->num_views(), 3u);

  analytics::Wcc wcc;
  views::ExecutionOptions opts;
  opts.capture_results = true;
  auto result = system_.RunComputation(wcc, "durations", opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->results.size(), 3u);
  // The last view is the full graph.
  std::vector<WeightedEdge> all_edges;
  PropertyGraph g = MakeCallGraphExample();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    all_edges.push_back(g.ResolveWeighted(e, -1));
  }
  EXPECT_EQ(result->results[2], analytics::WccReference(all_edges));
}

TEST_F(GraphsurgeApiTest, ProgrammaticCollection) {
  const PropertyGraph& g = **system_.GetGraph("Calls");
  std::vector<std::function<bool(EdgeId)>> preds;
  for (int year : {2015, 2017, 2019}) {
    preds.push_back([&g, year](EdgeId e) {
      return g.edge_properties().GetByName(e, "year")->AsInt() <= year;
    });
  }
  ASSERT_TRUE(system_
                  .CreateCollection("years", "Calls", {"y15", "y17", "y19"},
                                    preds)
                  .ok());
  auto collection = system_.GetCollection("years");
  ASSERT_TRUE(collection.ok());
  EXPECT_EQ((*collection)->view_sizes[2], g.num_edges());

  analytics::Bfs bfs(0);
  auto result = system_.RunComputation(bfs, "years");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->per_view.size(), 3u);
}

TEST_F(GraphsurgeApiTest, AggregateViewThroughFacade) {
  ASSERT_TRUE(system_
                  .Execute("create view cities on Calls nodes group by city "
                           "aggregate count(*)")
                  .ok());
  auto view = system_.GetAggregateView("cities");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->graph.num_nodes(), 2u);
}

TEST_F(GraphsurgeApiTest, MultiStatementScript) {
  Status s = system_.Execute(
      "create view A on Calls edges where year = 2019\n"
      "create view collection C on A [small: duration <= 6], "
      "[all: duration <= 34]");
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto c = system_.GetCollection("C");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->base_graph, "A");
  analytics::Wcc wcc;
  auto result = system_.RunComputation(wcc, "C");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(GraphsurgeApiTest, RunOnViewSingleGraph) {
  analytics::Wcc wcc;
  auto result = system_.RunOnView(wcc, "Calls");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->empty());
}

// Default ExecutionOptions leave the worker count to the system: a
// four-worker system runs a collection on four worker shards, and a
// single-graph run files its cached arrangements under the /w4 tag.
TEST(GraphsurgeWorkersTest, DefaultExecutionOptionsUseTheSystemWorkerCount) {
  GraphsurgeOptions options;
  options.num_workers = 4;
  Graphsurge system(options);
  ASSERT_TRUE(system.AddGraph("Calls", MakeCallGraphExample()).ok());
  ASSERT_TRUE(system
                  .Execute("create view collection durations on Calls "
                           "[d5: duration <= 5], [d34: duration <= 34]")
                  .ok());
  analytics::Wcc wcc;
  auto result = system.RunComputation(wcc, "durations");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->per_worker_events.size(), 4u);

  ASSERT_TRUE(system.RunOnView(wcc, "Calls").ok());
  const std::string scope = system.ArrangementCacheScope("Calls");
  views::ExecutionOptions four;
  four.dataflow.num_workers = 4;
  auto& cache = differential::ArrangementCache::Global();
  EXPECT_TRUE(
      cache.Stats(scope, views::ArrangementCacheTag(wcc, four)).has_value());
  EXPECT_FALSE(
      cache.Stats(scope, views::ArrangementCacheTag(wcc, {})).has_value());
}

TEST_F(GraphsurgeApiTest, Errors) {
  EXPECT_EQ(system_.AddGraph("Calls", PropertyGraph()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(system_.Execute("create view X on NoSuch edges where a = 1")
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(system_.Execute("create bogus").code(), StatusCode::kParseError);
  EXPECT_EQ(
      system_.Execute("create view Y on Calls edges where nosuch = 1").code(),
      StatusCode::kNotFound);
  analytics::Wcc wcc;
  EXPECT_EQ(system_.RunComputation(wcc, "nocollection").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(system_.RunOnView(wcc, "nograph").status().code(),
            StatusCode::kNotFound);
  // Duplicate view name across kinds.
  ASSERT_TRUE(
      system_.Execute("create view V on Calls edges where year = 2019").ok());
  EXPECT_EQ(system_
                .Execute("create view collection V on Calls [a: year = 1]")
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(GraphsurgeApiTest, RunChecksTheWeightColumn) {
  // Calls has two int edge columns: duration (0) and year (1). A missing
  // column is rejected before any edge is resolved, for graph and
  // collection targets alike; 4294967295 would wrap to -1 (unweighted) as
  // an int.
  Graphsurge::Session session;
  ASSERT_TRUE(system_
                  .Execute(&session,
                           "create view collection D on Calls "
                           "[short: duration <= 10], [all: duration <= 100]")
                  .ok());
  for (const std::string target : {"Calls", "D"}) {
    for (const std::string column : {"2", "99", "2147483648", "4294967295"}) {
      const std::string statement =
          "run sssp(0) on " + target + " weight " + column;
      EXPECT_EQ(system_.Execute(&session, statement).status().code(),
                StatusCode::kInvalidArgument)
          << statement;
    }
  }

  // A valid column still runs weighted and matches the reference.
  auto run = system_.Execute(&session, "run sssp(0) on Calls weight 0");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto calls = system_.GetGraph("Calls");
  ASSERT_TRUE(calls.ok());
  std::vector<WeightedEdge> weighted;
  std::vector<WeightedEdge> unweighted;
  for (EdgeId e = 0; e < (*calls)->num_edges(); ++e) {
    weighted.push_back((*calls)->ResolveWeighted(e, 0));
    unweighted.push_back((*calls)->ResolveWeighted(e, -1));
  }
  ASSERT_EQ(session.last_results().size(), 1u);
  const analytics::ResultMap& got = session.last_results()[0].second;
  EXPECT_EQ(got, analytics::SsspReference(weighted, 0));
  EXPECT_NE(got, analytics::SsspReference(unweighted, 0));
}

TEST_F(GraphsurgeApiTest, ProfileReportsLastRun) {
  // Before any computation, Profile carries no per-view table (only the
  // metrics exposition, possibly fed by other tests in this process).
  EXPECT_EQ(system_.Profile().find("view  mode"), std::string::npos);

  ASSERT_TRUE(system_
                  .Execute("create view collection durations on Calls "
                           "[d5: duration <= 5], [d15: duration <= 15], "
                           "[d34: duration <= 34]")
                  .ok());
  analytics::Wcc wcc;
  auto result = system_.RunComputation(wcc, "durations");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::string profile = system_.Profile();
  // The per-view table from the last run...
  EXPECT_NE(profile.find("view  mode"), std::string::npos);
  EXPECT_NE(profile.find("TOTAL"), std::string::npos);
  EXPECT_NE(profile.find("end_to_end_ms="), std::string::npos);
  // ...followed by the process-wide Prometheus exposition.
  EXPECT_NE(profile.find("# TYPE gs_engine_versions_sealed counter"),
            std::string::npos);
  EXPECT_NE(profile.find("gs_executor_views_run"), std::string::npos);
}

TEST_F(GraphsurgeApiTest, ExplainBeforeAndAfterRun) {
  ASSERT_TRUE(system_
                  .Execute("create view collection durations on Calls "
                           "[d5: duration <= 5], [d15: duration <= 15], "
                           "[d34: duration <= 34]")
                  .ok());

  // Before any run: the plan (order source, estimated per-view sizes) is
  // there, the actuals are not.
  auto before = system_.Explain("durations");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_NE(before->find("order source:"), std::string::npos);
  EXPECT_NE(before->find("estimated ds(B,sigma)="), std::string::npos);
  EXPECT_NE(before->find("est |dC|"), std::string::npos);
  EXPECT_NE(before->find("no recorded run"), std::string::npos);
  EXPECT_EQ(before->find("actual in"), std::string::npos);

  analytics::Wcc wcc;
  auto result = system_.RunComputation(wcc, "durations");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // After a run: estimated-vs-actual diff counts plus the splitting
  // decision table. The statement form must resolve too.
  auto after = system_.Explain("explain durations");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after->find("actual in"), std::string::npos);
  EXPECT_NE(after->find("actual out"), std::string::npos);
  EXPECT_NE(after->find("last run: strategy="), std::string::npos);
  EXPECT_EQ(after->find("no recorded run"), std::string::npos);

  // EXPLAIN is a GVDL statement: Execute() accepts it (the rendering goes
  // to the log) and unknown targets error out.
  EXPECT_TRUE(system_.Execute("explain durations").ok());
  EXPECT_FALSE(system_.Explain("no_such_collection").ok());
  EXPECT_FALSE(system_.Execute("explain no_such_collection").ok());
}

TEST_F(GraphsurgeApiTest, NameListings) {
  ASSERT_TRUE(
      system_.Execute("create view V2 on Calls edges where year = 2019").ok());
  auto graphs = system_.GraphNames();
  EXPECT_NE(std::find(graphs.begin(), graphs.end(), "Calls"), graphs.end());
  EXPECT_NE(std::find(graphs.begin(), graphs.end(), "V2"), graphs.end());
}

}  // namespace
}  // namespace gs
