// Scheduler time attribution and critical-path extraction: the five worker
// states tile each step's wall clock exactly (the numbers in each
// dataflow's /statusz "sched" block are measurements, not estimates),
// skewed and balanced workloads are
// distinguishable, and the trace-derived critical path covers the wall
// clock of a serial run.
#include "common/sched_profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/critical_path.h"
#include "common/trace_event.h"
#include "differential/differential.h"
#include "graph/generators.h"
#include "gvdl/parser.h"
#include "json_lite.h"
#include "views/executor.h"

namespace gs::sched {
namespace {

using IntPair = std::pair<uint64_t, int64_t>;

// ---------------------------------------------------------------------------
// ComputeSkew

TEST(ComputeSkewTest, EmptyAndAllZeroAreZero) {
  EXPECT_EQ(ComputeSkew({}).max_mean_ratio, 0.0);
  EXPECT_EQ(ComputeSkew({}).gini, 0.0);
  EXPECT_EQ(ComputeSkew({0, 0, 0}).max_mean_ratio, 0.0);
  EXPECT_EQ(ComputeSkew({0, 0, 0}).gini, 0.0);
}

TEST(ComputeSkewTest, BalancedDistributionIsRatioOneGiniZero) {
  Skew skew = ComputeSkew({100, 100, 100, 100});
  EXPECT_DOUBLE_EQ(skew.max_mean_ratio, 1.0);
  EXPECT_DOUBLE_EQ(skew.gini, 0.0);
}

TEST(ComputeSkewTest, OneHotShardIsRatioNGiniNearOne) {
  // All work on one of four shards: max/mean = 400/100 = 4, and the Gini of
  // a one-hot distribution over n shards is (n-1)/n.
  Skew skew = ComputeSkew({400, 0, 0, 0});
  EXPECT_DOUBLE_EQ(skew.max_mean_ratio, 4.0);
  EXPECT_DOUBLE_EQ(skew.gini, 0.75);
}

TEST(ComputeSkewTest, GiniSeesMidDistributionImbalanceTheRatioMisses) {
  // Same max and mean, different shapes: the ratio cannot tell these apart
  // but the Gini orders them.
  Skew flat = ComputeSkew({200, 100, 100, 100, 100, 200});
  Skew tilted = ComputeSkew({200, 200, 190, 10, 100, 100});
  EXPECT_DOUBLE_EQ(flat.max_mean_ratio, tilted.max_mean_ratio);
  EXPECT_GT(tilted.gini, flat.gini);
}

// ---------------------------------------------------------------------------
// Step attribution on a real sharded engine

namespace dd = ::gs::differential;

dd::DataflowOptions Workers(size_t n) {
  dd::DataflowOptions options;
  options.num_workers = n;
  return options;
}

// Runs `rounds` Step() rounds of a hash-partitioned ReduceMin over
// `num_keys` keys and returns the dataflow's profile snapshot; `status_json`
// receives the dataflow's rendered /statusz source.
StepProfile::Snapshot RunReduceRounds(size_t num_workers, size_t num_keys,
                                      size_t rounds, size_t records_per_round,
                                      std::string* status_json = nullptr) {
  dd::ShardedDataflow sharded(Workers(num_workers));
  std::vector<dd::Input<IntPair>> inputs;
  for (size_t w = 0; w < sharded.num_workers(); ++w) {
    inputs.emplace_back(sharded.worker(w));
    dd::Capture(dd::ReduceMin(inputs[w].stream()));
  }
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < records_per_round; ++i) {
      uint64_t key = (round * records_per_round + i) % num_keys;
      inputs[sharded.OwnerOfHash(HashValue(key))].Send(
          {key, static_cast<int64_t>(i)}, 1);
    }
    EXPECT_TRUE(sharded.Step().ok());
  }
  if (status_json != nullptr) *status_json = sharded.RenderStatusJson();
  return sharded.profile().GetSnapshot();
}

// The tentpole acceptance bound: per worker and per step, the five states
// sum to the step's wall clock within 1% (they tile it by construction; the
// slack only absorbs clock-read interleaving between coordinator and
// workers).
void ExpectExactTiling(const StepProfile::Snapshot& snap) {
  ASSERT_FALSE(snap.recent.empty());
  for (const StepProfile::VersionRecord& record : snap.recent) {
    ASSERT_EQ(record.workers.size(), snap.num_workers);
    for (size_t w = 0; w < record.workers.size(); ++w) {
      const uint64_t total = record.workers[w].total_ns();
      const uint64_t wall = record.wall_ns;
      const uint64_t slack = wall / 100 + 10'000;  // 1% + 10µs clock grain
      EXPECT_LE(total > wall ? total - wall : wall - total, slack)
          << "version " << record.version << " worker " << w << ": total "
          << total << " vs wall " << wall;
    }
  }
}

TEST(StepProfileTest, AttributionSumsToWallPerWorker) {
  for (size_t workers : {2u, 4u, 7u}) {
    StepProfile::Snapshot snap =
        RunReduceRounds(workers, /*num_keys=*/64, /*rounds=*/4,
                        /*records_per_round=*/2000);
    EXPECT_EQ(snap.num_workers, workers);
    EXPECT_GE(snap.steps, 4u);
    EXPECT_GT(snap.wall_ns, 0u);
    ExpectExactTiling(snap);
    // Real work happened and was attributed.
    uint64_t busy = 0;
    for (const WorkerAttribution& a : snap.totals) busy += a.busy_ns;
    EXPECT_GT(busy, 0u) << workers << " workers";
  }
}

TEST(StepProfileTest, SingleWorkerHasNoBarrierOrExchangeTime) {
  StepProfile::Snapshot snap = RunReduceRounds(
      /*num_workers=*/1, /*num_keys=*/64, /*rounds=*/3,
      /*records_per_round=*/2000);
  ASSERT_EQ(snap.totals.size(), 1u);
  // An inline pool has no peers to wait for and no inboxes to drain: every
  // nanosecond is busy, seal, or idle.
  EXPECT_EQ(snap.totals[0].barrier_ns, 0u);
  EXPECT_EQ(snap.totals[0].exchange_ns, 0u);
  EXPECT_GT(snap.totals[0].busy_ns, 0u);
  ExpectExactTiling(snap);
}

TEST(StepProfileTest, WorkerEventCountsAndExchangeBatchesAreAttributed) {
  // Two keyed hops with a rekey between them: the second hop repartitions
  // across shards, so the exchange hub carries real traffic.
  dd::ShardedDataflow sharded(Workers(4));
  std::vector<dd::Input<IntPair>> inputs;
  for (size_t w = 0; w < sharded.num_workers(); ++w) {
    inputs.emplace_back(sharded.worker(w));
    auto mins = dd::ReduceMin(inputs[w].stream());
    dd::Capture(dd::Count(mins.Map(
        [](const IntPair& p) { return IntPair{p.second % 13, p.first}; })));
  }
  for (size_t i = 0; i < 2000; ++i) {
    uint64_t key = i % 64;
    inputs[sharded.OwnerOfHash(HashValue(key))].Send(
        {key, static_cast<int64_t>(i % 29)}, 1);
  }
  ASSERT_TRUE(sharded.Step().ok());

  StepProfile::Snapshot snap = sharded.profile().GetSnapshot();
  uint64_t events = 0;
  for (const WorkerAttribution& a : snap.totals) events += a.events;
  EXPECT_GT(events, 0u);
  EXPECT_GT(snap.exchange_batches, 0u);
  ExpectExactTiling(snap);
}

// Hash-skewed vs balanced: a single hot key lands every record on one
// shard, so the record-skew ratio approaches W while the balanced run stays
// near 1 — and each dataflow's /statusz source renders its skew.
TEST(StepProfileTest, SkewedDistributionIsDetectedAndRendered) {
  std::string balanced_json;
  StepProfile::Snapshot balanced = RunReduceRounds(
      /*num_workers=*/4, /*num_keys=*/256, /*rounds=*/2,
      /*records_per_round=*/4000, &balanced_json);
  std::string skewed_json;
  StepProfile::Snapshot skewed = RunReduceRounds(
      /*num_workers=*/4, /*num_keys=*/1, /*rounds=*/2,
      /*records_per_round=*/4000, &skewed_json);

  ASSERT_GT(balanced.record_skew.max_mean_ratio, 0.0);
  ASSERT_GT(skewed.record_skew.max_mean_ratio, 0.0);
  // Acceptance: the hot-key run's ratio is at least 2× the balanced run's.
  EXPECT_GE(skewed.record_skew.max_mean_ratio,
            2.0 * balanced.record_skew.max_mean_ratio);
  // One hot shard out of four: the ratio is exactly W and the Gini is high.
  EXPECT_DOUBLE_EQ(skewed.record_skew.max_mean_ratio, 4.0);
  EXPECT_GT(skewed.record_skew.gini, 0.7);
  EXPECT_LT(balanced.record_skew.gini, 0.3);

  // Each run's source renders its skew under "sched": compare the
  // records_ratio fields.
  auto ratio_of = [](const std::string& json) {
    json_lite::Value root;
    std::string error;
    EXPECT_TRUE(json_lite::Parse(json, &root, &error)) << error;
    const json_lite::Value* sched = root.Get("sched");
    if (sched == nullptr || sched->Get("skew") == nullptr) {
      ADD_FAILURE() << "no sched.skew in " << json;
      return 0.0;
    }
    return sched->Get("skew")->Get("records_ratio")->number;
  };
  const double balanced_rendered = ratio_of(balanced_json);
  const double skewed_rendered = ratio_of(skewed_json);
  EXPECT_NEAR(balanced_rendered, balanced.record_skew.max_mean_ratio, 0.001);
  EXPECT_NEAR(skewed_rendered, skewed.record_skew.max_mean_ratio, 0.001);
  EXPECT_GE(skewed_rendered, 2.0 * balanced_rendered);
}

TEST(StepProfileTest, GlobalSummaryIsWellFormedAndCounting) {
  RunReduceRounds(/*num_workers=*/2, /*num_keys=*/16, /*rounds=*/1,
                  /*records_per_round=*/500);
  json_lite::Value root;
  std::string error;
  ASSERT_TRUE(json_lite::Parse(GlobalSummaryJson(), &root, &error)) << error;
  ASSERT_NE(root.Get("steps"), nullptr);
  EXPECT_GE(root.Get("steps")->number, 1);
  ASSERT_NE(root.Get("state_nanos"), nullptr);
  for (const char* state : {"busy", "exchange", "barrier", "seal", "idle"}) {
    EXPECT_NE(root.Get("state_nanos")->Get(state), nullptr) << state;
  }
  ASSERT_NE(root.Get("busy_frac"), nullptr);
  EXPECT_GT(root.Get("busy_frac")->number, 0.0);
}

// ---------------------------------------------------------------------------
// Critical-path extraction

trace::CollectedEvent Span(const char* category, const char* name,
                           uint64_t ts_ns, uint64_t dur_ns, uint32_t version) {
  trace::CollectedEvent e;
  e.phase = 'X';
  e.category = category;
  e.name = name;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.version = version;
  return e;
}

TEST(CriticalPathTest, EmptyTraceIsDisabled) {
  critical_path::Report report = critical_path::Extract({});
  EXPECT_FALSE(report.enabled);
  EXPECT_EQ(critical_path::ToJson(report), "{\"enabled\": false}");
}

TEST(CriticalPathTest, PicksLongestNonOverlappingChainAndStalls) {
  // Wall = the step span [0, 100). Ops: A [10, 40), B [50, 90), and C
  // [15, 25) overlapping A. The longest dependent chain is A → B (70 ns);
  // the stalls are the 10 ns lead-in before A and the 10 ns gap before B.
  std::vector<trace::CollectedEvent> events;
  events.push_back(Span("engine", "step", 0, 100, 7));
  events.push_back(Span("op", "join", 10, 30, 7));
  events.push_back(Span("op", "reduce", 50, 40, 7));
  events.push_back(Span("op", "map", 15, 10, 7));
  critical_path::Report report = critical_path::Extract(events);
  ASSERT_TRUE(report.enabled);
  ASSERT_EQ(report.versions.size(), 1u);
  const critical_path::VersionReport& vr = report.versions[0];
  EXPECT_EQ(vr.version, 7u);
  EXPECT_EQ(vr.wall_ns, 100u);
  EXPECT_EQ(vr.path_ns, 70u);
  EXPECT_DOUBLE_EQ(vr.path_fraction, 0.7);
  ASSERT_EQ(vr.path.size(), 2u);
  EXPECT_EQ(vr.path[0].name, "join");
  EXPECT_EQ(vr.path[1].name, "reduce");
  ASSERT_EQ(vr.top_stalls.size(), 2u);
  EXPECT_EQ(vr.top_stalls[0].gap_ns, 10u);
  EXPECT_EQ(vr.top_stalls[1].gap_ns, 10u);
}

TEST(CriticalPathTest, StepSpanIsNeverAChainCandidate) {
  // Only the step span at this version: wall is known but no candidate
  // spans exist, so the path is empty rather than trivially 100%.
  std::vector<trace::CollectedEvent> events;
  events.push_back(Span("engine", "step", 0, 100, 3));
  critical_path::Report report = critical_path::Extract(events);
  ASSERT_TRUE(report.enabled);
  EXPECT_TRUE(report.versions.empty());
  EXPECT_EQ(report.total_path_ns, 0u);
}

TEST(CriticalPathTest, VersionlessAndNonSpanEventsAreIgnored) {
  std::vector<trace::CollectedEvent> events;
  events.push_back(Span("op", "join", 0, 50, trace::kNoVersion));
  trace::CollectedEvent counter = Span("op", "c", 0, 0, 1);
  counter.phase = 'C';
  events.push_back(counter);
  critical_path::Report report = critical_path::Extract(events);
  EXPECT_TRUE(report.versions.empty());
}

// Acceptance: with one worker and tracing on, the extracted critical path
// covers at least 80% of the measured step wall clock across a 10-view
// collection analytics run (serial execution has essentially no
// coordination gaps — the path should be nearly all of the wall).
TEST(CriticalPathTest, PathCoversWallClockOnSerialCollectionRun) {
  trace::SetEnabled(false);
  trace::ClearForTest();

  TemporalGraphOptions graph_opts;
  graph_opts.num_nodes = 300;
  graph_opts.num_edges = 3000;
  graph_opts.end_time = 1000;
  PropertyGraph graph = GenerateTemporalGraph(graph_opts);
  std::string stmt_text = "create view collection w on G ";
  const size_t kViews = 10;
  for (size_t i = 0; i < kViews; ++i) {
    if (i) stmt_text += ", ";
    stmt_text += "[w" + std::to_string(i) +
                 ": timestamp <= " + std::to_string(1000 * (i + 1) / kViews) +
                 "]";
  }
  auto stmt = gvdl::Parse(stmt_text);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto collection = views::MaterializeCollection(
      graph, std::get<gvdl::ViewCollectionDef>(*stmt),
      views::MaterializeOptions());
  ASSERT_TRUE(collection.ok()) << collection.status().ToString();

  trace::SetEnabled(true);
  analytics::Wcc wcc;
  views::ExecutionOptions opts;
  opts.strategy = splitting::Strategy::kDiffOnly;
  opts.dataflow.num_workers = 1;
  auto result = views::RunOnCollection(wcc, graph, *collection, opts);
  trace::SetEnabled(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  critical_path::Report report = critical_path::ExtractFromLiveTrace();
  trace::ClearForTest();
  ASSERT_TRUE(report.enabled);
  EXPECT_GE(report.versions.size(), kViews);
  ASSERT_GT(report.total_wall_ns, 0u);
  EXPECT_GE(report.path_fraction, 0.8)
      << "critical path covers only " << report.path_fraction * 100
      << "% of wall";
  for (const critical_path::VersionReport& vr : report.versions) {
    EXPECT_LE(vr.path_ns, vr.wall_ns) << "version " << vr.version;
  }

  // The report renders as valid JSON (the /statusz "critical_path" source).
  json_lite::Value root;
  std::string error;
  ASSERT_TRUE(json_lite::Parse(critical_path::ToJson(report), &root, &error))
      << error;
  EXPECT_NE(root.Get("versions"), nullptr);
}

}  // namespace
}  // namespace gs::sched
