// Scheduler time attribution: the five worker states tile each step's wall
// clock exactly (the numbers in each dataflow's /statusz "sched" block are
// measurements, not estimates), and skewed and balanced workloads are
// distinguishable.
#include "common/sched_profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "differential/differential.h"
#include "json_lite.h"

namespace gs::sched {
namespace {

using IntPair = std::pair<uint64_t, int64_t>;

// ---------------------------------------------------------------------------
// ComputeSkew

TEST(ComputeSkewTest, EmptyAndAllZeroAreZero) {
  EXPECT_EQ(ComputeSkew({}), 0.0);
  EXPECT_EQ(ComputeSkew({0, 0, 0}), 0.0);
}

TEST(ComputeSkewTest, BalancedDistributionIsRatioOne) {
  EXPECT_DOUBLE_EQ(ComputeSkew({100, 100, 100, 100}), 1.0);
}

TEST(ComputeSkewTest, OneHotShardIsRatioN) {
  // All work on one of four shards: max/mean = 400/100 = 4.
  EXPECT_DOUBLE_EQ(ComputeSkew({400, 0, 0, 0}), 4.0);
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

// gs_sched_state_nanos{state, worker}: the registry's per-worker state
// totals, summed over every dataflow.
uint64_t StateCounter(const char* state, size_t worker) {
  return metrics::Registry::Global()
      .GetCounter("gs_sched_state_nanos",
                  {{"state", state}, {"worker", std::to_string(worker)}})
      ->Value();
}

TEST(StepProfileTest, AttributionSumsToWallPerWorker) {
  const char* kStates[] = {"busy", "exchange", "barrier", "seal", "idle"};
  for (size_t workers : {2u, 4u, 7u}) {
    std::vector<uint64_t> before;
    for (size_t w = 0; w < workers; ++w) {
      for (const char* state : kStates) {
        before.push_back(StateCounter(state, w));
      }
    }
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
    // The registry counters carry the same per-worker attribution.
    for (size_t w = 0; w < workers; ++w) {
      const WorkerAttribution& a = snap.totals[w];
      const uint64_t expected[] = {a.busy_ns, a.exchange_ns, a.barrier_ns,
                                   a.seal_ns, a.idle_ns};
      for (size_t s = 0; s < 5; ++s) {
        EXPECT_EQ(StateCounter(kStates[s], w) - before[w * 5 + s],
                  expected[s])
            << kStates[s] << " worker " << w << " of " << workers;
      }
    }
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

  ASSERT_GT(balanced.record_skew, 0.0);
  ASSERT_GT(skewed.record_skew, 0.0);
  // Acceptance: the hot-key run's ratio is at least 2× the balanced run's.
  EXPECT_GE(skewed.record_skew, 2.0 * balanced.record_skew);
  // One hot shard out of four: the ratio is exactly W.
  EXPECT_DOUBLE_EQ(skewed.record_skew, 4.0);

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
  EXPECT_NEAR(balanced_rendered, balanced.record_skew, 0.001);
  EXPECT_NEAR(skewed_rendered, skewed.record_skew, 0.001);
  EXPECT_GE(skewed_rendered, 2.0 * balanced_rendered);
}

}  // namespace
}  // namespace gs::sched
