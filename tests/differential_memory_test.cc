// Memory-accounting invariants for the arrangement byte gauges
// (ISSUE satellite: observability numbers must be trustworthy):
//   1. per-arrangement gauges drop to zero once the owning dataflow is
//      destroyed — a leaked gauge would make /metrics report phantom
//      memory forever — and sum over dataflows that share a series;
//   2. high-water >= live at every step on every operator;
//   3. compaction monotonically grows reclaimed_bytes and never grows
//      live_bytes;
//   4. serial trace bytes == sum over shards at W ∈ {1, 2, 4} — the
//      accounting is entries × entry size (trace rows and reduce history
//      entries alike), which is partition-independent once a
//      single-version workload is fully compacted;
//   5. reduces outside nested loops write trace rows only when their
//      output is shared as an arrangement;
//   6. after every seal — a version's or an epoch's — DataflowStats, the
//      gs_arrangement_bytes gauges and the /statusz rows report the same
//      trace bytes, because one seal walk fills all three.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/reference.h"
#include "common/metrics.h"
#include "common/random.h"
#include "differential/differential.h"
#include "json_lite.h"

namespace gs::differential {
namespace {

using IntPair = std::pair<int64_t, int64_t>;

DataflowOptions Workers(size_t n) {
  DataflowOptions options;
  options.num_workers = n;
  return options;
}

/// Sums every sample of one metric family in Prometheus exposition text.
/// Matches `family{...} value` and `family value` lines only — a longer
/// name that starts with the family does not match.
uint64_t SumFamily(const std::string& text, const std::string& family) {
  uint64_t sum = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind(family, 0) != 0 || line.size() <= family.size()) continue;
    const char next = line[family.size()];
    if (next != '{' && next != ' ') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    sum += std::strtoull(line.c_str() + space + 1, nullptr, 10);
  }
  return sum;
}

/// A two-stage stateful pipeline per shard: a shared arrangement (a trace)
/// plus a stream Distinct (whose history is its reduce's per-key index,
/// counted as trace bytes), exercising every gauge the engine maintains.
class ArrangementHarness {
 public:
  explicit ArrangementHarness(size_t num_workers)
      : dataflow_(Workers(num_workers)) {
    inputs_.reserve(num_workers);
    for (size_t w = 0; w < dataflow_.num_workers(); ++w) {
      inputs_.emplace_back(dataflow_.worker(w));
      arranged_.push_back(Arrange(inputs_[w].stream()));
      Distinct(inputs_[w].stream());
    }
  }

  void Send(IntPair data, Diff diff) {
    inputs_[dataflow_.OwnerOfHash(HashValue(data))].Send(std::move(data),
                                                         diff);
  }

  Status Step() { return dataflow_.Step(); }

  ShardedDataflow& dataflow() { return dataflow_; }

  uint64_t ManualArrangeBytes() const {
    uint64_t sum = 0;
    for (const auto& a : arranged_) sum += a.trace()->live_bytes();
    return sum;
  }

 private:
  ShardedDataflow dataflow_;
  std::vector<Input<IntPair>> inputs_;
  std::vector<Arranged<int64_t, int64_t>> arranged_;
};

void SendRandom(ArrangementHarness* h, Rng* rng, int count, bool retracts) {
  for (int i = 0; i < count; ++i) {
    IntPair p{rng->Uniform(0, 48), rng->Uniform(0, 12)};
    h->Send(p, retracts && rng->Bernoulli(0.3) ? -1 : 1);
  }
}

TEST(ArrangementGaugesTest, LiveGaugesReturnToZeroAfterTeardown) {
  auto& registry = metrics::Registry::Global();
  {
    ArrangementHarness harness(2);
    Rng rng(3);
    SendRandom(&harness, &rng, 500, /*retracts=*/false);
    ASSERT_TRUE(harness.Step().ok());

    const std::string text = registry.ExpositionText();
    EXPECT_GT(SumFamily(text, "gs_arrangement_bytes"), 0u);
    EXPECT_GT(SumFamily(text, "gs_arrangement_batches"), 0u);
    // The gauges carry the per-arrangement labels the dashboards key on.
    EXPECT_NE(text.find("gs_arrangement_bytes{"), std::string::npos);
    EXPECT_NE(text.find("op=\"arrange\""), std::string::npos);
  }
  // Teardown must zero the live gauges of every arrangement the harness
  // owned.
  const std::string text = registry.ExpositionText();
  EXPECT_EQ(SumFamily(text, "gs_arrangement_bytes"), 0u);
  EXPECT_EQ(SumFamily(text, "gs_arrangement_batches"), 0u);
}

// Dataflows with one operator layout (concurrent sessions, a live run
// beside a batch run) share each {op, shard, slot} series. Each operator
// adds its own change, so the series hold the sum of the live dataflows,
// and a teardown takes back only its own share.
TEST(ArrangementGaugesTest, GaugesSumOverDataflowsThatShareASeries) {
  auto& registry = metrics::Registry::Global();
  auto gauge_bytes = [&registry] {
    return SumFamily(registry.ExpositionText(), "gs_arrangement_bytes");
  };
  auto arrange_keys = [](Dataflow* dataflow, int64_t keys) {
    Input<IntPair> input(dataflow);
    Arrange(input.stream());
    for (int64_t k = 0; k < keys; ++k) input.Send({k, k}, 1);
    EXPECT_TRUE(dataflow->Step().ok());
    return dataflow->stats().trace_bytes;
  };
  auto small = std::make_unique<Dataflow>();
  Dataflow large;
  const uint64_t small_bytes = arrange_keys(small.get(), 100);
  const uint64_t large_bytes = arrange_keys(&large, 300);
  ASSERT_GT(small_bytes, 0u);
  ASSERT_GT(large_bytes, small_bytes);
  EXPECT_EQ(gauge_bytes(), small_bytes + large_bytes);
  small.reset();
  EXPECT_EQ(gauge_bytes(), large_bytes);
}

TEST(ArrangementGaugesTest, HighWaterDominatesLiveOnEveryStep) {
  ArrangementHarness harness(2);
  Rng rng(17);
  for (uint32_t version = 0; version < 4; ++version) {
    SendRandom(&harness, &rng, 300, /*retracts=*/version > 0);
    ASSERT_TRUE(harness.Step().ok());
    for (size_t w = 0; w < harness.dataflow().num_workers(); ++w) {
      for (const auto& row : harness.dataflow().worker(w)->sealed_snapshot()) {
        EXPECT_GE(row.memory.trace_high_water_bytes, row.memory.trace_bytes)
            << "op " << row.name << " shard " << w << " version " << version;
      }
    }
  }
}

TEST(TraceCompactionTest, ReclaimGrowsAndLiveNeverGrowsAcrossCompactions) {
  Trace<int64_t, int64_t> trace;
  constexpr int kKeys = 128;
  for (int k = 0; k < kKeys; ++k) trace.Insert(k, 0, Time(0), 1);
  trace.CompactTo(0);
  const size_t consolidated = trace.live_bytes();
  EXPECT_EQ(trace.total_entries(), static_cast<size_t>(kKeys));

  uint64_t reclaimed_prev = trace.reclaimed_bytes();
  for (uint32_t version = 1; version <= 6; ++version) {
    // Rewrite every key's value: the old entry cancels against its
    // retraction once the version seals, so a compacted trace holds
    // exactly one entry per key again.
    for (int k = 0; k < kKeys; ++k) {
      trace.Insert(k, version - 1, Time(version), -1);
      trace.Insert(k, version, Time(version), 1);
    }
    const size_t before = trace.live_bytes();
    trace.CompactTo(version);
    EXPECT_LE(trace.live_bytes(), before) << "version " << version;
    EXPECT_GE(trace.reclaimed_bytes(), reclaimed_prev)
        << "version " << version;
    reclaimed_prev = trace.reclaimed_bytes();
  }
  // Full history rewrite cancels everything but the final value per key:
  // one more compaction round returns the trace to its consolidated size.
  trace.CompactTo(7);
  EXPECT_EQ(trace.live_bytes(), consolidated);
  EXPECT_GT(trace.reclaimed_bytes(), 0u);
  EXPECT_GE(trace.high_water_bytes(), trace.live_bytes());
}

TEST(ArrangementGaugesTest, SerialTraceBytesEqualSumOfShards) {
  // Single-version workload: the first CompactTo after the seal always
  // fully consolidates (everything inserted since the last compaction), so
  // the per-shard entry counts are partition-independent and serial ==
  // sum-of-shards holds exactly. (Multi-version workloads may compact on
  // some shards and not others — amortization is per shard — so only the
  // single-version case admits an exact cross-worker equality.)
  uint64_t expected = 0;
  uint64_t manual_serial = 0;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    ArrangementHarness harness(workers);
    Rng rng(29);
    SendRandom(&harness, &rng, 800, /*retracts=*/false);
    ASSERT_TRUE(harness.Step().ok());

    const uint64_t total =
        harness.dataflow().AggregatedStats().trace_bytes;
    ASSERT_GT(total, 0u);
    if (workers == 1) {
      expected = total;
    } else {
      EXPECT_EQ(total, expected) << "W=" << workers;
    }
    // The shared arrangement alone obeys the same invariant, checked
    // against the traces directly rather than the stats rollup.
    const uint64_t manual = harness.ManualArrangeBytes();
    ASSERT_GT(manual, 0u);
    if (workers == 1) manual_serial = manual;
    EXPECT_EQ(manual, manual_serial) << "W=" << workers;
  }
}

/// Sums `trace_bytes` over every operator row of a rendered /statusz
/// dataflow source.
uint64_t SumStatuszTraceBytes(const std::string& json) {
  json_lite::Value root;
  std::string error;
  EXPECT_TRUE(json_lite::Parse(json, &root, &error)) << error;
  const json_lite::Value* ops = root.Get("operators");
  EXPECT_TRUE(ops != nullptr && ops->is_array()) << json;
  if (ops == nullptr || !ops->is_array()) return 0;
  uint64_t sum = 0;
  for (const json_lite::Value& op : ops->array) {
    sum += static_cast<uint64_t>(op.Get("trace_bytes")->number);
  }
  return sum;
}

// The three accounts of operator state agree after every seal. An epoch
// seal compacts full spines, so it is where an account refreshed at some
// other point would still show the pre-compaction bytes.
TEST(ArrangementGaugesTest, StatsGaugesAndStatuszAgreeAfterEverySeal) {
  auto& registry = metrics::Registry::Global();
  for (size_t workers : {size_t{1}, size_t{2}}) {
    ArrangementHarness harness(workers);
    ShardedDataflow& dataflow = harness.dataflow();
    // Checks the three accounts at (epoch, step); step -1 is the epoch seal.
    auto expect_one_account = [&](int epoch, int step) {
      const uint64_t stats = dataflow.AggregatedStats().trace_bytes;
      EXPECT_GT(stats, 0u) << "W=" << workers << " epoch " << epoch
                           << " step " << step;
      EXPECT_EQ(SumFamily(registry.ExpositionText(), "gs_arrangement_bytes"),
                stats)
          << "W=" << workers << " epoch " << epoch << " step " << step;
      EXPECT_EQ(SumStatuszTraceBytes(dataflow.RenderStatusJson()), stats)
          << "W=" << workers << " epoch " << epoch << " step " << step;
      return stats;
    };
    Rng rng(5);
    bool compacted = false;
    for (int epoch = 0; epoch < 2; ++epoch) {
      uint64_t before = 0;
      for (int step = 0; step < 4; ++step) {
        SendRandom(&harness, &rng, 300, /*retracts=*/epoch + step > 0);
        ASSERT_TRUE(harness.Step().ok());
        before = expect_one_account(epoch, step);
      }
      dataflow.SealEpoch();
      const uint64_t after = expect_one_account(epoch, -1);
      EXPECT_LE(after, before);
      compacted = compacted || after < before;
    }
    // The epoch seals reclaimed bytes, so a stale account would differ.
    EXPECT_TRUE(compacted) << "W=" << workers;
  }
}

// At loop depth ≤ 1 a reduce keeps its history in its per-key index only:
// the stream Distinct (depth 0) and the stream-input ReduceMin inside
// Iterate (depth 1) write no trace rows, yet report their history as trace
// bytes. The DistinctArranged output is shared with JoinArranged, so it
// keeps its trace. Several versions with retractions must still match the
// sequential WCC.
TEST(ReduceHistoryTest, ShallowReducesWriteOnlySharedTraces) {
  using Edge = std::pair<uint64_t, uint64_t>;
  using Label = std::pair<uint64_t, int64_t>;
  Dataflow dataflow;
  Input<Edge> input(&dataflow);
  auto edges = Distinct(input.stream());
  auto labels0 = Distinct(edges.FlatMap([](const Edge& e,
                                           std::vector<uint64_t>* out) {
                   out->push_back(e.first);
                   out->push_back(e.second);
                 })).Map([](const uint64_t& v) {
    return Label{v, static_cast<int64_t>(v)};
  });
  const size_t arranged_begin = dataflow.num_operators();
  auto adjacency = DistinctArranged(
      edges.FlatMap([](const Edge& e, std::vector<Edge>* out) {
        out->push_back(e);
        out->push_back({e.second, e.first});
      }));
  const size_t arranged_end = dataflow.num_operators();
  auto labels = Iterate<Label>(
      labels0, [&](LoopScope& scope, Stream<Label> inner) {
        auto messages = JoinArranged(
            inner, adjacency.Enter(scope),
            [](const uint64_t&, const int64_t& label, const uint64_t& dst) {
              return Label{dst, label};
            });
        return ReduceMin(messages.Concat(scope.Enter(labels0)));
      });
  auto* capture = Capture(labels);

  Rng rng(41);
  std::map<Edge, Diff> present;
  for (uint32_t version = 0; version < 5; ++version) {
    for (auto& [edge, count] : present) {
      if (count > 0 && rng.Bernoulli(0.3)) {
        input.Send(edge, -1);
        --count;
      }
    }
    for (int i = 0; i < (version == 0 ? 60 : 12); ++i) {
      Edge edge{rng.Index(30), rng.Index(30)};
      input.Send(edge, 1);
      ++present[edge];
    }
    ASSERT_TRUE(dataflow.Step().ok());

    std::vector<WeightedEdge> reference_edges;
    for (const auto& [edge, count] : present) {
      if (count > 0) reference_edges.push_back({edge.first, edge.second, 1});
    }
    analytics::ResultMap got;
    for (const auto& u : capture->AccumulatedAt(version)) {
      if (u.diff == 0) continue;
      EXPECT_EQ(u.diff, 1) << "vertex " << u.data.first;
      got[u.data.first] = u.data.second;
    }
    EXPECT_EQ(got, analytics::WccReference(reference_edges))
        << "version " << version;

    size_t reduces = 0;
    const auto& rows = dataflow.sealed_snapshot();
    for (size_t op = 0; op < rows.size(); ++op) {
      if (rows[op].name != "reduce") continue;
      ++reduces;
      const OperatorMemory& memory = rows[op].memory;
      EXPECT_GT(memory.trace_bytes, 0u) << "op " << op;
      EXPECT_GE(memory.trace_high_water_bytes, memory.trace_bytes)
          << "op " << op;
      if (op >= arranged_begin && op < arranged_end) {
        EXPECT_GT(memory.trace_entries, 0u) << "DistinctArranged output";
      } else {
#if !GRAPHSURGE_PARANOID  // paranoid builds keep shadow traces
        EXPECT_EQ(memory.trace_entries, 0u) << "op " << op;
#endif
      }
    }
    EXPECT_EQ(reduces, 4u);
  }
}

}  // namespace
}  // namespace gs::differential
