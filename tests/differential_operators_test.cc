// Focused operator-level coverage beyond the engine basics: fan-out,
// multiplicity algebra, derived reductions (multiset and additive), and
// incremental corrections.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "common/random.h"
#include "differential/differential.h"

namespace gs::differential {
namespace {

using IntPair = std::pair<int64_t, int64_t>;

template <typename D>
std::map<D, Diff> ToMap(const Batch<D>& batch) {
  std::map<D, Diff> m;
  for (const auto& u : batch) m[u.data] += u.diff;
  for (auto it = m.begin(); it != m.end();) {
    it = it->second == 0 ? m.erase(it) : std::next(it);
  }
  return m;
}

TEST(OperatorTest, FanOutDeliversToAllSubscribers) {
  Dataflow df;
  Input<int64_t> in(&df);
  auto s = in.stream();
  auto* cap1 = Capture(s.Map([](const int64_t& x) { return x + 1; }));
  auto* cap2 = Capture(s.Map([](const int64_t& x) { return x * 10; }));
  in.Send(4, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap1->AccumulatedAt(0)), (std::map<int64_t, Diff>{{5, 1}}));
  EXPECT_EQ(ToMap(cap2->AccumulatedAt(0)),
            (std::map<int64_t, Diff>{{40, 1}}));
}

TEST(OperatorTest, MapPreservesMultiplicity) {
  Dataflow df;
  Input<int64_t> in(&df);
  auto* cap = Capture(in.stream().Map([](const int64_t& x) { return x % 2; }));
  in.Send(2, 3);
  in.Send(4, 2);
  in.Send(5, -1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(0)),
            (std::map<int64_t, Diff>{{0, 5}, {1, -1}}));
}

TEST(OperatorTest, FlatMapWithEmptyExpansion) {
  Dataflow df;
  Input<int64_t> in(&df);
  auto* cap = Capture(in.stream().FlatMap(
      [](const int64_t& x, std::vector<int64_t>* out) {
        if (x > 0) out->push_back(x);
      }));
  in.Send(-5, 1);
  in.Send(3, 2);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(0)), (std::map<int64_t, Diff>{{3, 2}}));
}

TEST(OperatorTest, ChainedConcatAndNegateAlgebra) {
  // a + b - a == b at every version.
  Dataflow df;
  Input<int64_t> a(&df), b(&df);
  auto* cap =
      Capture(a.stream().Concat(b.stream()).Concat(a.stream().Negate()));
  a.Send(1, 1);
  b.Send(2, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(0)), (std::map<int64_t, Diff>{{2, 1}}));
  a.Send(7, 5);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(1)), (std::map<int64_t, Diff>{{2, 1}}));
}

TEST(OperatorTest, CountTracksMultisetCardinality) {
  Dataflow df;
  Input<IntPair> in(&df);
  auto* cap = Capture(Count(in.stream()));
  in.Send({1, 10}, 2);
  in.Send({1, 20}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(0)),
            (std::map<IntPair, Diff>{{{1, 3}, 1}}));
  in.Send({1, 10}, -2);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(1)),
            (std::map<IntPair, Diff>{{{1, 1}, 1}}));
  in.Send({1, 20}, -1);  // key vanishes entirely
  ASSERT_TRUE(df.Step().ok());
  EXPECT_TRUE(ToMap(cap->AccumulatedAt(2)).empty());
}

TEST(OperatorTest, ReduceMaxMirrorsReduceMin) {
  Dataflow df;
  Input<IntPair> in(&df);
  auto* mx = Capture(ReduceMax(in.stream()));
  auto* mn = Capture(ReduceMin(in.stream()));
  in.Send({1, 3}, 1);
  in.Send({1, 9}, 1);
  in.Send({1, 6}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(mx->AccumulatedAt(0)),
            (std::map<IntPair, Diff>{{{1, 9}, 1}}));
  EXPECT_EQ(ToMap(mn->AccumulatedAt(0)),
            (std::map<IntPair, Diff>{{{1, 3}, 1}}));
  in.Send({1, 9}, -1);
  in.Send({1, 3}, -1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(mx->AccumulatedAt(1)),
            (std::map<IntPair, Diff>{{{1, 6}, 1}}));
  EXPECT_EQ(ToMap(mn->AccumulatedAt(1)),
            (std::map<IntPair, Diff>{{{1, 6}, 1}}));
}

TEST(OperatorTest, GeneralReduceUserFunction) {
  // Sum-of-values reduce with multiplicities, including a key that ends
  // empty (must produce no output row).
  Dataflow df;
  Input<IntPair> in(&df);
  auto summed = Reduce<int64_t>(
      in.stream(),
      [](const int64_t&, const Batch<int64_t>& input, Batch<int64_t>* out) {
        int64_t total = 0;
        for (const auto& u : input) total += u.data * u.diff;
        out->push_back(Update<int64_t>{total, 1});
      });
  auto* cap = Capture(summed);
  in.Send({1, 5}, 2);
  in.Send({2, 7}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(0)),
            (std::map<IntPair, Diff>{{{1, 10}, 1}, {{2, 7}, 1}}));
  in.Send({2, 7}, -1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(1)),
            (std::map<IntPair, Diff>{{{1, 10}, 1}}));
}

TEST(OperatorTest, JoinProducesNothingWithoutMatches) {
  Dataflow df;
  Input<IntPair> left(&df), right(&df);
  auto* cap = Capture(Join(left.stream(), right.stream(),
                           [](const int64_t& k, const int64_t&,
                              const int64_t&) { return k; }));
  left.Send({1, 10}, 1);
  right.Send({2, 20}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_TRUE(cap->AccumulatedAt(0).empty());
  // A later version creates the match retroactively — only new pairs flow.
  right.Send({1, 30}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(1)), (std::map<int64_t, Diff>{{1, 1}}));
}

TEST(OperatorTest, JoinRetractionCancelsDerivedRecords) {
  Dataflow df;
  Input<IntPair> left(&df), right(&df);
  auto* cap = Capture(Join(
      left.stream(), right.stream(),
      [](const int64_t&, const int64_t& a, const int64_t& b) { return a + b; }));
  left.Send({1, 10}, 1);
  right.Send({1, 1}, 1);
  right.Send({1, 2}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(0)),
            (std::map<int64_t, Diff>{{11, 1}, {12, 1}}));
  left.Send({1, 10}, -1);  // retracting one side removes both pairs
  ASSERT_TRUE(df.Step().ok());
  EXPECT_TRUE(ToMap(cap->AccumulatedAt(1)).empty());
}

TEST(OperatorTest, StringKeyedRecordsWork) {
  Dataflow df;
  Input<std::pair<std::string, int64_t>> in(&df);
  auto* cap = Capture(ReduceMin(in.stream()));
  in.Send({"alpha", 4}, 1);
  in.Send({"alpha", 2}, 1);
  in.Send({"beta", 9}, 1);
  ASSERT_TRUE(df.Step().ok());
  auto m = ToMap(cap->AccumulatedAt(0));
  EXPECT_EQ(m.at({"alpha", 2}), 1);
  EXPECT_EQ(m.at({"beta", 9}), 1);
}

TEST(OperatorTest, InspectObservesWithoutPerturbing) {
  Dataflow df;
  Input<int64_t> in(&df);
  int batches_seen = 0;
  auto* cap = Capture(in.stream().InspectBatches(
      [&batches_seen](const Time&, const Batch<int64_t>&) {
        ++batches_seen;
      }));
  in.Send(1, 1);
  ASSERT_TRUE(df.Step().ok());
  in.Send(1, -1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(batches_seen, 2);
  EXPECT_TRUE(ToMap(cap->AccumulatedAt(1)).empty());
}

TEST(OperatorTest, IterateWithMultipleEnteredCollections) {
  // A loop body joining two outer collections (weights and edges).
  Dataflow df;
  Input<std::pair<uint64_t, uint64_t>> edges(&df);
  Input<std::pair<uint64_t, int64_t>> bonus(&df);  // (vertex, extra cost)
  Input<std::pair<uint64_t, int64_t>> roots(&df);
  auto dists = Iterate<std::pair<uint64_t, int64_t>>(
      roots.stream(),
      [&](LoopScope& scope, Stream<std::pair<uint64_t, int64_t>> inner) {
        auto e = scope.Enter(edges.stream());
        auto b = scope.Enter(bonus.stream());
        auto r = scope.Enter(roots.stream());
        auto moved = Join(inner, e,
                          [](const uint64_t&, const int64_t& d,
                             const uint64_t& dst) {
                            return std::make_pair(dst, d + 1);
                          });
        auto adjusted = Join(moved, b,
                             [](const uint64_t& v, const int64_t& d,
                                const int64_t& extra) {
                               return std::make_pair(v, d + extra);
                             });
        return ReduceMin(adjusted.Concat(r));
      });
  auto* cap = Capture(dists);
  edges.Send({0, 1}, 1);
  edges.Send({1, 2}, 1);
  bonus.Send({1, 10}, 1);
  bonus.Send({2, 0}, 1);
  roots.Send({0, 0}, 1);
  ASSERT_TRUE(df.Step().ok());
  auto m = ToMap(cap->AccumulatedAt(0));
  EXPECT_EQ(m.at({1, 11}), 1);  // 0 + 1 hop + bonus 10
  EXPECT_EQ(m.at({2, 12}), 1);
}

// --- Additive reduce ---------------------------------------------------------
// Count, Distinct and PageRank's rank sum read only a key's weighted count,
// so ReduceOp keeps one total per key and iteration for them. These tests
// hold that path to the multiset rules it replaces.

/// The multiset-path reduce computing Count's rule: the key's net count,
/// emitted while non-zero.
Stream<IntPair> MultisetCount(Stream<IntPair> in) {
  return Reduce<int64_t>(
      in, [](const int64_t&, const Batch<int64_t>& input, Batch<int64_t>* out) {
        Diff total = 0;
        for (const Update<int64_t>& u : input) total += u.diff;
        if (total != 0) out->push_back(Update<int64_t>{total, 1});
      });
}

TEST(AdditiveReduceTest, NetCountGoesNegativeAndRecovers) {
  Dataflow df;
  Input<IntPair> in(&df);
  auto* additive = Capture(Count(in.stream()));
  auto* multiset = Capture(MultisetCount(in.stream()));
  in.Send({1, 10}, 1);
  ASSERT_TRUE(df.Step().ok());
  in.Send({1, 10}, -3);  // net count -2: still a non-zero total
  ASSERT_TRUE(df.Step().ok());
  in.Send({1, 20}, 5);  // recovers to 3
  ASSERT_TRUE(df.Step().ok());
  const std::map<IntPair, Diff> expected[] = {
      {{{1, 1}, 1}}, {{{1, -2}, 1}}, {{{1, 3}, 1}}};
  for (uint32_t v = 0; v < 3; ++v) {
    EXPECT_EQ(ToMap(additive->AccumulatedAt(v)), expected[v]) << "v" << v;
    EXPECT_EQ(ToMap(multiset->AccumulatedAt(v)), expected[v]) << "v" << v;
  }
}

TEST(AdditiveReduceTest, TotalReturningToZeroRetractsOutput) {
  Dataflow df;
  Input<IntPair> in(&df);
  auto* sums = Capture(Reduce<int64_t>(
      Weigh(in.stream(), [](const int64_t& w) { return w; }),
      [](const int64_t&, Diff total, Batch<int64_t>* out) {
        out->push_back(Update<int64_t>{total, 1});
      }));
  in.Send({1, 3}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(sums->AccumulatedAt(0)),
            (std::map<IntPair, Diff>{{{1, 3}, 1}}));
  // Different records whose weights cancel: total 0 emits nothing, so the
  // previous output is retracted.
  in.Send({1, 3}, -1);
  in.Send({1, 1}, 3);
  in.Send({1, -3}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(sums->VersionDiffs(1)),
            (std::map<IntPair, Diff>{{{1, 3}, -1}}));
  EXPECT_TRUE(ToMap(sums->AccumulatedAt(1)).empty());
  in.Send({1, 1}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(sums->AccumulatedAt(2)),
            (std::map<IntPair, Diff>{{{1, 1}, 1}}));
}

TEST(AdditiveReduceTest, DistinctOfRecordInsertedTwiceRetractedOnce) {
  Dataflow df;
  Input<int64_t> in(&df);
  auto* cap = Capture(Distinct(in.stream()));
  in.Send(7, 1);
  in.Send(7, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(0)), (std::map<int64_t, Diff>{{7, 1}}));
  in.Send(7, -1);  // one copy left: still present, nothing emitted
  ASSERT_TRUE(df.Step().ok());
  EXPECT_TRUE(cap->VersionDiffs(1).empty());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(1)), (std::map<int64_t, Diff>{{7, 1}}));
  in.Send(7, -1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_TRUE(ToMap(cap->AccumulatedAt(2)).empty());
}

// Count inside loops: at depth 1 it keeps the per-key history (KeyState),
// at depth 2 it takes the shared trace path (EvaluateDeepKeyAt). Each
// iteration re-counts the previous one's pairs and moves them to the next
// key, so the counts change from iteration to iteration; both loops are
// capped. The additive Count must agree with the multiset reduce over
// several versions of random inserts and retractions.
TEST(AdditiveReduceTest, CountInNestedIterateMatchesMultisetReduce) {
  struct Program {
    explicit Program(bool additive) : in(&df) {
      auto count = [additive](Stream<IntPair> pairs) {
        return (additive ? Count(pairs) : MultisetCount(pairs))
            .Map([](const IntPair& kc) {
              return IntPair{(kc.first + 1) % 6, kc.second % 5};
            });
      };
      IterateOptions outer_options;
      outer_options.max_iterations = 3;
      IterateOptions inner_options;
      inner_options.max_iterations = 4;
      auto result = Iterate<IntPair>(
          in.stream(),
          [&](LoopScope& outer, Stream<IntPair> o) {
            auto tallied = count(o.Concat(outer.Enter(in.stream())));
            return Iterate<IntPair>(
                tallied,
                [&](LoopScope& inner, Stream<IntPair> x) {
                  return count(x.Concat(inner.Enter(tallied)));
                },
                inner_options);
          },
          outer_options);
      capture = Capture(result);
    }
    Dataflow df;
    Input<IntPair> in;
    CaptureOp<IntPair>* capture = nullptr;
  };
  Program additive(true);
  Program multiset(false);
  Rng rng(29);
  std::map<IntPair, Diff> present;
  for (uint32_t version = 0; version < 5; ++version) {
    for (auto& [pair, count] : present) {
      if (count > 0 && rng.Bernoulli(0.3)) {
        additive.in.Send(pair, -1);
        multiset.in.Send(pair, -1);
        --count;
      }
    }
    for (int i = 0; i < 8; ++i) {
      IntPair pair{rng.Uniform(0, 5), rng.Uniform(0, 3)};
      additive.in.Send(pair, 1);
      multiset.in.Send(pair, 1);
      ++present[pair];
    }
    ASSERT_TRUE(additive.df.Step().ok());
    ASSERT_TRUE(multiset.df.Step().ok());
    EXPECT_EQ(ToMap(additive.capture->AccumulatedAt(version)),
              ToMap(multiset.capture->AccumulatedAt(version)))
        << "version " << version;
    EXPECT_FALSE(additive.capture->AccumulatedAt(version).empty());
  }
}

// Inside a loop, a key's iteration-0 total cancels in a later version while
// its iteration-2 entry remains: the history drops the cancelled entry
// without losing its cursor, so the iteration-2 evaluation still sees the
// entry it must retract. The loop moves a token (k, 0) → (k, 1) → (k, 2);
// Count sees stages 0 and 2 only, so its input changes at iterations 0
// and 2, and its count rides along in the loop variable as (k, 100 + n).
TEST(AdditiveReduceTest, CancelledIterationKeepsLaterEntries) {
  Dataflow df;
  Input<IntPair> init(&df);
  auto result = Iterate<IntPair>(
      init.stream(), [&](LoopScope& scope, Stream<IntPair> x) {
        auto advanced = x.Filter([](const IntPair& p) { return p.second < 2; })
                            .Map([](const IntPair& p) {
                              return IntPair{p.first, p.second + 1};
                            });
        auto counts = Count(x.Filter([](const IntPair& p) {
                               return p.second == 0 || p.second == 2;
                             })).Map([](const IntPair& kc) {
          return IntPair{kc.first, 100 + kc.second};
        });
        return scope.Enter(init.stream()).Concat(advanced).Concat(counts);
      });
  auto* cap = Capture(result);
  init.Send({1, 0}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(0)),
            (std::map<IntPair, Diff>{
                {{1, 0}, 1}, {{1, 1}, 1}, {{1, 2}, 1}, {{1, 102}, 1}}));
  init.Send({1, 0}, -1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_TRUE(ToMap(cap->AccumulatedAt(1)).empty());
  init.Send({1, 0}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(ToMap(cap->AccumulatedAt(2)), ToMap(cap->AccumulatedAt(0)));
}

// The weight step pre-aggregates: a hundred weighted records for one key —
// PageRank's shape for a vertex with 100 in-edges — reach the reduce as a
// single update per (key, time). Without the weight step the reduce gets
// all hundred.
TEST(AdditiveReduceTest, WeightStepDeliversOneUpdatePerKeyAndTime) {
  Dataflow df;
  Input<IntPair> in(&df);
  size_t weighted_updates = 0;
  size_t raw_updates = 0;
  auto weighted = Weigh(in.stream(), [](const int64_t& w) { return w; })
                      .InspectBatches([&](const Time&, const auto& batch) {
                        weighted_updates += batch.size();
                      });
  auto* additive = Capture(Reduce<int64_t>(
      weighted, [](const int64_t&, Diff total, Batch<int64_t>* out) {
        out->push_back(Update<int64_t>{total, 1});
      }));
  auto raw = in.stream().InspectBatches(
      [&](const Time&, const auto& batch) { raw_updates += batch.size(); });
  auto* multiset = Capture(Reduce<int64_t>(
      raw,
      [](const int64_t&, const Batch<int64_t>& input, Batch<int64_t>* out) {
        int64_t total = 0;
        for (const auto& u : input) total += u.data * u.diff;
        out->push_back(Update<int64_t>{total, 1});
      }));
  for (int64_t share = 1; share <= 100; ++share) in.Send({0, share}, 1);
  ASSERT_TRUE(df.Step().ok());
  EXPECT_EQ(weighted_updates, 1u);
  EXPECT_EQ(raw_updates, 100u);
  const std::map<IntPair, Diff> expected{{{0, 5050}, 1}};
  EXPECT_EQ(ToMap(additive->AccumulatedAt(0)), expected);
  EXPECT_EQ(ToMap(multiset->AccumulatedAt(0)), expected);
}

TEST(AdditiveReduceDeathTest, WeightTimesDiffOverflowFails) {
  EXPECT_DEATH(
      {
        Dataflow df;
        Input<IntPair> in(&df);
        Capture(Weigh(in.stream(), [](const int64_t& w) { return w; }));
        in.Send({1, std::numeric_limits<int64_t>::max()}, 2);
        (void)df.Step();
      },
      "weight × diff overflows");
}

}  // namespace
}  // namespace gs::differential
