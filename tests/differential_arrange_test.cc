// Shared arrangements: JoinArranged / ReduceArranged / DistinctArranged /
// CountArranged produce exactly the outputs of their trace-per-operator
// counterparts, serial and sharded, flat and inside iterative scopes; the
// arrangement-sharing stats are recorded; and unchanged reductions publish
// no batch at all (the empty-batch regression gate).
#include "differential/differential.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/random.h"

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

DataflowOptions Workers(size_t n) {
  DataflowOptions options;
  options.num_workers = n;
  return options;
}

// Same harness as differential_sharded_test.cc: one keyed pipeline per
// shard, inputs hash-partitioned, captures merged.
template <typename In, typename Out>
class ShardedHarness {
 public:
  using Builder = std::function<Stream<Out>(Dataflow*, Stream<In>)>;

  ShardedHarness(size_t num_workers, const Builder& build)
      : dataflow_(Workers(num_workers)) {
    for (size_t w = 0; w < dataflow_.num_workers(); ++w) {
      inputs_.emplace_back(dataflow_.worker(w));
      captures_.push_back(
          Capture(build(dataflow_.worker(w), inputs_[w].stream())));
    }
  }

  void Send(In data, Diff diff) {
    inputs_[dataflow_.OwnerOfHash(HashValue(data))].Send(std::move(data),
                                                         diff);
  }

  Status Step() { return dataflow_.Step(); }

  std::map<Out, Diff> Accumulated(uint32_t version) const {
    Batch<Out> all;
    for (const auto* cap : captures_) {
      Batch<Out> b = cap->AccumulatedAt(version);
      all.insert(all.end(), b.begin(), b.end());
    }
    return ToMap(all);
  }

  std::map<Out, Diff> VersionDiffs(uint32_t version) const {
    Batch<Out> all;
    for (const auto* cap : captures_) {
      Batch<Out> b = cap->VersionDiffs(version);
      all.insert(all.end(), b.begin(), b.end());
    }
    return ToMap(all);
  }

  ShardedDataflow& dataflow() { return dataflow_; }

 private:
  ShardedDataflow dataflow_;
  std::vector<Input<In>> inputs_;
  std::vector<CaptureOp<Out>*> captures_;
};

using Harness = ShardedHarness<IntPair, IntPair>;

// Drives `plain` and `arranged` pipelines at one and four workers through
// random insert/retract versions and requires all four runs to agree on
// every version's difference set and accumulation.
void ExpectEquivalentPipelines(const Harness::Builder& plain,
                               const Harness::Builder& arranged,
                               uint64_t seed) {
  Harness plain1(1, plain);
  Harness plain4(4, plain);
  Harness arranged1(1, arranged);
  Harness arranged4(4, arranged);
  Harness* runs[] = {&plain1, &plain4, &arranged1, &arranged4};

  Rng rng(seed);
  for (uint32_t version = 0; version < 5; ++version) {
    for (int i = 0; i < 250; ++i) {
      IntPair p{rng.Uniform(0, 50), rng.Uniform(0, 20)};
      Diff d = rng.Bernoulli(0.25) && version > 0 ? -1 : 1;
      for (Harness* h : runs) h->Send(p, d);
    }
    for (Harness* h : runs) ASSERT_TRUE(h->Step().ok());
    auto expected_diffs = plain1.VersionDiffs(version);
    auto expected_acc = plain1.Accumulated(version);
    EXPECT_EQ(plain4.VersionDiffs(version), expected_diffs)
        << "plain W=4, version " << version;
    EXPECT_EQ(arranged1.VersionDiffs(version), expected_diffs)
        << "arranged W=1, version " << version;
    EXPECT_EQ(arranged4.VersionDiffs(version), expected_diffs)
        << "arranged W=4, version " << version;
    EXPECT_EQ(arranged4.Accumulated(version), expected_acc)
        << "arranged W=4, version " << version;
  }
}

TEST(ArrangeTest, JoinStreamArrangedMatchesJoin) {
  auto shift = [](const IntPair& p) {
    return IntPair{p.first + 1, p.second * 3};
  };
  auto merge = [](const int64_t& k, const int64_t& a, const int64_t& b) {
    return IntPair{k, a * 100 + b};
  };
  auto plain = [=](Dataflow*, Stream<IntPair> in) {
    return Join(in, in.Map(shift), merge);
  };
  auto arranged = [=](Dataflow*, Stream<IntPair> in) {
    return JoinArranged(in, Arrange(in.Map(shift)), merge);
  };
  ExpectEquivalentPipelines(plain, arranged, 11);
}

TEST(ArrangeTest, JoinArrangedArrangedMatchesJoin) {
  auto shift = [](const IntPair& p) {
    return IntPair{p.first + 1, p.second * 3};
  };
  auto merge = [](const int64_t& k, const int64_t& a, const int64_t& b) {
    return IntPair{k, a * 100 + b};
  };
  auto plain = [=](Dataflow*, Stream<IntPair> in) {
    return Join(in, in.Map(shift), merge);
  };
  auto arranged = [=](Dataflow*, Stream<IntPair> in) {
    return JoinArranged(Arrange(in), Arrange(in.Map(shift)), merge);
  };
  ExpectEquivalentPipelines(plain, arranged, 13);
}

TEST(ArrangeTest, OneArrangementSharedByTwoJoins) {
  // The payoff case: one trace, two consumers. Both joins probe the same
  // shared adjacency arrangement; the union must equal two plain joins.
  auto fwd = [](const int64_t& k, const int64_t& a, const int64_t& b) {
    return IntPair{k, a + b};
  };
  auto bwd = [](const int64_t& k, const int64_t& a, const int64_t& b) {
    return IntPair{k + 1000, a - b};
  };
  auto tag = [](const IntPair& p) { return IntPair{p.first, p.second + 7}; };
  auto plain = [=](Dataflow*, Stream<IntPair> in) {
    auto tagged = in.Map(tag);
    return Join(tagged, in, fwd).Concat(Join(tagged, in, bwd));
  };
  auto arranged = [=](Dataflow*, Stream<IntPair> in) {
    auto shared = Arrange(in);
    auto tagged = in.Map(tag);
    return JoinArranged(tagged, shared, fwd)
        .Concat(JoinArranged(tagged, shared, bwd));
  };
  ExpectEquivalentPipelines(plain, arranged, 17);
}

TEST(ArrangeTest, ReduceFamilyOverArrangementsMatchesPlain) {
  auto plain = [](Dataflow*, Stream<IntPair> in) {
    auto counts = Count(Distinct(in));
    return ReduceMin<int64_t, int64_t>(counts);
  };
  auto arranged = [](Dataflow*, Stream<IntPair> in) {
    auto counts = CountArranged(DistinctArranged(in));
    return ReduceArranged<int64_t>(
        counts, [](const int64_t&, const Batch<int64_t>& vals,
                   Batch<int64_t>* out) {
          bool any = false;
          int64_t best = 0;
          for (const auto& u : vals) {
            if (u.diff <= 0) continue;
            if (!any || u.data < best) best = u.data;
            any = true;
          }
          if (any) out->push_back(Update<int64_t>{best, 1});
        });
  };
  ExpectEquivalentPipelines(plain, arranged, 19);
}

TEST(ArrangeTest, ArrangedLoopMatchesPlainLoop) {
  // Transitive reachability with the adjacency arrangement built outside
  // the scope and entered — the pattern algorithms.cc uses for WCC/BFS.
  auto step = [](const int64_t&, const int64_t& dist, const int64_t& dst) {
    return IntPair{dst, dist + 1};
  };
  auto plain = [=](Dataflow*, Stream<IntPair> edges) {
    auto roots = Distinct(
        edges.Filter([](const IntPair& e) { return e.first == 0; })
            .Map([](const IntPair&) { return IntPair{0, 0}; }));
    return Iterate<IntPair>(
        roots, [&](LoopScope& scope, Stream<IntPair> inner) {
          auto edges_in = scope.Enter(edges);
          auto roots_in = scope.Enter(roots);
          auto moved = Join(inner, edges_in, step);
          return ReduceMin<int64_t, int64_t>(moved.Concat(roots_in));
        });
  };
  auto arranged = [=](Dataflow*, Stream<IntPair> edges) {
    auto adjacency = DistinctArranged(edges);
    auto roots = Distinct(
        edges.Filter([](const IntPair& e) { return e.first == 0; })
            .Map([](const IntPair&) { return IntPair{0, 0}; }));
    return Iterate<IntPair>(
        roots, [&](LoopScope& scope, Stream<IntPair> inner) {
          auto adj_in = adjacency.Enter(scope);
          auto roots_in = scope.Enter(roots);
          auto moved = JoinArranged(inner, adj_in, step);
          return ReduceMin<int64_t, int64_t>(moved.Concat(roots_in));
        });
  };

  Harness plain1(1, plain);
  Harness arranged1(1, arranged);
  Harness arranged4(4, arranged);
  Harness* runs[] = {&plain1, &arranged1, &arranged4};
  Rng rng(3);
  for (uint32_t version = 0; version < 4; ++version) {
    for (int i = 0; i < 150; ++i) {
      IntPair e{rng.Uniform(0, 60), rng.Uniform(0, 60)};
      for (Harness* h : runs) h->Send(e, 1);
    }
    for (Harness* h : runs) ASSERT_TRUE(h->Step().ok());
    auto expected = plain1.Accumulated(version);
    EXPECT_EQ(arranged1.Accumulated(version), expected)
        << "arranged W=1, version " << version;
    EXPECT_EQ(arranged4.Accumulated(version), expected)
        << "arranged W=4, version " << version;
  }
}

TEST(ArrangeTest, ArrangementSharesAreCounted) {
  Dataflow dataflow;
  Input<IntPair> input(&dataflow);
  auto shared = Arrange(input.stream());
  auto tagged = input.stream().Map(
      [](const IntPair& p) { return IntPair{p.first, p.second + 1}; });
  auto merge = [](const int64_t& k, const int64_t& a, const int64_t& b) {
    return IntPair{k, a + b};
  };
  // Two stream⋈arranged consumers (1 share each) plus one
  // arranged⋈arranged consumer (2 shares) plus one reduce-over-arrangement
  // (1 share): five endpoints probing shared traces.
  Capture(JoinArranged(tagged, shared, merge));
  Capture(JoinArranged(tagged, shared, merge));
  Capture(JoinArranged(shared, shared, merge));
  Capture(ReduceArranged<int64_t>(
      shared, [](const int64_t&, const Batch<int64_t>& vals,
                 Batch<int64_t>* out) {
        int64_t total = 0;
        for (const auto& u : vals) total += u.data * u.diff;
        out->push_back(Update<int64_t>{total, 1});
      }));
  EXPECT_EQ(dataflow.stats().arrangement_shares, 5u);

  input.Send({1, 2}, 1);
  ASSERT_TRUE(dataflow.Step().ok());
  EXPECT_GT(dataflow.stats().trace_entries, 0u);
}

TEST(ArrangeTest, UnchangedReductionPublishesNoBatch) {
  // Version 1 inserts a value that does not change the minimum: the reduce
  // must publish nothing at all — no empty batch, no capture entry.
  Dataflow dataflow;
  Input<IntPair> input(&dataflow);
  auto* capture = Capture(ReduceMin<int64_t, int64_t>(input.stream()));

  input.Send({1, 5}, 1);
  ASSERT_TRUE(dataflow.Step().ok());
  EXPECT_EQ(ToMap(capture->VersionDiffs(0)),
            (std::map<IntPair, Diff>{{{1, 5}, 1}}));

  input.Send({1, 9}, 1);  // min unchanged
  ASSERT_TRUE(dataflow.Step().ok());
  EXPECT_EQ(capture->versions().count(1), 0u)
      << "an unchanged reduction published a batch at version 1";

  input.Send({1, 5}, -1);  // retract the old min; 9 takes over
  ASSERT_TRUE(dataflow.Step().ok());
  EXPECT_EQ(ToMap(capture->VersionDiffs(2)),
            (std::map<IntPair, Diff>{{{1, 5}, -1}, {{1, 9}, 1}}));
}

}  // namespace
}  // namespace gs::differential
