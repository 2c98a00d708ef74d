// Multi-worker sharded execution: results are byte-identical to the serial
// engine for keyed operators, iterative scopes, and full analytics runs on
// view collections; exchange queues and per-worker stats behave under
// concurrency (this file is the TSan gate for the sharded engine).
#include "differential/differential.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/metrics.h"
#include "common/random.h"
#include "graph/generators.h"
#include "gvdl/parser.h"
#include "views/executor.h"

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

// A ShardedDataflow running one keyed pipeline on every shard, with inputs
// hash-partitioned and captures merged — the pattern the views executor
// uses, reduced to its engine-level core. `Build` maps the (per-shard)
// input stream to the captured stream.
template <typename In, typename Out>
class ShardedHarness {
 public:
  using Builder =
      std::function<Stream<Out>(Dataflow*, Stream<In>)>;

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

TEST(ShardedTest, ReduceMatchesSerialAcrossVersions) {
  auto build = [](Dataflow*, Stream<IntPair> in) {
    return ReduceMin<int64_t, int64_t>(in);
  };
  ShardedHarness<IntPair, IntPair> serial(1, build);
  ShardedHarness<IntPair, IntPair> sharded(4, build);

  Rng rng(7);
  std::vector<IntPair> live;
  for (uint32_t version = 0; version < 6; ++version) {
    Batch<IntPair> diffs;
    for (int i = 0; i < 300; ++i) {
      IntPair p{rng.Uniform(0, 80), rng.Uniform(0, 1000)};
      diffs.push_back({p, 1});
      live.push_back(p);
    }
    // Retract a random prefix of earlier insertions.
    size_t retract = version == 0 ? 0 : live.size() / 4;
    for (size_t i = 0; i < retract; ++i) {
      diffs.push_back({live[i], -1});
    }
    live.erase(live.begin(), live.begin() + retract);

    for (const auto& u : diffs) {
      serial.Send(u.data, u.diff);
      sharded.Send(u.data, u.diff);
    }
    ASSERT_TRUE(serial.Step().ok());
    ASSERT_TRUE(sharded.Step().ok());
    EXPECT_EQ(serial.VersionDiffs(version), sharded.VersionDiffs(version))
        << "version " << version;
    EXPECT_EQ(serial.Accumulated(version), sharded.Accumulated(version))
        << "version " << version;
  }
}

TEST(ShardedTest, JoinMatchesSerialAcrossVersions) {
  // Self-join through a map: (k, v) joined with (k+1 keyed copies).
  auto build = [](Dataflow*, Stream<IntPair> in) {
    auto shifted = in.Map([](const IntPair& p) {
      return IntPair{p.first + 1, p.second * 3};
    });
    return Join(in, shifted,
                [](const int64_t& k, const int64_t& a, const int64_t& b) {
                  return IntPair{k, a + b};
                });
  };
  ShardedHarness<IntPair, IntPair> serial(1, build);
  ShardedHarness<IntPair, IntPair> sharded(3, build);

  Rng rng(11);
  for (uint32_t version = 0; version < 5; ++version) {
    for (int i = 0; i < 200; ++i) {
      IntPair p{rng.Uniform(0, 50), rng.Uniform(0, 20)};
      Diff d = rng.Bernoulli(0.25) && version > 0 ? -1 : 1;
      serial.Send(p, d);
      sharded.Send(p, d);
    }
    ASSERT_TRUE(serial.Step().ok());
    ASSERT_TRUE(sharded.Step().ok());
    EXPECT_EQ(serial.VersionDiffs(version), sharded.VersionDiffs(version))
        << "version " << version;
  }
}

TEST(ShardedTest, IterateMatchesSerial) {
  // Transitive reachability from vertex 0 over an edge input: the classic
  // label-propagation loop with a cross-shard exchange inside the scope.
  auto build = [](Dataflow*, Stream<IntPair> edges) {
    auto roots = Distinct(
        edges.Filter([](const IntPair& e) { return e.first == 0; })
            .Map([](const IntPair&) { return IntPair{0, 0}; }));
    return Iterate<IntPair>(
        roots, [&](LoopScope& scope, Stream<IntPair> inner) {
          auto edges_in = scope.Enter(edges);
          auto roots_in = scope.Enter(roots);
          auto moved =
              Join(inner, edges_in,
                   [](const int64_t&, const int64_t& dist,
                      const int64_t& dst) { return IntPair{dst, dist + 1}; });
          return ReduceMin<int64_t, int64_t>(moved.Concat(roots_in));
        });
  };
  ShardedHarness<IntPair, IntPair> serial(1, build);
  ShardedHarness<IntPair, IntPair> sharded(4, build);

  Rng rng(3);
  for (uint32_t version = 0; version < 4; ++version) {
    for (int i = 0; i < 150; ++i) {
      IntPair e{rng.Uniform(0, 60), rng.Uniform(0, 60)};
      serial.Send(e, 1);
      sharded.Send(e, 1);
    }
    ASSERT_TRUE(serial.Step().ok());
    ASSERT_TRUE(sharded.Step().ok());
    EXPECT_EQ(serial.Accumulated(version), sharded.Accumulated(version))
        << "version " << version;
  }
}

TEST(ShardedTest, ExchangeStress) {
  // Hammers the exchange queues: every input record crosses the reduce
  // boundary, most to a different shard, over many small versions. Run
  // under TSan in CI, this exercises concurrent inbox pushes, drains, and
  // per-worker stats updates.
  auto build = [](Dataflow*, Stream<IntPair> in) {
    auto sums = Reduce<int64_t>(
        in, [](const int64_t&, const Batch<int64_t>& vals,
               Batch<int64_t>* out) {
          int64_t total = 0;
          for (const auto& u : vals) total += u.data * u.diff;
          out->push_back(Update<int64_t>{total, 1});
        });
    // A second repartitioning hop: re-key by value bucket and count.
    auto rekeyed = sums.Map([](const IntPair& p) {
      return IntPair{p.second % 17, p.first};
    });
    return Count(rekeyed);
  };
  ShardedHarness<IntPair, IntPair> serial(1, build);
  ShardedHarness<IntPair, IntPair> sharded(4, build);

  Rng rng(23);
  for (uint32_t version = 0; version < 12; ++version) {
    for (int i = 0; i < 400; ++i) {
      IntPair p{rng.Uniform(0, 500), rng.Uniform(1, 9)};
      Diff d = rng.Bernoulli(0.3) && version > 0 ? -1 : 1;
      serial.Send(p, d);
      sharded.Send(p, d);
    }
    ASSERT_TRUE(serial.Step().ok());
    ASSERT_TRUE(sharded.Step().ok());
    ASSERT_EQ(serial.Accumulated(version), sharded.Accumulated(version))
        << "version " << version;
  }
  // Cross-shard traffic actually happened, and the byte counter moved with
  // it (it counts sizeof(Update<D>) per routed record).
  DataflowStats stats = sharded.dataflow().AggregatedStats();
  EXPECT_GT(stats.exchanged_bytes, 0u);
  EXPECT_EQ(stats.exchanged_bytes % sizeof(Update<IntPair>), 0u);
}

// op_nanos is keyed by operator name on every shard; the per-shard split of
// an operator's time is its seal-snapshot row's run_nanos, and the two
// accounts come from the same seal walk, so they agree to the nanosecond.
TEST(ShardedTest, OpNanosKeysAreOperatorNamesSummingToRowRunNanos) {
  auto build = [](Dataflow*, Stream<IntPair> in) {
    auto shifted = in.Map([](const IntPair& p) {
      return IntPair{p.first + 1, p.second};
    });
    auto joined =
        Join(in, shifted,
             [](const int64_t& k, const int64_t& a, const int64_t& b) {
               return IntPair{k, a + b};
             });
    return ReduceMin<int64_t, int64_t>(joined);
  };
  for (size_t workers : {1, 2, 4, 7}) {
    ShardedHarness<IntPair, IntPair> sharded(workers, build);
    Rng rng(41);
    for (uint32_t version = 0; version < 2; ++version) {
      for (int i = 0; i < 500; ++i) {
        sharded.Send({rng.Uniform(0, 100), rng.Uniform(0, 1000)}, 1);
      }
      ASSERT_TRUE(sharded.Step().ok());
    }
    sharded.dataflow().SealEpoch();

    std::set<std::string> names;
    uint64_t row_total = 0;
    for (size_t w = 0; w < workers; ++w) {
      const auto& rows = sharded.dataflow().worker(w)->sealed_snapshot();
      ASSERT_EQ(rows.size(), sharded.dataflow().worker(w)->num_operators());
      for (const Dataflow::OperatorSnapshot& row : rows) {
        names.insert(row.name);
        row_total += row.run_nanos;
      }
    }
    DataflowStats stats = sharded.dataflow().AggregatedStats();
    ASSERT_FALSE(stats.op_nanos.empty()) << "workers=" << workers;
    uint64_t total = 0;
    for (const auto& [name, nanos] : stats.op_nanos) {
      EXPECT_EQ(names.count(name), 1u) << "workers=" << workers << " " << name;
      total += nanos;
    }
    EXPECT_EQ(total, row_total) << "workers=" << workers;
    EXPECT_EQ(stats.AggregatedOpNanos(), stats.op_nanos);
  }
}

TEST(ShardedTest, StatsAreMergedPerWorker) {
  auto build = [](Dataflow*, Stream<IntPair> in) {
    return ReduceMin<int64_t, int64_t>(in);
  };
  ShardedHarness<IntPair, IntPair> sharded(4, build);
  for (int64_t k = 0; k < 200; ++k) sharded.Send({k, k}, 1);
  ASSERT_TRUE(sharded.Step().ok());

  DataflowStats stats = sharded.dataflow().AggregatedStats();
  EXPECT_GT(stats.updates_published, 0u);
  EXPECT_GT(stats.reduce_evaluations, 0u);
  // 200 keys hash-partition over all four workers, so every worker's keyed
  // operators process records, and the aggregate is their sum.
  uint64_t shard_records_sum = 0;
  for (size_t w = 0; w < 4; ++w) {
    const uint64_t records =
        sharded.dataflow().worker(w)->stats().shard_records;
    EXPECT_GT(records, 0u) << "worker " << w;
    shard_records_sum += records;
  }
  EXPECT_EQ(stats.shard_records, shard_records_sum);
  std::vector<uint64_t> events = sharded.dataflow().PerWorkerEvents();
  ASSERT_EQ(events.size(), 4u);
  for (uint64_t e : events) EXPECT_GT(e, 0u);
}

TEST(ShardedTest, ScrapedProgressGaugesSettleAfterStepAndSeal) {
  // The /metrics signals from which a scraper judges a wedged step or a
  // lagging ingest: rounds advance during a step, nothing is reported
  // outstanding once it returns, and the sealed-epoch gauge tracks
  // epochs_sealed().
  metrics::Registry& registry = metrics::Registry::Global();
  metrics::Counter* rounds = registry.GetCounter("gs_engine_frontier_rounds");
  metrics::Gauge* outstanding =
      registry.GetGauge("gs_engine_records_outstanding");
  metrics::Gauge* last_sealed =
      registry.GetGauge("gs_engine_last_sealed_epoch");
  auto build = [](Dataflow*, Stream<IntPair> in) {
    return ReduceMin<int64_t, int64_t>(in);
  };
  ShardedHarness<IntPair, IntPair> sharded(4, build);
  for (uint32_t epoch = 1; epoch <= 2; ++epoch) {
    for (int64_t k = 0; k < 200; ++k) sharded.Send({k, k + epoch}, 1);
    const uint64_t rounds_before = rounds->Value();
    ASSERT_TRUE(sharded.Step().ok());
    EXPECT_GT(rounds->Value(), rounds_before);
    EXPECT_EQ(outstanding->Value(), 0);
    sharded.dataflow().SealEpoch();
    EXPECT_EQ(sharded.dataflow().epochs_sealed(), epoch);
    EXPECT_EQ(last_sealed->Value(),
              static_cast<int64_t>(sharded.dataflow().epochs_sealed()));
  }
}

TEST(ShardedTest, EventCapErrorPropagatesFromWorkers) {
  // A 200-vertex chain forces ~200 loop iterations; the tiny per-worker
  // event cap trips inside a worker thread and the error must surface from
  // ShardedDataflow::Step.
  auto build = [](Dataflow*, Stream<IntPair> edges) {
    auto roots = Distinct(
        edges.Filter([](const IntPair& e) { return e.first == 0; })
            .Map([](const IntPair&) { return IntPair{0, 0}; }));
    return Iterate<IntPair>(
        roots, [&](LoopScope& scope, Stream<IntPair> inner) {
          auto edges_in = scope.Enter(edges);
          auto roots_in = scope.Enter(roots);
          auto moved =
              Join(inner, edges_in,
                   [](const int64_t&, const int64_t& dist,
                      const int64_t& dst) { return IntPair{dst, dist + 1}; });
          return ReduceMin<int64_t, int64_t>(moved.Concat(roots_in));
        });
  };
  DataflowOptions options = Workers(3);
  options.max_events_per_version = 40;  // far below the chain's needs
  ShardedDataflow df(options);
  std::vector<std::unique_ptr<Input<IntPair>>> inputs;
  for (size_t w = 0; w < df.num_workers(); ++w) {
    inputs.push_back(std::make_unique<Input<IntPair>>(df.worker(w)));
    Capture(build(df.worker(w), inputs[w]->stream()));
  }
  for (int64_t k = 0; k < 200; ++k) {
    IntPair e{k, k + 1};
    inputs[df.OwnerOfHash(HashValue(e))]->Send(e, 1);
  }
  EXPECT_FALSE(df.Step().ok());
  // The failed step takes its records back out of the outstanding gauge,
  // or a scraper would see a wedged step on an idle process.
  EXPECT_EQ(metrics::Registry::Global()
                .GetGauge("gs_engine_records_outstanding")
                ->Value(),
            0);
}

// ---------------------------------------------------------------------------
// Full-system determinism: analytics on a view collection, multi-worker
// output must match single-worker output exactly.

struct CollectionFixture {
  PropertyGraph graph;
  views::MaterializedCollection collection;

  static CollectionFixture Windows(size_t num_views) {
    CollectionFixture f;
    TemporalGraphOptions opts;
    opts.num_nodes = 90;
    opts.num_edges = 900;
    opts.end_time = 1000;
    f.graph = GenerateTemporalGraph(opts);
    std::string text = "create view collection w on G ";
    for (size_t i = 0; i < num_views; ++i) {
      if (i) text += ", ";
      text += "[w" + std::to_string(i) + ": timestamp <= " +
              std::to_string(1000 * (i + 1) / num_views) + "]";
    }
    auto stmt = gvdl::Parse(text);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    views::MaterializeOptions mopts;
    auto mc = views::MaterializeCollection(
        f.graph, std::get<gvdl::ViewCollectionDef>(*stmt), mopts);
    EXPECT_TRUE(mc.ok()) << mc.status().ToString();
    f.collection = std::move(*mc);
    return f;
  }
};

void ExpectShardedRunsMatchSerial(const analytics::Computation& computation,
                                  const CollectionFixture& f,
                                  int weight_column = -1) {
  views::ExecutionOptions opts;
  opts.capture_results = true;
  opts.weight_column = weight_column;
  opts.dataflow.num_workers = 1;
  auto serial =
      views::RunOnCollection(computation, f.graph, f.collection, opts);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  // The last view holds the whole graph, so no case passes vacuously.
  ASSERT_FALSE(serial->results.back().empty()) << computation.name();

  for (size_t workers : {2, 4, 7}) {
    opts.dataflow.num_workers = workers;
    auto sharded =
        views::RunOnCollection(computation, f.graph, f.collection, opts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_EQ(sharded->results.size(), serial->results.size());
    for (size_t t = 0; t < serial->results.size(); ++t) {
      EXPECT_EQ(sharded->results[t], serial->results[t])
          << computation.name() << " with " << workers
          << " workers diverges on view " << t;
    }
    // The per-view difference sets match too (same diffs, not just the
    // same accumulated state).
    for (size_t t = 0; t < serial->per_view.size(); ++t) {
      EXPECT_EQ(sharded->per_view[t].output_diffs,
                serial->per_view[t].output_diffs)
          << computation.name() << " workers=" << workers << " view " << t;
    }
    // Every algorithm's plan probes shared arrangements.
    EXPECT_GT(sharded->engine_stats.arrangement_shares, 0u)
        << computation.name() << " workers=" << workers;
  }
}

TEST(ShardedDeterminismTest, Wcc) {
  CollectionFixture f = CollectionFixture::Windows(5);
  ExpectShardedRunsMatchSerial(analytics::Wcc(), f);
}

TEST(ShardedDeterminismTest, PageRank) {
  CollectionFixture f = CollectionFixture::Windows(5);
  ExpectShardedRunsMatchSerial(analytics::PageRank(6), f);
}

TEST(ShardedDeterminismTest, BellmanFord) {
  CollectionFixture f = CollectionFixture::Windows(5);
  int weight_col = f.graph.FindWeightColumn("weight");
  ASSERT_GE(weight_col, 0);
  VertexId source = f.graph.edge(0).src;
  ExpectShardedRunsMatchSerial(analytics::BellmanFord(source), f, weight_col);
}

TEST(ShardedDeterminismTest, Bfs) {
  CollectionFixture f = CollectionFixture::Windows(4);
  ExpectShardedRunsMatchSerial(analytics::Bfs(f.graph.edge(0).src), f);
}

TEST(ShardedDeterminismTest, Scc) {
  CollectionFixture f = CollectionFixture::Windows(4);
  ExpectShardedRunsMatchSerial(analytics::Scc(), f);
}

TEST(ShardedDeterminismTest, Mpsp) {
  CollectionFixture f = CollectionFixture::Windows(4);
  int weight_col = f.graph.FindWeightColumn("weight");
  ASSERT_GE(weight_col, 0);
  analytics::Mpsp mpsp({{f.graph.edge(0).src, f.graph.edge(1).dst},
                        {f.graph.edge(2).src, f.graph.edge(3).dst}});
  ExpectShardedRunsMatchSerial(mpsp, f, weight_col);
}

}  // namespace
}  // namespace gs::differential
