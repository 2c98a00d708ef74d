// Microbenchmarks (google-benchmark) of the differential engine's
// primitives and the view-materialization kernels, plus a deterministic
// end-to-end engine workload whose per-operator timings and trace gauges
// are printed and written to BENCH_micro_differential.json.
#include <benchmark/benchmark.h>

#include "algorithms/algorithms.h"
#include "bench_util.h"
#include "common/hash.h"
#include "common/random.h"
#include "differential/arrcache.h"
#include "differential/differential.h"
#include "graph/generators.h"
#include "graph/mutation.h"
#include "gvdl/parser.h"
#include "gvdl/predicate.h"
#include "ordering/optimizer.h"
#include "views/collection.h"
#include "views/ebm.h"
#include "views/executor.h"
#include "views/live.h"

namespace gs {
namespace {

namespace dd = ::gs::differential;

void BM_Consolidate(benchmark::State& state) {
  Rng rng(1);
  dd::Batch<int64_t> base(state.range(0));
  for (auto& u : base) {
    u.data = rng.Uniform(0, state.range(0) / 2);
    u.diff = rng.Bernoulli(0.5) ? 1 : -1;
  }
  for (auto _ : state) {
    dd::Batch<int64_t> batch = base;
    dd::Consolidate(&batch);
    benchmark::DoNotOptimize(batch.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Consolidate)->Arg(1024)->Arg(65536);

void BM_TraceInsertAccumulate(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    dd::Trace<uint64_t, int64_t> trace;
    for (int64_t i = 0; i < state.range(0); ++i) {
      trace.Insert(rng.Index(256), i, dd::Time(0), 1);
    }
    dd::Batch<int64_t> out;
    trace.Accumulate(0, dd::Time(1), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceInsertAccumulate)->Arg(4096);

void BM_JoinThroughput(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    dd::Dataflow df;
    dd::Input<std::pair<uint64_t, int64_t>> left(&df);
    dd::Input<std::pair<uint64_t, int64_t>> right(&df);
    auto joined = dd::Join(
        left.stream(), right.stream(),
        [](const uint64_t& k, const int64_t& a, const int64_t& b) {
          return std::make_pair(k, a + b);
        });
    dd::Capture(joined);
    for (int64_t i = 0; i < n; ++i) {
      left.Send({static_cast<uint64_t>(i % 1024), i}, 1);
      right.Send({static_cast<uint64_t>(i % 1024), i}, 1);
    }
    benchmark::DoNotOptimize(df.Step().ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_JoinThroughput)->Arg(8192);

void BM_ReduceMinThroughput(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  for (auto _ : state) {
    dd::Dataflow df;
    dd::Input<std::pair<uint64_t, int64_t>> in(&df);
    dd::Capture(dd::ReduceMin(in.stream()));
    for (int64_t i = 0; i < n; ++i) {
      in.Send({rng.Index(1024), i}, 1);
    }
    benchmark::DoNotOptimize(df.Step().ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReduceMinThroughput)->Arg(8192);

void BM_BfsFixpoint(benchmark::State& state) {
  PropertyGraph g = GenerateUniformGraph(2000, state.range(0), 7);
  analytics::Bfs bfs(g.edge(0).src);
  for (auto _ : state) {
    dd::Dataflow df;
    dd::Input<WeightedEdge> edges(&df);
    dd::Capture(bfs.GraphAnalytics(edges.stream()));
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      edges.Send(g.ResolveWeighted(e, -1), 1);
    }
    benchmark::DoNotOptimize(df.Step().ok());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_BfsFixpoint)->Arg(10000);

void BM_IncrementalBfsStep(benchmark::State& state) {
  PropertyGraph g = GenerateUniformGraph(2000, 10000, 7);
  analytics::Bfs bfs(g.edge(0).src);
  dd::Dataflow df;
  dd::Input<WeightedEdge> edges(&df);
  dd::Capture(bfs.GraphAnalytics(edges.stream()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    edges.Send(g.ResolveWeighted(e, -1), 1);
  }
  benchmark::DoNotOptimize(df.Step().ok());
  Rng rng(9);
  for (auto _ : state) {
    // One random edge swap per version.
    EdgeId victim = rng.Index(g.num_edges());
    edges.Send(g.ResolveWeighted(victim, -1), -1);
    benchmark::DoNotOptimize(df.Step().ok());
    edges.Send(g.ResolveWeighted(victim, -1), 1);
    benchmark::DoNotOptimize(df.Step().ok());
  }
}
BENCHMARK(BM_IncrementalBfsStep)->Iterations(200);

void BM_EbmHammingDistance(benchmark::State& state) {
  Rng rng(4);
  views::EdgeBooleanMatrix ebm(state.range(0), 8);
  for (EdgeId e = 0; e < static_cast<EdgeId>(state.range(0)); ++e) {
    for (size_t v = 0; v < 8; ++v) ebm.Set(e, v, rng.Bernoulli(0.3));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebm.HammingDistance(i % 8, (i + 3) % 8));
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EbmHammingDistance)->Arg(1 << 20);

void BM_ChristofidesOrdering(benchmark::State& state) {
  Rng rng(5);
  views::EdgeBooleanMatrix ebm(20000, state.range(0));
  for (EdgeId e = 0; e < 20000; ++e) {
    for (int64_t v = 0; v < state.range(0); ++v) {
      ebm.Set(e, v, rng.Bernoulli(0.3));
    }
  }
  for (auto _ : state) {
    auto result = ordering::OrderCollection(ebm, nullptr);
    benchmark::DoNotOptimize(result.difference_count);
  }
}
BENCHMARK(BM_ChristofidesOrdering)->Arg(16)->Arg(64);

// Single-graph analytics through the process-level arrangement cache
// (differential/arrcache.h): cold runs clear the cache and pay the full
// arrangement build every iteration; warm runs seed their traces from the
// shared snapshot. The gap is what concurrent serving sessions on the same
// graph save after the first run.
void BM_ArrangementCacheColdRun(benchmark::State& state) {
  PropertyGraph g = GenerateUniformGraph(
      static_cast<size_t>(state.range(0)),
      static_cast<size_t>(state.range(0)) * 4, 9);
  analytics::Wcc wcc;
  views::ExecutionOptions eo;
  eo.capture_results = true;
  eo.arrangement_cache_scope = "bench-cold/g@0";
  for (auto _ : state) {
    dd::ArrangementCache::Global().Clear();
    auto r = views::RunOnGraph(wcc, g, eo);
    GS_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r.value().size());
  }
  dd::ArrangementCache::Global().Clear();
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_ArrangementCacheColdRun)->Arg(2000);

void BM_ArrangementCacheWarmRun(benchmark::State& state) {
  PropertyGraph g = GenerateUniformGraph(
      static_cast<size_t>(state.range(0)),
      static_cast<size_t>(state.range(0)) * 4, 9);
  analytics::Wcc wcc;
  views::ExecutionOptions eo;
  eo.capture_results = true;
  eo.arrangement_cache_scope = "bench-warm/g@0";
  dd::ArrangementCache::Global().Clear();
  GS_CHECK(views::RunOnGraph(wcc, g, eo).ok());  // prime the entry
  for (auto _ : state) {
    auto r = views::RunOnGraph(wcc, g, eo);
    GS_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r.value().size());
  }
  dd::ArrangementCache::Global().Clear();
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_ArrangementCacheWarmRun)->Arg(2000);

// ---------------------------------------------------------------------------
// Deterministic end-to-end engine workload. Unlike the micros above this
// runs a fixed seed/shape every time, so its wall time, join throughput, and
// per-operator breakdown are comparable across commits (the JSON is the
// perf-trajectory record; see bench/run_all.sh).

void RunEngineWorkload(bench::BenchReport* report) {
  const size_t kNodes = 8000;
  const size_t kEdges = 40000;
  const size_t kViews = 10;
  PropertyGraph graph = GeneratePowerLawGraph(kNodes, kEdges, 1.15, 33);
  auto batches = bench::RandomPerturbationBatches(graph, kViews, 40, 40, 17);
  auto mc =
      views::CollectionFromDiffBatches("micro", "g", std::move(batches));
  report->Meta()
      .Int("nodes", kNodes)
      .Int("edges", kEdges)
      .Int("views", kViews);

  struct Algo {
    const char* name;
    std::unique_ptr<analytics::Computation> computation;
  };
  std::vector<Algo> algos;
  algos.push_back({"WCC", std::make_unique<analytics::Wcc>()});
  algos.push_back(
      {"BFS", std::make_unique<analytics::Bfs>(graph.edge(0).src)});
  algos.push_back({"PR", std::make_unique<analytics::PageRank>(8)});

  bench::PrintHeader("engine workload: per-operator breakdown (diff-only)");
  for (size_t workers : {size_t{1}, size_t{4}}) {
    for (const Algo& algo : algos) {
      views::ExecutionOptions options;
      options.strategy = splitting::Strategy::kDiffOnly;
      options.dataflow.num_workers = workers;
      Timer timer;
      auto result = views::RunOnCollection(*algo.computation, graph, mc,
                                           options);
      GS_CHECK(result.ok()) << result.status().ToString();
      double seconds = timer.Seconds();
      const differential::DataflowStats& s = result->engine_stats;

      std::printf("\n%s W=%zu: %.3fs | %llu join matches (%.2fM/s) | "
                  "%llu updates | %llu reduce evals | %llu arrangement "
                  "shares | %llu trace entries in %llu spine batches\n",
                  algo.name, workers, seconds,
                  static_cast<unsigned long long>(s.join_matches),
                  seconds > 0
                      ? static_cast<double>(s.join_matches) / seconds / 1e6
                      : 0,
                  static_cast<unsigned long long>(s.updates_published),
                  static_cast<unsigned long long>(s.reduce_evaluations),
                  static_cast<unsigned long long>(s.arrangement_shares),
                  static_cast<unsigned long long>(s.trace_entries),
                  static_cast<unsigned long long>(s.trace_spine_batches));
      uint64_t total_nanos = 0;
      for (const auto& [op, nanos] : s.op_nanos) total_nanos += nanos;
      for (const auto& [op, nanos] : s.op_nanos) {
        std::printf("  %-16s %8.1fms  (%4.1f%%)\n", op.c_str(),
                    static_cast<double>(nanos) / 1e6,
                    total_nanos > 0 ? 100.0 * static_cast<double>(nanos) /
                                          static_cast<double>(total_nanos)
                                    : 0);
        report->AddRow()
            .Str("row", "op_time")
            .Str("algo", algo.name)
            .Int("workers", workers)
            .Str("op", op)
            .Int("nanos", nanos);
      }
      report->AddRow()
          .Str("row", "engine")
          .Str("algo", algo.name)
          .Int("workers", workers)
          .Num("seconds", seconds)
          .Int("join_matches", s.join_matches)
          .Num("join_matches_per_s",
               seconds > 0 ? static_cast<double>(s.join_matches) / seconds
                           : 0)
          .Int("updates_published", s.updates_published)
          .Int("reduce_evaluations", s.reduce_evaluations)
          .Int("arrangement_shares", s.arrangement_shares)
          .Int("trace_entries", s.trace_entries)
          .Int("trace_spine_batches", s.trace_spine_batches);
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming-ingest workload: a 10-view hash-predicate collection over a
// 40k-edge graph, hit with 1% mutation batches. Compares the incremental
// path (ApplyMutationBatch + UpdateCollectionForMutations +
// LiveRun::AdvanceEpoch) against a full rematerialize + batch recompute on
// the post-mutation graph. The ISSUE acceptance bar is >= 5x.

MutationBatch IngestBatch(const PropertyGraph& g, uint64_t epoch,
                          size_t mutations) {
  Rng rng(4000 + epoch);
  MutationBatch b;
  auto keep_if_valid = [&](Mutation m) {
    b.push_back(std::move(m));
    if (!CheckMutationBatch(g, b).ok()) b.pop_back();
  };
  const uint64_t n = g.num_nodes();
  const uint64_t m = g.num_edges();
  for (size_t i = 0; i < mutations / 2; ++i) {
    keep_if_valid(Mutation::RemoveEdge(rng.Index(m)));
  }
  for (size_t i = 0; i < mutations / 2; ++i) {
    keep_if_valid(Mutation::AddEdge(rng.Index(n), rng.Index(n), {}));
  }
  return b;
}

void RunIngestWorkload(bench::BenchReport* report) {
  const size_t kNodes = 8000;
  const size_t kEdges = 40000;
  const size_t kViews = 10;
  const size_t kEpochs = 3;
  PropertyGraph graph = GeneratePowerLawGraph(kNodes, kEdges, 1.15, 33);

  // Nested hash views: edge e belongs to view t iff Mix64(e) lands under
  // the view's per-mille threshold, so view t+1 contains view t. The 1‰
  // steps keep consecutive views similar (the regime view collections are
  // built for): each δC_t is ~0.1% of the edges, so the mutation batch —
  // not the view deltas — dominates the incremental epoch's input.
  std::vector<std::string> names;
  std::vector<std::function<bool(EdgeId)>> preds;
  for (size_t t = 0; t < kViews; ++t) {
    names.push_back("h" + std::to_string(t));
    const uint64_t threshold = 500 + 1 * t;
    preds.push_back(
        [threshold](EdgeId e) { return Mix64(e) % 1000 < threshold; });
  }

  views::MaterializeOptions mopts;
  auto col = views::MaterializeCollectionWith(graph, "ingest", names, preds,
                                              mopts);
  GS_CHECK(col.ok()) << col.status().ToString();
  views::MaterializedCollection mc = std::move(col).value();

  analytics::Wcc wcc;
  views::LiveRunOptions lopts;
  lopts.weight_column = -1;
  lopts.dataflow.num_workers = 1;
  auto live = views::LiveRun::Start(wcc, graph, &mc, lopts);
  GS_CHECK(live.ok()) << live.status().ToString();

  bench::PrintHeader(
      "ingest workload: incremental epoch vs full recompute (WCC, 10 views)");
  const size_t batch_size = graph.num_edges() / 100;  // 1% of edges
  double total_incremental = 0;
  double total_scratch = 0;
  for (uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    MutationBatch batch = IngestBatch(graph, epoch, batch_size);

    Timer inc_timer;
    MutationEffects effects;
    Status s = ApplyMutationBatch(&graph, batch, &effects);
    GS_CHECK(s.ok()) << s.ToString();
    double apply_seconds = inc_timer.Seconds();
    s = views::UpdateCollectionForMutations(&mc, graph,
                                            effects.touched_edges);
    GS_CHECK(s.ok()) << s.ToString();
    double maintain_seconds = inc_timer.Seconds() - apply_seconds;
    s = live.value()->AdvanceEpoch(effects.touched_edges);
    GS_CHECK(s.ok()) << s.ToString();
    double inc_seconds = inc_timer.Seconds();
    double advance_seconds = inc_seconds - apply_seconds - maintain_seconds;

    // Full recompute on the post-mutation graph: rematerialize all views,
    // then run the same computation over the whole collection.
    Timer scratch_timer;
    auto fresh = views::MaterializeCollectionWith(graph, "scratch", names,
                                                 preds, mopts);
    GS_CHECK(fresh.ok()) << fresh.status().ToString();
    views::ExecutionOptions eo;
    eo.strategy = splitting::Strategy::kDiffOnly;
    eo.dataflow.num_workers = 1;
    auto scratch = views::RunOnCollection(wcc, graph, fresh.value(), eo);
    GS_CHECK(scratch.ok()) << scratch.status().ToString();
    double scratch_seconds = scratch_timer.Seconds();

    total_incremental += inc_seconds;
    total_scratch += scratch_seconds;
    std::printf("epoch %llu: %zu mutations | incremental %.4fs "
                "(apply %.4f, maintain %.4f, advance %.4f) | "
                "scratch %.4fs | speedup %.1fx\n",
                static_cast<unsigned long long>(epoch), batch.size(),
                inc_seconds, apply_seconds, maintain_seconds,
                advance_seconds, scratch_seconds,
                inc_seconds > 0 ? scratch_seconds / inc_seconds : 0);
    report->AddRow()
        .Str("row", "ingest_epoch")
        .Int("epoch", epoch)
        .Int("mutations", batch.size())
        .Num("incremental_seconds", inc_seconds)
        .Num("scratch_seconds", scratch_seconds)
        .Num("speedup",
             inc_seconds > 0 ? scratch_seconds / inc_seconds : 0);
  }
  double overall =
      total_incremental > 0 ? total_scratch / total_incremental : 0;
  std::printf("overall: incremental %.4fs vs scratch %.4fs -> %.1fx "
              "(target >= 5x)\n",
              total_incremental, total_scratch, overall);
  report->AddRow()
      .Str("row", "ingest_overall")
      .Num("incremental_seconds", total_incremental)
      .Num("scratch_seconds", total_scratch)
      .Num("speedup", overall);
}

// ---------------------------------------------------------------------------
// EBM build: the vectorized batch evaluator (GVDL predicates lowered to
// 64-edge mask programs, gvdl/batch_eval.h) against the per-edge scalar
// compiler driving ComputeWith. Same 1M-edge graph, same 32 nested-threshold
// predicates; the two matrices must be bit-identical, and the batch path is
// expected to win by >= 2x (the ISSUE acceptance bar).

void RunEbmBuildWorkload(bench::BenchReport* report) {
  const size_t kNodes = 100000;
  const size_t kEdges = 1000000;
  const size_t kViews = 32;
  // Columns must exist before rows, so the graph is built by hand with
  // Zipf-ish endpoint popularity rather than via GeneratePowerLawGraph
  // (whose weight:int column can't be extended after the fact).
  Rng rng(33);
  PropertyGraph graph;
  graph.AddNodes(kNodes);
  auto& ep = graph.edge_properties();
  GS_CHECK(ep.AddColumn("duration", PropertyType::kInt).ok());
  GS_CHECK(ep.AddColumn("weight", PropertyType::kDouble).ok());
  auto endpoint = [&] {
    // Squaring a uniform draw skews popularity toward low node ids.
    double u = rng.UniformReal(0, 1);
    auto v = static_cast<VertexId>(u * u * kNodes);
    return v < kNodes ? v : kNodes - 1;
  };
  for (size_t i = 0; i < kEdges; ++i) {
    GS_CHECK(graph.AddEdge(endpoint(), endpoint()).ok());
    GS_CHECK(ep.AppendRow({PropertyValue(rng.Uniform(0, 63)),
                           PropertyValue(rng.UniformReal(0, 1))})
                 .ok());
  }

  // Nested views: view t keeps edges with duration <= 2t+1, half also
  // gated on weight, so consecutive views stay similar.
  std::vector<gvdl::ExprPtr> exprs;
  for (size_t t = 0; t < kViews; ++t) {
    std::string text = "duration <= " + std::to_string(2 * t + 1);
    if (t % 2 == 1) text += " and weight > 0.25";
    auto expr = gvdl::ParsePredicate(text);
    GS_CHECK(expr.ok()) << expr.status().ToString();
    exprs.push_back(*expr);
  }

  bench::PrintHeader("EBM build: batch mask programs vs per-edge predicates");
  Timer batch_timer;
  auto batch_ebm = views::EdgeBooleanMatrix::Compute(graph, exprs, nullptr);
  GS_CHECK(batch_ebm.ok()) << batch_ebm.status().ToString();
  double batch_seconds = batch_timer.Seconds();

  std::vector<std::function<bool(EdgeId)>> preds;
  for (const gvdl::ExprPtr& expr : exprs) {
    auto compiled = gvdl::CompiledEdgePredicate::Compile(expr, graph);
    GS_CHECK(compiled.ok()) << compiled.status().ToString();
    preds.push_back(
        [c = std::move(compiled).value()](EdgeId e) { return c.Evaluate(e); });
  }
  Timer scalar_timer;
  views::EdgeBooleanMatrix scalar_ebm =
      views::EdgeBooleanMatrix::ComputeWith(graph, preds, nullptr);
  double scalar_seconds = scalar_timer.Seconds();

  // Identical masks or the speedup is meaningless.
  for (size_t v = 0; v < kViews; ++v) {
    for (size_t w = 0; w < batch_ebm->words_per_column(); ++w) {
      GS_CHECK(batch_ebm->ColumnWord(v, w) == scalar_ebm.ColumnWord(v, w))
          << "EBM mismatch at view " << v << " word " << w;
    }
  }

  double speedup = batch_seconds > 0 ? scalar_seconds / batch_seconds : 0;
  std::printf("%zu edges x %zu views: batch %.4fs | scalar %.4fs | "
              "%.1fx (target >= 2x)\n",
              kEdges, kViews, batch_seconds, scalar_seconds, speedup);
  report->AddRow()
      .Str("row", "ebm_build")
      .Str("path", "batch")
      .Int("edges", kEdges)
      .Int("views", kViews)
      .Num("seconds", batch_seconds);
  report->AddRow()
      .Str("row", "ebm_build")
      .Str("path", "scalar_reference")
      .Int("edges", kEdges)
      .Int("views", kViews)
      .Num("seconds", scalar_seconds)
      .Num("speedup", speedup);
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gs::bench::BenchReport report("micro_differential");
  gs::RunEngineWorkload(&report);
  gs::RunIngestWorkload(&report);
  gs::RunEbmBuildWorkload(&report);
  report.Write();
  return 0;
}
