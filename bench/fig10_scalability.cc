// Reproduces Figure 10 (paper §7.6): scalability of BFS, WCC, and PageRank
// on a Twitter-analog social network with city/state/country attributes and
// affinity-weighted edges, over the paper's 9-view collection (3 geography
// levels × 3 affinity thresholds).
//
// The engine runs each view collection on a real multi-worker sharded
// dataflow (differential/sharded.h): W worker shards with hash-partitioned
// keyed state, exchanged at join/reduce boundaries, executing on W threads.
// Substitution note (DESIGN.md §5): the paper scales across 1–12 machines;
// here the workers are threads of one process. Per worker count W we report:
//   measured  — wall time of the W-worker run;
//   speedup   — measured T(1) / T(W);
//   skew      — max(events_w) / mean(events_w) over the per-shard scheduler
//               event counts of the same run, the load-balance loss.
// The sweep stops at W = 4: with more worker threads than cores the threads
// timeshare, and the wall time measures the OS scheduler, not the engine.
#include "bench_util.h"

namespace gs::bench {
namespace {

void Run(BenchReport* report) {
  SocialNetworkOptions sopts;
  sopts.num_nodes = 8000;
  sopts.num_edges = 40000;
  PropertyGraph graph = GenerateSocialNetwork(sopts);
  VertexId source = FirstSource(graph);

  Graphsurge system;
  GS_CHECK(system.AddGraph("tw", std::move(graph)).ok());
  // 9 views: same-{city,state,country} × affinity ≥ {2,1,0}.
  std::string q = "create view collection geo on tw ";
  size_t i = 0;
  for (const char* level : {"city", "state", "country"}) {
    for (int affinity = 2; affinity >= 0; --affinity) {
      if (i) q += ", ";
      q += "[v" + std::to_string(i) + ": src." + level + " = dst." + level +
           " and affinity >= " + std::to_string(affinity) + "]";
      ++i;
    }
  }
  GS_CHECK(system.Execute(q).ok());
  auto mc = system.GetCollection("geo");
  GS_CHECK(mc.ok());

  PrintHeader("Figure 10: scalability (sharded workers; see header note)");
  std::printf("graph: %zu nodes, %zu edges; collection: %zu views, %s total "
              "diffs\n",
              sopts.num_nodes, sopts.num_edges, (*mc)->num_views(),
              Count((*mc)->total_diffs).c_str());
  report->Meta()
      .Int("nodes", sopts.num_nodes)
      .Int("edges", sopts.num_edges)
      .Int("views", (*mc)->num_views())
      .Int("total_diffs", (*mc)->total_diffs);
  const std::vector<int> widths = {10, 9, 11, 10, 10};
  PrintRow({"algo", "workers", "measured", "speedup", "skew"}, widths);

  struct Algo {
    const char* name;
    std::unique_ptr<analytics::Computation> computation;
  };
  std::vector<Algo> algos;
  algos.push_back({"BFS", std::make_unique<analytics::Bfs>(source)});
  algos.push_back({"WCC", std::make_unique<analytics::Wcc>()});
  algos.push_back({"PageRank", std::make_unique<analytics::PageRank>(8)});

  for (const Algo& algo : algos) {
    double t1 = 0;
    for (size_t workers : {1, 2, 4}) {
      views::ExecutionOptions options;
      options.strategy = splitting::Strategy::kDiffOnly;
      options.dataflow.num_workers = workers;
      Timer timer;
      auto result = system.RunComputation(*algo.computation, "geo", options);
      GS_CHECK(result.ok()) << result.status().ToString();
      double measured = timer.Seconds();
      if (workers == 1) t1 = measured;

      const auto& events = result->per_worker_events;
      uint64_t total = 0, max_shard = 0;
      for (uint64_t e : events) {
        total += e;
        max_shard = std::max(max_shard, e);
      }
      double skew = total == 0 ? 1.0
                               : static_cast<double>(max_shard) *
                                     static_cast<double>(events.size()) /
                                     static_cast<double>(total);
      char skew_buf[16];
      std::snprintf(skew_buf, sizeof(skew_buf), "%.2f", skew);
      PrintRow({algo.name, std::to_string(workers), Secs(measured),
                Factor(t1, measured), skew_buf},
               widths);
      report->AddRow()
          .Str("algo", algo.name)
          .Int("workers", workers)
          .Num("measured_s", measured)
          .Num("skew", skew)
          .Int("join_matches", result->engine_stats.join_matches);
    }
  }
}

}  // namespace
}  // namespace gs::bench

int main() {
  gs::bench::BenchReport report("fig10_scalability");
  gs::bench::Run(&report);
  report.Write();
  return 0;
}
