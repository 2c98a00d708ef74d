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
//               event counts of the same run, the load-balance loss;
//   busy, exch, barrier, seal, idle
//             — each scheduler state's share of the run's worker time: the
//               deltas of gs_sched_state_nanos{state, worker} across the
//               run, summed over the W workers (sched_profile.h).
// The sweep stops at W = 4: with more worker threads than cores the threads
// timeshare, and the wall time measures the OS scheduler, not the engine.
#include <array>
#include <iterator>

#include "bench_util.h"

namespace gs::bench {
namespace {

constexpr const char* kStates[] = {"busy", "exchange", "barrier", "seal",
                                   "idle"};
constexpr size_t kNumStates = std::size(kStates);

/// gs_sched_state_nanos{state, worker} per state, summed over `workers`.
std::array<uint64_t, kNumStates> StateNanos(size_t workers) {
  std::array<uint64_t, kNumStates> out{};
  for (size_t s = 0; s < kNumStates; ++s) {
    for (size_t w = 0; w < workers; ++w) {
      out[s] += metrics::Registry::Global()
                    .GetCounter("gs_sched_state_nanos",
                                {{"state", kStates[s]},
                                 {"worker", std::to_string(w)}})
                    ->Value();
    }
  }
  return out;
}

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
  const std::vector<int> widths = {10, 9, 11, 10, 8, 9};
  PrintRow({"algo", "workers", "measured", "speedup", "skew", "busy", "exch",
            "barrier", "seal", "idle"},
           widths);

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
      const auto states_before = StateNanos(workers);
      Timer timer;
      auto result = system.RunComputation(*algo.computation, "geo", options);
      GS_CHECK(result.ok()) << result.status().ToString();
      double measured = timer.Seconds();
      const auto states_after = StateNanos(workers);
      std::array<double, kNumStates> state_s{};
      double worker_s = 0;
      for (size_t s = 0; s < kNumStates; ++s) {
        state_s[s] = static_cast<double>(states_after[s] - states_before[s]) /
                     1e9;
        worker_s += state_s[s];
      }
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
      std::vector<std::string> cells = {algo.name, std::to_string(workers),
                                        Secs(measured), Factor(t1, measured),
                                        skew_buf};
      BenchReport::Row& row = report->AddRow()
                                  .Str("algo", algo.name)
                                  .Int("workers", workers)
                                  .Num("measured_s", measured)
                                  .Num("skew", skew)
                                  .Int("join_matches",
                                       result->engine_stats.join_matches)
                                  .Num("worker_s", worker_s);
      for (size_t s = 0; s < kNumStates; ++s) {
        const double share = worker_s > 0 ? state_s[s] / worker_s : 0;
        char share_buf[16];
        std::snprintf(share_buf, sizeof(share_buf), "%.2f", share);
        cells.push_back(share_buf);
        row.Num(std::string(kStates[s]) + "_frac", share);
      }
      PrintRow(cells, widths);
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
