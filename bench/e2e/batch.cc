// Batch workloads: one GVDL statement defining a view collection, then WCC,
// BFS and PageRank over every view, differentially.
//
//   csim_w1  Fig 6's Csim at w=1/32: 17 expanding time windows over a
//            temporal graph, user order, one worker.
//   geo_w4   Fig 10's 9-view geography × affinity collection over a social
//            graph, ordering optimizer on, four workers.
//
// A request is GVDL text → every per-view result. Each request runs on a
// freshly set-up system, so collections do not pile up and memory does not
// grow with the number of requests completed.
//
// The strategy is diff-only rather than adaptive: the adaptive splitter
// decides from wall-clock measurements, so on a host with noisy neighbours
// identical requests flip between plans (PageRank on csim_w1: 10 or 15
// splits, about 450 or 300 ms) and the run-to-run spread grows from about
// 7% to 12%.
#include <array>
#include <variant>

#include "algorithms/algorithms.h"
#include "api/graphsurge.h"
#include "e2e.h"
#include "graph/csv.h"
#include "graph/generators.h"
#include "gvdl/parser.h"
#include "views/collection.h"
#include "views/executor.h"

namespace gs::bench::e2e {
namespace {

using analytics::ResultMap;

constexpr size_t kAlgos = 3;
constexpr const char* kAlgoNames[kAlgos] = {"wcc", "bfs", "pr"};

struct BatchConfig {
  bool csim = true;  // false → geo
  size_t nodes = 0;
  size_t edges = 0;
  size_t workers = 1;
  bool order_collections = false;
  uint32_t pr_iterations = 5;
};

BatchConfig ConfigFor(const Args& args) {
  BatchConfig c;
  if (args.workload == "csim_w1") {
    c.csim = true;
    c.nodes = args.smoke ? 200 : 1000;
    c.edges = args.smoke ? 800 : 5000;
    c.workers = 1;
    c.order_collections = false;
    c.pr_iterations = 5;
  } else {
    c.csim = false;
    c.nodes = args.smoke ? 200 : 1000;
    c.edges = args.smoke ? 800 : 5000;
    c.workers = 4;
    c.order_collections = true;
    c.pr_iterations = 8;
  }
  return c;
}

/// The generated inputs plus, per view definition, an independent
/// membership test used to build the reference results.
struct BatchInput {
  PropertyGraph graph;
  std::string gvdl;
  std::vector<std::function<bool(const PropertyGraph&, EdgeId)>> members;
  VertexId source = 0;
};

int64_t IntProperty(const PropertyTable& table, const char* column,
                    size_t row) {
  return table.column(table.ColumnIndex(column).value()).GetInt(row);
}

BatchInput MakeInput(const BatchConfig& c, uint64_t seed) {
  BatchInput in;
  in.gvdl = "create view collection c on g ";
  if (c.csim) {
    constexpr int64_t kEnd = 1000000;
    TemporalGraphOptions o;
    o.num_nodes = c.nodes;
    o.num_edges = c.edges;
    o.end_time = kEnd;
    o.seed = seed;
    in.graph = GenerateTemporalGraph(o);
    // The first window covers [0, end/2]; each later one extends it by
    // end/32, up to the full range: 17 views.
    size_t i = 0;
    for (int64_t hi = kEnd / 2; hi <= kEnd; hi += kEnd / 32, ++i) {
      if (i) in.gvdl += ", ";
      in.gvdl += "[w" + std::to_string(i) +
                 ": timestamp <= " + std::to_string(hi) + "]";
      in.members.push_back([hi](const PropertyGraph& g, EdgeId e) {
        return IntProperty(g.edge_properties(), "timestamp", e) <= hi;
      });
    }
  } else {
    SocialNetworkOptions o;
    o.num_nodes = c.nodes;
    o.num_edges = c.edges;
    o.seed = seed;
    in.graph = GenerateSocialNetwork(o);
    // Same-{city,state,country} × affinity ≥ {2,1,0}: 9 views.
    size_t i = 0;
    for (const char* level : {"city", "state", "country"}) {
      for (int64_t affinity = 2; affinity >= 0; --affinity, ++i) {
        if (i) in.gvdl += ", ";
        in.gvdl += "[v" + std::to_string(i) + ": src." + level + " = dst." +
                   level + " and affinity >= " + std::to_string(affinity) +
                   "]";
        in.members.push_back([level, affinity](const PropertyGraph& g,
                                               EdgeId e) {
          const Edge& edge = g.edge(e);
          return IntProperty(g.node_properties(), level, edge.src) ==
                     IntProperty(g.node_properties(), level, edge.dst) &&
                 IntProperty(g.edge_properties(), "affinity", e) >= affinity;
        });
      }
    }
  }
  in.source = in.graph.num_edges() > 0 ? in.graph.edge(0).src : 0;
  return in;
}

/// Per algorithm, the result of every view in *definition* order.
using Results = std::array<std::vector<ResultMap>, kAlgos>;

Results ReferenceResults(const BatchInput& in, const BatchConfig& c) {
  Results expected;
  for (const auto& member : in.members) {
    std::vector<WeightedEdge> edges;
    for (EdgeId e = 0; e < in.graph.num_edges(); ++e) {
      if (member(in.graph, e)) {
        edges.push_back({in.graph.edge(e).src, in.graph.edge(e).dst, 1});
      }
    }
    expected[0].push_back(analytics::WccReference(edges));
    expected[1].push_back(analytics::BfsReference(edges, in.source));
    expected[2].push_back(
        analytics::PageRankReference(edges, c.pr_iterations));
  }
  return expected;
}

struct Computations {
  analytics::Wcc wcc;
  analytics::Bfs bfs;
  analytics::PageRank pr;

  Computations(VertexId source, uint32_t pr_iterations)
      : bfs(source), pr(pr_iterations) {}
  std::array<const analytics::Computation*, kAlgos> all() const {
    return {&wcc, &bfs, &pr};
  }
};

/// One request's outcome: results per algorithm in execution order, and
/// the execution order (position → definition index) to map them back.
struct Outcome {
  bool ok = false;
  double ms = 0;
  std::vector<size_t> order;
  Results results;
};

/// dataflow.num_workers = 0 asks RunComputation for the system's
/// num_workers; ExecutionOptions' default (1) would run geo_w4's engine on
/// one worker.
views::ExecutionOptions RunOptions() {
  views::ExecutionOptions eo;
  eo.strategy = splitting::Strategy::kDiffOnly;
  eo.capture_results = true;
  eo.dataflow.num_workers = 0;
  return eo;
}

std::unique_ptr<Graphsurge> NewSystem(const BatchConfig& c) {
  GraphsurgeOptions go;
  go.num_workers = c.workers;
  go.order_collections = c.order_collections;
  return std::make_unique<Graphsurge>(go);
}

/// The user path: Graphsurge::Execute, then RunComputation per algorithm.
Outcome RequestViaApi(Graphsurge* system, const BatchInput& in,
                      const Computations& comps) {
  Outcome out;
  Timer timer;
  Status s = system->Execute(in.gvdl);
  if (!s.ok()) {
    std::fprintf(stderr, "Execute failed: %s\n", s.ToString().c_str());
    return out;
  }
  for (size_t a = 0; a < kAlgos; ++a) {
    auto result = system->RunComputation(*comps.all()[a], "c", RunOptions());
    if (!result.ok()) {
      std::fprintf(stderr, "RunComputation failed: %s\n",
                   result.status().ToString().c_str());
      return out;
    }
    out.results[a] = std::move(result->results);
  }
  out.ms = timer.Millis();
  out.order = system->GetCollection("c").value()->order;
  out.ok = true;
  return out;
}

/// The same request, one layer at a time: gvdl::ParseScript →
/// views::MaterializeCollection → views::RunOnCollection per algorithm, on
/// `graph` as loaded from the CSV files.
Outcome RequestViaLayers(const BatchInput& in, const PropertyGraph& graph,
                         const BatchConfig& c,
                         const Computations& comps, ThreadPool* pool,
                         SpanLog* log, uint64_t request,
                         LayerTotals* totals) {
  Outcome out;
  auto& sums = totals->sums;
  const uint64_t start = NowNs();
  double stage_ms = 0;

  StatusOr<std::vector<gvdl::Statement>> parsed = Status::Internal("unset");
  const double parse_ms = log->Time("gvdl.parse", request, [&] {
    parsed = gvdl::ParseScript(in.gvdl);
  });
  stage_ms += parse_ms;
  sums["gvdl.parse_ms"] += parse_ms;
  if (!parsed.ok() || parsed->size() != 1) return out;
  const auto* def = std::get_if<gvdl::ViewCollectionDef>(&parsed->front());
  if (def == nullptr) return out;

  views::MaterializeOptions mopts;
  mopts.use_ordering = c.order_collections;
  mopts.pool = pool;
  StatusOr<views::MaterializedCollection> mc = Status::Internal("unset");
  const uint64_t mat_start = NowNs();
  const double mat_ms = log->Time("views.materialize", request, [&] {
    mc = views::MaterializeCollection(graph, *def, mopts);
  });
  stage_ms += mat_ms;
  sums["views.materialize_ms"] += mat_ms;
  if (!mc.ok()) return out;
  // Ordering runs inside materialization; its duration comes from the
  // collection's own measurement and is drawn at the parent's start.
  if (mc->ordering_seconds > 0) {
    log->Record("ordering.order", mat_start,
                static_cast<uint64_t>(mc->ordering_seconds * 1e9), request);
  }
  sums["ordering.order_share"] += mc->ordering_seconds * 1e3;
  totals->AddCollection(*mc);

  views::ExecutionOptions eo = RunOptions();
  eo.dataflow.num_workers = c.workers;
  for (size_t a = 0; a < kAlgos; ++a) {
    StatusOr<views::ExecutionResult> result = Status::Internal("unset");
    const uint64_t exec_start = NowNs();
    const double exec_ms = log->Time(
        std::string("views.execute.") + kAlgoNames[a], request, [&] {
          result = views::RunOnCollection(*comps.all()[a], graph, *mc, eo);
        });
    stage_ms += exec_ms;
    sums[std::string("views.execute.") + kAlgoNames[a] + "_share"] += exec_ms;
    if (!result.ok()) return out;
    // Views run one after another: lay their spans out back to back.
    uint64_t view_start = exec_start;
    for (const views::ViewRunStats& v : result->per_view) {
      const auto dur = static_cast<uint64_t>(v.seconds * 1e9);
      log->Record(v.ran_scratch ? "view.scratch" : "view.diff", view_start,
                  dur, request);
      view_start += dur;
    }
    totals->AddRun(*result);
    out.results[a] = std::move(result->results);
  }
  const uint64_t wall = NowNs() - start;
  log->Record("bench.request", start, wall, request);
  const double wall_ms = static_cast<double>(wall) / 1e6;
  const double gap_ms = std::max(0.0, wall_ms - stage_ms);
  log->Record("bench.gap", start + wall - static_cast<uint64_t>(gap_ms * 1e6),
              static_cast<uint64_t>(gap_ms * 1e6), request);
  totals->requests += 1;
  totals->stage_ms += stage_ms;
  totals->request_ms += wall_ms;
  out.ms = wall_ms;
  out.order = mc->order;
  out.ok = true;
  return out;
}

void CheckOutcome(const Outcome& got, const Results& expected,
                  const std::string& workload, Report* report) {
  for (size_t a = 0; a < kAlgos; ++a) {
    if (got.results[a].size() != got.order.size()) {
      report->Mismatch(workload + " " + kAlgoNames[a] + ": " +
                       std::to_string(got.results[a].size()) +
                       " view results for " +
                       std::to_string(got.order.size()) + " views");
      return;
    }
    for (size_t t = 0; t < got.order.size(); ++t) {
      if (got.results[a][t] != expected[a][got.order[t]]) {
        report->Mismatch(workload + " " + kAlgoNames[a] + ": view at position " +
                         std::to_string(t) + " (definition " +
                         std::to_string(got.order[t]) +
                         ") differs from the sequential reference");
        return;
      }
    }
  }
}

}  // namespace

void RunBatchWorkload(const Args& args, Report* report) {
  const BatchConfig c = ConfigFor(args);
  TempDir dir(args.work_dir);
  if (dir.path().empty()) {
    report->Mismatch("cannot create a scratch directory under " +
                     args.work_dir);
    return;
  }
  const BatchInput in = MakeInput(c, args.seed);
  const std::string nodes_csv = dir.path() + "/nodes.csv";
  const std::string edges_csv = dir.path() + "/edges.csv";
  GS_CHECK(WriteGraphToCsv(in.graph, nodes_csv, edges_csv).ok());

  // Set-up: construct the system and load the graph from CSV. Every timed
  // request starts from a fresh set-up too (its time counts toward setup_s,
  // not toward the request), so collections do not pile up across requests.
  SetupTimes setups;
  // The system starts its worker threads in its constructor, so only the
  // load is pinned; at W=1 so is the whole request, which starts none.
  CpuRotation setup_cpus;
  CpuRotation request_cpus;
  CpuRotation* const pin_requests = c.workers == 1 ? &request_cpus : nullptr;
  const std::function<std::unique_ptr<Graphsurge>()> load = [&] {
    auto s = NewSystem(c);
    CpuRotation::Pinned pin(&setup_cpus);
    Status st = s->LoadGraphCsv("g", nodes_csv, edges_csv);
    GS_CHECK(st.ok()) << st.ToString();
    return s;
  };
  std::unique_ptr<Graphsurge> system;
  setups.Repeat(load, &system);
  const Results expected = ReferenceResults(in, c);
  const Computations comps(in.source, c.pr_iterations);
  report->meta = {{"nodes", static_cast<double>(c.nodes)},
                  {"edges", static_cast<double>(c.edges)},
                  {"views", static_cast<double>(in.members.size())},
                  {"workers", static_cast<double>(c.workers)}};

  // Warm-up on the set-up system: untimed, checked.
  Outcome warm = RequestViaApi(system.get(), in, comps);
  if (!warm.ok) {
    report->Mismatch(args.workload + ": warm-up request failed");
    return;
  }
  CheckOutcome(warm, expected, args.workload, report);

  // One closed-loop request through the API on a fresh set-up; adds its
  // latency, and the process CPU time it took, on success.
  double api_cpu_ms = 0;
  auto api_request = [&](std::vector<double>* latencies) {
    system.reset();
    system = setups.Time(load);
    ++report->attempted;
    CpuRotation::Pinned pin(pin_requests);
    const double cpu_before = ProcessCpuSeconds();
    Outcome o = RequestViaApi(system.get(), in, comps);
    api_cpu_ms += (ProcessCpuSeconds() - cpu_before) * 1e3;
    if (!o.ok) {
      ++report->failed;
      return;
    }
    latencies->push_back(o.ms);
    CheckOutcome(o, expected, args.workload, report);
  };

  if (!args.traced()) {
    std::vector<double> latencies;
    for (Timer phase; phase.Seconds() < args.seconds;) api_request(&latencies);
    double busy_ms = 0;
    for (double ms : latencies) busy_ms += ms;
    AddEndToEnd(report, setups.median(), latencies, busy_ms / 1e3);
    return;
  }

  // Traced run: each request goes once through the API (the overhead
  // baseline) and once layer by layer with spans, back to back, so a change
  // in host speed hits both alike. The layers get the graph as the API
  // loads it: the generated graph, with the same content, runs faster.
  const PropertyGraph loaded = LoadGraphFromCsv(nodes_csv, edges_csv).value();
  ThreadPool pool(c.workers);
  SpanLog* log = report->NewSpanLog();
  LayerTotals totals;
  std::vector<double> api_latencies;
  std::vector<double> traced_latencies;
  const auto sched_before = SchedStateNanos(c.workers);
  Timer phase;
  for (uint64_t request = 1; phase.Seconds() < args.seconds; ++request) {
    api_request(&api_latencies);
    ++report->attempted;
    CpuRotation::Pinned pin(pin_requests);
    Outcome o =
        RequestViaLayers(in, loaded, c, comps, &pool, log, request, &totals);
    if (!o.ok) {
      ++report->failed;
      continue;
    }
    traced_latencies.push_back(o.ms);
    CheckOutcome(o, expected, args.workload, report);
  }
  AddWorkerFractions(sched_before, SchedStateNanos(c.workers), &report->layer);
  AddLayerSummary(totals, report);
  AddTraceOverhead(api_latencies, traced_latencies,
                   api_latencies.empty()
                       ? 0
                       : api_cpu_ms / static_cast<double>(api_latencies.size()),
                   report);
}

}  // namespace gs::bench::e2e
