// serve_mixed: an in-process server::QueryServer (4 request threads, one
// dataflow worker per run) driven over localhost HTTP by 4 closed-loop
// clients. A request is one script on one keep-alive connection:
//
//   open a session → create a 4-view window collection (drawn from 8 seeded
//   definitions) → run wcc on it → get results → run bfs(src) on the host
//   graph → get results → close the session.
//
// It is the only workload with HTTP, sessions, result rendering, the
// arrangement cache and concurrent requests. The collection run still
// takes about 93% of a script's time at this size, and 80% even on a
// 50-node graph: each view's WCC costs about half a millisecond of engine
// overhead, so no size lets the serving layers dominate.
#include <algorithm>
#include <thread>
#include <variant>

#include "algorithms/algorithms.h"
#include "common/hash.h"
#include "common/random.h"
#include "differential/arrcache.h"
#include "e2e.h"
#include "graph/csv.h"
#include "graph/generators.h"
#include "gvdl/parser.h"
#include "http_client.h"
#include "server/query_server.h"
#include "views/collection.h"
#include "views/executor.h"

namespace gs::bench::e2e {
namespace {

using analytics::ResultMap;

constexpr size_t kClients = 4;
constexpr size_t kDefinitions = 8;
constexpr size_t kViewsPerScript = 4;
constexpr size_t kSlices = 20;
constexpr int64_t kEnd = 1000000;

struct Window {
  int64_t lo = 0;  // lo <= timestamp <= hi
  int64_t hi = 0;
};

struct ServeInput {
  PropertyGraph graph;
  std::vector<Window> windows;
  VertexId source = 0;
};

ServeInput MakeInput(const Args& args) {
  ServeInput in;
  TemporalGraphOptions o;
  o.num_nodes = args.smoke ? 200 : 1000;
  o.num_edges = args.smoke ? 800 : 4000;
  o.end_time = kEnd;
  o.seed = args.seed;
  in.graph = GenerateTemporalGraph(o);
  // Each definition is a time window holding a quarter of the edges
  // (timestamps rise with the edge id). The windows start evenly spaced,
  // each moved by a seeded jitter of under a quarter of the spacing: how
  // much two windows overlap sets a script's diff sizes, and with the
  // spacing fixed every seed asks the server for about the same work.
  const PropertyTable& props = in.graph.edge_properties();
  const Column& ts = props.column(props.ColumnIndex("timestamp").value());
  const size_t m = in.graph.num_edges();
  const size_t spacing = (m - m / 4) / (kDefinitions - 1);
  Rng rng(Mix64(args.seed));
  for (size_t d = 0; d < kDefinitions; ++d) {
    const size_t first =
        std::min(m - m / 4, d * spacing + static_cast<size_t>(
                                              rng.Index(spacing / 4 + 1)));
    in.windows.push_back({ts.GetInt(first), ts.GetInt(first + m / 4 - 1)});
  }
  in.source = in.graph.num_edges() > 0 ? in.graph.edge(0).src : 0;
  return in;
}

/// One script's collection: which definitions, in which order.
struct Script {
  std::vector<size_t> definitions;
  std::string create;
};

Script MakeScript(const ServeInput& in, uint64_t seed, uint64_t client,
                  uint64_t n) {
  Rng rng(Mix64(seed ^ Mix64((client << 40) ^ n)));
  Script s;
  for (uint64_t d : rng.SampleDistinct(kDefinitions, kViewsPerScript)) {
    s.definitions.push_back(static_cast<size_t>(d));
  }
  rng.Shuffle(&s.definitions);
  s.create = "create view collection win on host ";
  for (size_t i = 0; i < s.definitions.size(); ++i) {
    const size_t d = s.definitions[i];
    if (i) s.create += ", ";
    s.create += "[d" + std::to_string(d) +
                ": timestamp >= " + std::to_string(in.windows[d].lo) +
                " and timestamp <= " + std::to_string(in.windows[d].hi) + "]";
  }
  return s;
}

/// `{"view": "<name>", "values": {...}}` exactly as QueryServer renders a
/// view's results.
std::string RenderView(const std::string& view, const ResultMap& values) {
  std::string out = "{\"view\": \"" + view + "\", \"values\": {";
  bool first = true;
  for (const auto& [vertex, value] : values) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += std::to_string(vertex);
    out += "\": ";
    out += std::to_string(value);
  }
  return out + "}}";
}

std::string ResultsBody(const std::string& target,
                        const std::vector<std::string>& views) {
  std::string body =
      "{\"ok\": true, \"target\": \"" + target + "\", \"results\": [";
  for (size_t i = 0; i < views.size(); ++i) {
    if (i) body += ", ";
    body += views[i];
  }
  return body + "]}\n";
}

/// Reference results from the sequential implementations.
struct Expected {
  std::vector<ResultMap> wcc;          // per definition
  std::vector<std::string> wcc_views;  // rendered, per definition
  ResultMap bfs;
  std::string bfs_body;

  std::string WccBody(const Script& s) const {
    std::vector<std::string> views;
    for (size_t d : s.definitions) views.push_back(wcc_views[d]);
    return ResultsBody("win", views);
  }
};

Expected ReferenceResults(const ServeInput& in) {
  Expected exp;
  const PropertyTable& props = in.graph.edge_properties();
  const Column& ts = props.column(props.ColumnIndex("timestamp").value());
  std::vector<WeightedEdge> all;
  for (EdgeId e = 0; e < in.graph.num_edges(); ++e) {
    all.push_back({in.graph.edge(e).src, in.graph.edge(e).dst, 1});
  }
  for (size_t d = 0; d < kDefinitions; ++d) {
    std::vector<WeightedEdge> edges;
    for (EdgeId e = 0; e < in.graph.num_edges(); ++e) {
      const int64_t t = ts.GetInt(e);
      if (t >= in.windows[d].lo && t <= in.windows[d].hi) {
        edges.push_back(all[e]);
      }
    }
    exp.wcc.push_back(analytics::WccReference(edges));
    exp.wcc_views.push_back(RenderView("d" + std::to_string(d), exp.wcc[d]));
  }
  exp.bfs = analytics::BfsReference(all, in.source);
  exp.bfs_body = ResultsBody("host", {RenderView("host", exp.bfs)});
  return exp;
}

std::string JsonQuery(const std::string& session,
                      const std::string& statement) {
  return "{\"session\": \"" + session + "\", \"statement\": \"" + statement +
         "\"}";
}

/// Client-side view of one script. Statement kinds are the server.*_share
/// metric stems; a kind seen twice in a script (session open + close, the
/// two result reads) sums.
struct ScriptOutcome {
  bool ok = false;
  bool correct = true;
  bool traced = false;
  uint64_t start_ns = 0;
  double ms = 0;
  double statement_ms = 0;
  double response_bytes = 0;
  double rejected = 0;
  std::map<std::string, double> kind_ms;
};

ScriptOutcome RunScript(uint16_t port, const ServeInput& in,
                        const Expected& exp, const Script& script,
                        const std::string& session, SpanLog* log,
                        uint64_t request) {
  const std::string session_body = "{\"session\": \"" + session + "\"}";
  const std::string wcc_body = exp.WccBody(script);
  struct Step {
    const char* kind;
    const char* path;
    std::string body;
    const std::string* expect;
  };
  const Step steps[] = {
      {"server.session", "/session", session_body, nullptr},
      {"server.create", "/query", JsonQuery(session, script.create), nullptr},
      {"server.run_collection", "/query", JsonQuery(session, "run wcc on win"),
       nullptr},
      {"server.results", "/query", JsonQuery(session, "get results"),
       &wcc_body},
      {"server.run_graph", "/query",
       JsonQuery(session, "run bfs(" + std::to_string(in.source) + ") on host"),
       nullptr},
      {"server.results", "/query", JsonQuery(session, "get results"),
       &exp.bfs_body},
      {"server.session", "/session/close", session_body, nullptr},
  };

  ScriptOutcome out;
  const uint64_t start = NowNs();
  out.start_ns = start;
  out.traced = log != nullptr;
  HttpClient client(port);
  if (!client.connected()) return out;
  for (const Step& step : steps) {
    const uint64_t t0 = NowNs();
    HttpReply reply = client.Post(step.path, step.body);
    const uint64_t dur = NowNs() - t0;
    if (log != nullptr) log->Record(step.kind, t0, dur, request);
    out.kind_ms[step.kind] += static_cast<double>(dur) / 1e6;
    out.statement_ms += static_cast<double>(dur) / 1e6;
    out.response_bytes += static_cast<double>(reply.body.size());
    if (reply.status == 503) out.rejected += 1;
    if (reply.status != 200 || reply.body.rfind("{\"ok\": true", 0) != 0) {
      std::fprintf(stderr, "serve_mixed: %s %s -> %d %s", step.path,
                   step.body.c_str(), reply.status, reply.body.c_str());
      client.Post("/session/close", session_body);  // best effort
      return out;
    }
    if (step.expect != nullptr && reply.body != *step.expect) {
      out.correct = false;
    }
  }
  const uint64_t wall = NowNs() - start;
  if (log != nullptr) log->Record("bench.request", start, wall, request);
  out.ms = static_cast<double>(wall) / 1e6;
  out.ok = true;
  return out;
}

/// The completed scripts of one kind (traced or not) in a phase.
struct ScriptTotals {
  std::vector<double> latencies;  // in start order
  double statement_ms = 0;
  double response_bytes = 0;
  std::map<std::string, double> kind_ms;
};

struct PhaseResult {
  double wall_seconds = 0;
  double rejected = 0;
  ScriptTotals untraced;
  ScriptTotals traced;
};

/// Runs kClients closed-loop clients for `seconds`. `logs` is empty
/// (untraced) or holds one span log per client; then every other script of
/// each client records spans, so traced and untraced scripts share the
/// host's conditions.
PhaseResult RunClients(uint16_t port, const ServeInput& in,
                       const Expected& exp, const Args& args, double seconds,
                       const std::vector<SpanLog*>& logs, Report* report) {
  std::vector<std::vector<ScriptOutcome>> per_client(kClients);
  std::vector<std::thread> threads;
  Timer timer;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t n = 0; timer.Seconds() < seconds; ++n) {
        const Script script = MakeScript(in, args.seed, c, n);
        const std::string session =
            "c" + std::to_string(c) + "n" + std::to_string(n);
        SpanLog* log = logs.empty() || n % 2 == 0 ? nullptr : logs[c];
        per_client[c].push_back(
            RunScript(port, in, exp, script, session, log, (c << 32) | n));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PhaseResult result;
  result.wall_seconds = timer.Seconds();
  std::vector<ScriptOutcome> outcomes;
  for (std::vector<ScriptOutcome>& client : per_client) {
    for (ScriptOutcome& o : client) outcomes.push_back(std::move(o));
  }
  report->attempted += outcomes.size();
  std::sort(outcomes.begin(), outcomes.end(),
            [](const ScriptOutcome& a, const ScriptOutcome& b) {
              return a.start_ns < b.start_ns;
            });
  for (const ScriptOutcome& o : outcomes) {
    result.rejected += o.rejected;
    if (!o.ok) {
      ++report->failed;
      continue;
    }
    if (!o.correct) {
      report->Mismatch("serve_mixed: a get results body differs from the "
                       "sequential reference");
    }
    ScriptTotals& totals = o.traced ? result.traced : result.untraced;
    totals.latencies.push_back(o.ms);
    totals.statement_ms += o.statement_ms;
    totals.response_bytes += o.response_bytes;
    for (const auto& [kind, ms] : o.kind_ms) totals.kind_ms[kind] += ms;
  }
  return result;
}

/// Value of an unlabeled counter in a Prometheus exposition body.
double ScrapeCounter(const std::string& exposition, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = exposition.find(key);
  if (at == std::string::npos) return 0;
  return std::strtod(exposition.c_str() + at + key.size(), nullptr);
}

/// The engine layers under the same scripts, called directly and single
/// threaded as one server request thread would: gvdl::ParseScript →
/// views::MaterializeCollection → views::RunOnCollection (wcc) →
/// views::RunOnGraph (bfs, through the arrangement cache), on `graph` as
/// loaded from the CSV files. Its *_share metrics are parts of the replayed
/// script's wall time.
void ReplayLayers(const ServeInput& in, const PropertyGraph& graph,
                  const Expected& exp, const Args& args, double seconds,
                  SpanLog* log, Report* report) {
  const std::string cache_scope = "e2e-replay/host@0";
  LayerTotals totals;
  auto& sums = totals.sums;
  analytics::Wcc wcc;
  analytics::Bfs bfs(in.source);
  const auto sched_before = SchedStateNanos(1);
  Timer timer;
  for (uint64_t n = 0; timer.Seconds() < seconds; ++n) {
    const Script script = MakeScript(in, args.seed, 0, n);
    const uint64_t request = (uint64_t{1} << 48) | n;
    const uint64_t start = NowNs();
    ++report->attempted;
    StatusOr<std::vector<gvdl::Statement>> parsed = Status::Internal("unset");
    const double parse_ms = log->Time("gvdl.parse", request, [&] {
      parsed = gvdl::ParseScript(script.create);
    });
    sums["gvdl.parse_ms"] += parse_ms;
    const gvdl::ViewCollectionDef* def =
        parsed.ok() ? std::get_if<gvdl::ViewCollectionDef>(&parsed->front())
                    : nullptr;
    if (def == nullptr) {
      ++report->failed;
      continue;
    }
    StatusOr<views::MaterializedCollection> mc = Status::Internal("unset");
    const double mat_ms = log->Time("views.materialize", request, [&] {
      mc = views::MaterializeCollection(graph, *def, {});
    });
    sums["views.materialize_ms"] += mat_ms;
    if (!mc.ok()) {
      ++report->failed;
      continue;
    }
    totals.AddCollection(*mc);

    views::ExecutionOptions eo;
    eo.dataflow.num_workers = 1;
    eo.capture_results = true;
    StatusOr<views::ExecutionResult> wcc_result = Status::Internal("unset");
    const double wcc_ms = log->Time("views.execute.wcc", request, [&] {
      wcc_result = views::RunOnCollection(wcc, graph, *mc, eo);
    });
    sums["views.execute.wcc_share"] += wcc_ms;
    eo.arrangement_cache_scope = cache_scope;
    StatusOr<ResultMap> bfs_result = Status::Internal("unset");
    const double bfs_ms = log->Time("views.execute.bfs", request, [&] {
      bfs_result = views::RunOnGraph(bfs, graph, eo);
    });
    sums["views.execute.bfs_share"] += bfs_ms;
    if (!wcc_result.ok() || !bfs_result.ok()) {
      ++report->failed;
      continue;
    }
    const uint64_t wall = NowNs() - start;
    log->Record("bench.request", start, wall, request);
    totals.requests += 1;
    totals.request_ms += static_cast<double>(wall) / 1e6;
    totals.stage_ms += parse_ms + mat_ms + wcc_ms + bfs_ms;
    totals.AddRun(*wcc_result);
    for (size_t t = 0; t < script.definitions.size(); ++t) {
      if (wcc_result->results[t] != exp.wcc[script.definitions[t]]) {
        report->Mismatch("serve_mixed replay: wcc view differs from the "
                         "sequential reference");
      }
    }
    if (*bfs_result != exp.bfs) {
      report->Mismatch("serve_mixed replay: bfs differs from the sequential "
                       "reference");
    }
  }
  AddWorkerFractions(sched_before, SchedStateNanos(1), &report->layer);
  differential::ArrangementCache::Global().InvalidateScopePrefix("e2e-replay/");
  AddLayerSummary(totals, report);
}

}  // namespace

void RunServeMixed(const Args& args, Report* report) {
  TempDir dir(args.work_dir);
  if (dir.path().empty()) {
    report->Mismatch("cannot create a scratch directory under " +
                     args.work_dir);
    return;
  }
  const ServeInput in = MakeInput(args);
  const std::string nodes_csv = dir.path() + "/nodes.csv";
  const std::string edges_csv = dir.path() + "/edges.csv";
  GS_CHECK(WriteGraphToCsv(in.graph, nodes_csv, edges_csv).ok());

  // Set-up: construct the server, load the host graph from CSV, start
  // listening. Repeated before the timed phase and after each of its
  // slices.
  SetupTimes setups;
  CpuRotation setup_cpus;
  const std::function<std::unique_ptr<server::QueryServer>()> start = [&] {
    server::QueryServerOptions options;
    options.num_threads = kClients;
    options.num_workers = 1;
    auto s = std::make_unique<server::QueryServer>(options);
    {
      CpuRotation::Pinned pin(&setup_cpus);  // Start() starts threads
      GS_CHECK(s->LoadGraphCsv("host", nodes_csv, edges_csv).ok());
    }
    GS_CHECK(s->Start(0).ok());
    return s;
  };
  std::unique_ptr<server::QueryServer> server;
  setups.Repeat(start, &server);
  const uint16_t port = server->port();
  const Expected exp = ReferenceResults(in);
  report->meta = {{"nodes", static_cast<double>(in.graph.num_nodes())},
                  {"edges", static_cast<double>(in.graph.num_edges())},
                  {"clients", static_cast<double>(kClients)},
                  {"views_per_script", static_cast<double>(kViewsPerScript)}};

  ScriptOutcome warm = RunScript(port, in, exp, MakeScript(in, args.seed, 0, 0),
                                 "warmup", nullptr, 0);
  if (!warm.ok || !warm.correct) {
    report->Mismatch("serve_mixed: warm-up script failed or differs from the "
                     "sequential reference");
    return;
  }

  if (!args.traced()) {
    // The timed phase runs in short slices, and the server is set up afresh
    // after each, so set-ups are sampled across the run as the scripts are.
    std::vector<double> latencies;
    double wall_seconds = 0;
    for (size_t slice = 0; slice < kSlices; ++slice) {
      PhaseResult r = RunClients(server->port(), in, exp, args,
                                 args.seconds / kSlices, {}, report);
      latencies.insert(latencies.end(), r.untraced.latencies.begin(),
                       r.untraced.latencies.end());
      wall_seconds += r.wall_seconds;
      server.reset();
      server = setups.Time(start);
    }
    AddEndToEnd(report, setups.median(), latencies, wall_seconds);
    return;
  }

  // Traced run: 80% over HTTP, every other script with a client-side span
  // per statement (the others are the overhead baseline), then 20%
  // replaying the engine layers directly.
  std::vector<SpanLog*> logs;
  for (size_t c = 0; c < kClients; ++c) logs.push_back(report->NewSpanLog());
  auto scrape = [&] {
    HttpClient client(port);
    return client.Get("/metrics").body;
  };
  const std::string metrics_before = scrape();
  const double cpu_before = ProcessCpuSeconds();
  PhaseResult r =
      RunClients(port, in, exp, args, args.seconds * 0.8, logs, report);
  const double cpu_ms = (ProcessCpuSeconds() - cpu_before) * 1e3;
  const std::string metrics_after = scrape();
  ReplayLayers(in, LoadGraphFromCsv(nodes_csv, edges_csv).value(), exp, args,
               args.seconds * 0.2, report->NewSpanLog(), report);

  // The HTTP phase's metrics; its trace.coverage (statement spans over
  // script wall time) replaces the replay's.
  auto& layer = report->layer;
  const ScriptTotals& traced = r.traced;
  const double scripts = static_cast<double>(traced.latencies.size());
  double request_ms = 0;
  for (double ms : traced.latencies) request_ms += ms;
  std::map<std::string, double> sums;
  for (const auto& [kind, ms] : traced.kind_ms) sums[kind + "_share"] = ms;
  AddLayerAverages(sums, scripts, request_ms, &layer);
  layer["server.response_kb"] =
      scripts > 0 ? traced.response_bytes / scripts / 1024 : 0;
  layer["server.rejected_503"] = r.rejected;
  const double hits = ScrapeCounter(metrics_after, "gs_arrcache_hits") -
                      ScrapeCounter(metrics_before, "gs_arrcache_hits");
  const double misses = ScrapeCounter(metrics_after, "gs_arrcache_misses") -
                        ScrapeCounter(metrics_before, "gs_arrcache_misses");
  layer["arrcache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  layer["trace.coverage"] =
      request_ms > 0 ? traced.statement_ms / request_ms : 0;
  const double all_scripts =
      scripts + static_cast<double>(r.untraced.latencies.size());
  AddTraceOverhead(r.untraced.latencies, traced.latencies,
                   all_scripts > 0 ? cpu_ms / all_scripts : 0, report);
}

}  // namespace gs::bench::e2e
