#include "testing/oracle.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "common/metrics.h"
#include "differential/fuzz_hooks.h"
#include "graph/mutation.h"
#include "gvdl/predicate.h"
#include "server/query_server.h"
#include "testing/fuzz_program.h"
#include "testing/generators.h"
#include "views/collection.h"
#include "views/executor.h"
#include "views/live.h"

namespace gs::testing {

namespace fuzz = ::gs::differential::fuzz;

namespace {

using analytics::ResultMap;

/// Sums every sample of one metric family in Prometheus exposition text
/// (same matching rules as the metrics tests: `family{...} v` or
/// `family v`, prefix families excluded).
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

std::string DescribeMap(const ResultMap& m) {
  std::ostringstream out;
  out << m.size() << " records";
  size_t shown = 0;
  for (const auto& [k, v] : m) {
    if (++shown > 4) {
      out << " ...";
      break;
    }
    out << " (" << k << "," << v << ")";
  }
  return out.str();
}

/// First-divergence comparison of two per-view result vectors.
Status CompareResults(const std::string& mode,
                      const std::vector<ResultMap>& ref,
                      const std::vector<ResultMap>& got) {
  if (ref.size() != got.size()) {
    return Status::Internal("mode " + mode + ": view count mismatch (ref " +
                            std::to_string(ref.size()) + ", got " +
                            std::to_string(got.size()) + ")");
  }
  for (size_t t = 0; t < ref.size(); ++t) {
    if (ref[t] == got[t]) continue;
    std::ostringstream out;
    out << "mode " << mode << ": view " << t << " diverged; ref has "
        << DescribeMap(ref[t]) << ", got " << DescribeMap(got[t]);
    for (const auto& [k, v] : ref[t]) {
      auto it = got[t].find(k);
      if (it == got[t].end()) {
        out << "; first missing key " << k << " (ref value " << v << ")";
        break;
      }
      if (it->second != v) {
        out << "; first wrong key " << k << " (ref " << v << ", got "
            << it->second << ")";
        break;
      }
    }
    for (const auto& [k, v] : got[t]) {
      if (!ref[t].count(k)) {
        out << "; first extra key " << k << " (got value " << v << ")";
        break;
      }
    }
    return Status::Internal(out.str());
  }
  return Status::Ok();
}

/// The schedule-fuzz hook set shared by the perturbed modes. op_order
/// scrambling is only legal without shared arrangements (arrange.h relies
/// on creation-order ties), so it is opt-in per mode.
fuzz::Hooks PerturbHooks(const FuzzCase& c, bool scramble_op_order,
                         bool shuffle_exchange) {
  fuzz::Hooks h;
  h.seed = c.schedule_seed;
  h.scramble_seq = true;
  h.scramble_op_order = scramble_op_order;
  h.shuffle_exchange = shuffle_exchange;
  h.compaction_period = c.compaction_period;
  h.tail_seal_threshold = c.tail_seal_threshold;
  h.drop_insert_at = c.drop_insert_at;
  return h;
}

/// mutate: the streaming-ingest oracle. Applies the case's mutation epochs
/// through the incremental path — ApplyMutationBatch + collection
/// maintenance (UpdateCollectionForMutations) + a LiveRun fed
/// epoch-by-epoch — then rebuilds every epoch from scratch (fresh graph,
/// replayed batches, fresh materialization, batch executor) and requires
/// every (epoch, view) result cell to match. At the final epoch the
/// maintained difference stream must also be bit-identical to the scratch
/// rematerialization (identity order only: the ordering optimizer may
/// legitimately pick a different permutation on the mutated graph).
Status MutateMode(const FuzzCase& c, const gvdl::ViewCollectionDef& def,
                  const analytics::Computation& computation,
                  std::ostringstream& out) {
  GS_ASSIGN_OR_RETURN(PropertyGraph live_graph, BuildGraph(c));
  views::MaterializeOptions mopts;
  mopts.use_ordering = c.use_ordering;
  GS_ASSIGN_OR_RETURN(views::MaterializedCollection live_col,
                      views::MaterializeCollection(live_graph, def, mopts));
  const int weight_column = live_graph.FindWeightColumn("w");

  views::LiveRunOptions lopts;
  lopts.weight_column = weight_column;
  lopts.dataflow.num_workers =
      (fuzz::Mix(c.schedule_seed ^ 0x717) & 1) != 0 ? c.workers : 1;
  GS_ASSIGN_OR_RETURN(
      std::unique_ptr<views::LiveRun> live,
      views::LiveRun::Start(computation, live_graph, &live_col, lopts));

  // Incremental side: resolve + apply each epoch once, recording the
  // resolved batches so the reload side replays the identical mutations.
  std::vector<MutationBatch> resolved;
  for (const std::vector<FuzzMutation>& raw : c.mutation_epochs) {
    MutationBatch batch = ResolveFuzzBatch(live_graph, raw);
    MutationEffects effects;
    GS_RETURN_IF_ERROR(ApplyMutationBatch(&live_graph, batch, &effects));
    GS_RETURN_IF_ERROR(views::UpdateCollectionForMutations(
        &live_col, live_graph, effects.touched_edges));
    GS_RETURN_IF_ERROR(live->AdvanceEpoch(effects.touched_edges));
    resolved.push_back(std::move(batch));
  }

  // Reload side, every epoch from scratch.
  for (uint32_t epoch = 0; epoch <= resolved.size(); ++epoch) {
    GS_ASSIGN_OR_RETURN(PropertyGraph fresh, BuildGraph(c));
    for (uint32_t b = 0; b < epoch; ++b) {
      GS_RETURN_IF_ERROR(ApplyMutationBatch(&fresh, resolved[b]));
    }
    GS_ASSIGN_OR_RETURN(views::MaterializedCollection fresh_col,
                        views::MaterializeCollection(fresh, def, mopts));
    views::ExecutionOptions eo;
    eo.strategy = splitting::Strategy::kDiffOnly;
    eo.weight_column = weight_column;
    eo.capture_results = true;
    eo.dataflow.num_workers = 1;
    GS_ASSIGN_OR_RETURN(
        views::ExecutionResult scratch,
        views::RunOnCollection(computation, fresh, fresh_col, eo));

    // Positions may be permuted differently on the two sides; compare per
    // view *definition*.
    std::vector<ResultMap> ref_by_def(def.views.size());
    for (size_t s = 0; s < fresh_col.num_views(); ++s) {
      ref_by_def[fresh_col.order[s]] = std::move(scratch.results[s]);
    }
    std::vector<ResultMap> live_by_def(def.views.size());
    for (size_t t = 0; t < live_col.num_views(); ++t) {
      auto cell = live->ResultsAt(epoch, t);
      if (!cell.ok()) {
        return Status(cell.status().code(), "mutate epoch " +
                                                std::to_string(epoch) +
                                                ": " + cell.status().message());
      }
      live_by_def[live_col.order[t]] = std::move(cell).value();
    }
    out << "  mutate-e" << epoch << ":";
    for (const ResultMap& m : live_by_def) out << " " << HashResults(m);
    out << "\n";
    GS_RETURN_IF_ERROR(CompareResults("mutate epoch " + std::to_string(epoch),
                                      ref_by_def, live_by_def));

    if (epoch == resolved.size() && !c.use_ordering) {
      for (size_t t = 0; t < fresh_col.num_views(); ++t) {
        if (live_col.diffs.ViewDiffs(t) != fresh_col.diffs.ViewDiffs(t)) {
          return Status::Internal(
              "mutate: maintained diff stream for view " + std::to_string(t) +
              " differs from scratch rematerialization");
        }
      }
    }
  }
  return Status::Ok();
}

/// One blocking HTTP POST over loopback with Connection: close; returns
/// the response body or an error naming the non-200 status. The serve mode
/// deliberately speaks raw sockets — the point is to exercise the wire
/// path, not an in-process shortcut.
StatusOr<std::string> ServePost(uint16_t port, const std::string& path,
                                const std::string& body) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("serve: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Internal("serve: connect() failed");
  }
  const std::string request =
      "POST " + path + " HTTP/1.1\r\nHost: fuzz\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t header_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || header_end == std::string::npos) {
    return Status::Internal("serve: malformed response to " + path);
  }
  const int code = std::atoi(raw.c_str() + 9);
  std::string reply = raw.substr(header_end + 4);
  if (code != 200) {
    return Status::Internal("serve: " + path + " answered " +
                            std::to_string(code) + ": " + reply);
  }
  return reply;
}

/// Pulls every {"view": ..., "values": {...}} pair out of a GET RESULTS
/// body (the server renders integers only, so flat scanning suffices).
bool ParseServeResults(const std::string& body,
                       std::map<std::string, ResultMap>* out) {
  size_t pos = 0;
  for (;;) {
    size_t v = body.find("{\"view\": \"", pos);
    if (v == std::string::npos) return true;
    v += sizeof("{\"view\": \"") - 1;
    size_t vend = body.find('"', v);
    if (vend == std::string::npos) return false;
    const std::string name = body.substr(v, vend - v);
    size_t open = body.find("\"values\": {", vend);
    if (open == std::string::npos) return false;
    size_t p = open + sizeof("\"values\": {") - 1;
    ResultMap m;
    while (p < body.size() && body[p] != '}') {
      if (body[p] == ',' || body[p] == ' ') {
        ++p;
        continue;
      }
      if (body[p] != '"') return false;
      char* end = nullptr;
      const uint64_t key = std::strtoull(body.c_str() + p + 1, &end, 10);
      p = static_cast<size_t>(end - body.c_str());
      if (p >= body.size() || body[p] != '"') return false;
      ++p;  // closing key quote
      if (p >= body.size() || body[p] != ':') return false;
      const int64_t value =
          std::strtoll(body.c_str() + p + 1, &end, 10);
      p = static_cast<size_t>(end - body.c_str());
      m[key] = value;
    }
    if (p >= body.size()) return false;
    (*out)[name] = std::move(m);
    pos = p;
  }
}

/// serve: the wire and session path. The case's collection definition and
/// a RUN statement travel over a real loopback socket to a
/// server/query_server.h instance hosting the case's graph, where an
/// api::Graphsurge session executes them; the parsed GET RESULTS must match
/// the golden run per view definition. This checks request parsing,
/// session namespacing and result rendering against the golden run — the
/// executor itself is the embedded API's. Named algorithms only — random
/// DAGs have no statement form.
Status ServeMode(const FuzzCase& c, const gvdl::ViewCollectionDef& def,
                 const std::vector<ResultMap>& ref_by_def, int weight_column,
                 std::ostringstream& out) {
  std::string spec;
  switch (c.program.algo) {
    case Algo::kWcc:
      spec = "wcc";
      break;
    case Algo::kBfs:
      spec = "bfs(" + std::to_string(c.program.param) + ")";
      break;
    case Algo::kBellmanFord:
      spec = "bellman-ford(" + std::to_string(c.program.param) + ")";
      break;
    case Algo::kPageRank:
      spec = "pagerank(" + std::to_string(c.program.param) + ")";
      break;
    case Algo::kRandom:
      return Status::Ok();
  }

  server::QueryServerOptions sopts;
  sopts.num_threads = 2;
  server::QueryServer server(sopts);
  {
    GS_ASSIGN_OR_RETURN(PropertyGraph graph, BuildGraph(c));
    GS_RETURN_IF_ERROR(server.AddGraph(def.on, std::move(graph)));
  }
  GS_RETURN_IF_ERROR(server.Start(0));

  const std::string session = "fuzz-" + std::to_string(c.case_seed);
  auto query = [&](const std::string& statement) -> StatusOr<std::string> {
    // Generated predicates use single-quoted string literals and an
    // ASCII alphabet without '"' or '\', so no JSON escaping is needed.
    return ServePost(server.port(), "/query",
                     "{\"session\": \"" + session + "\", \"statement\": \"" +
                         statement + "\"}");
  };

  std::string create = "create view collection " + def.name + " on " + def.on;
  for (size_t i = 0; i < c.predicates.size(); ++i) {
    create += (i == 0 ? " [" : ", [");
    create += "v" + std::to_string(i) + ": " + c.predicates[i] + "]";
  }
  GS_RETURN_IF_ERROR(query(create).status());

  std::string run = "run " + spec + " on " + def.name;
  if (weight_column >= 0) {
    run += " weight " + std::to_string(weight_column);
  }
  GS_RETURN_IF_ERROR(query(run).status());

  GS_ASSIGN_OR_RETURN(std::string results_body, query("get results"));
  std::map<std::string, ResultMap> served;
  if (!ParseServeResults(results_body, &served)) {
    return Status::Internal("serve: unparseable results body: " +
                            results_body);
  }
  if (served.size() != def.views.size()) {
    return Status::Internal(
        "serve: expected " + std::to_string(def.views.size()) +
        " views, got " + std::to_string(served.size()));
  }
  std::vector<ResultMap> got_by_def(def.views.size());
  for (size_t i = 0; i < def.views.size(); ++i) {
    auto it = served.find("v" + std::to_string(i));
    if (it == served.end()) {
      return Status::Internal("serve: missing view v" + std::to_string(i) +
                              " in results");
    }
    got_by_def[i] = std::move(it->second);
  }
  out << "  serve:";
  for (const ResultMap& m : got_by_def) out << " " << HashResults(m);
  out << "\n";
  return CompareResults("serve", ref_by_def, got_by_def);
}

}  // namespace

uint64_t HashResults(const ResultMap& results) {
  uint64_t h = fuzz::Mix(results.size());
  for (const auto& [k, v] : results) {
    h = fuzz::Mix(h ^ k);
    h = fuzz::Mix(h ^ static_cast<uint64_t>(v));
  }
  return h;
}

Status CheckArrangementGaugesZero() {
  const std::string text = metrics::Registry::Global().ExpositionText();
  const uint64_t bytes = SumFamily(text, "gs_arrangement_bytes");
  const uint64_t batches = SumFamily(text, "gs_arrangement_batches");
  if (bytes != 0 || batches != 0) {
    return Status::Internal(
        "arrangement gauges nonzero after teardown: bytes=" +
        std::to_string(bytes) + " batches=" + std::to_string(batches));
  }
  return Status::Ok();
}

Status RunOracle(const FuzzCase& c, std::string* log) {
  // Header goes straight to *log so even setup failures (graph build,
  // predicate parse, materialization) are attributed to their case.
  {
    std::ostringstream header;
    header << "case " << c.case_seed << ": nodes=" << c.num_nodes
           << " edges=" << c.edges.size() << " views=" << c.predicates.size()
           << " algo=" << static_cast<int>(c.program.algo)
           << " workers=" << c.workers << "\n";
    *log += header.str();
  }
  std::ostringstream out;

  GS_ASSIGN_OR_RETURN(PropertyGraph graph, BuildGraph(c));
  GS_ASSIGN_OR_RETURN(gvdl::ViewCollectionDef def, BuildCollectionDef(c));
  views::MaterializeOptions mopts;
  mopts.use_ordering = c.use_ordering;
  GS_ASSIGN_OR_RETURN(views::MaterializedCollection collection,
                      views::MaterializeCollection(graph, def, mopts));
  // Named algorithms have one plan and ignore the join shape. A random
  // DAG's golden run uses plain joins, so it alone tolerates op_order
  // scrambling; its arranged shape must agree with it.
  const bool random_dag = c.program.algo == Algo::kRandom;
  const FuzzComputation plain(c.program, /*arranged_joins=*/false);
  const FuzzComputation arranged(c.program, /*arranged_joins=*/true);
  const int weight_column = graph.FindWeightColumn("w");

  auto base_options = [&](size_t workers) {
    views::ExecutionOptions eo;
    eo.strategy = splitting::Strategy::kDiffOnly;
    eo.weight_column = weight_column;
    eo.capture_results = true;
    eo.dataflow.num_workers = workers;
    return eo;
  };

  // Runs one mode under the given hooks; checks the memory gauges return to
  // zero afterwards and appends the per-view result hashes to the log.
  auto run_mode =
      [&](const std::string& mode, const FuzzComputation& computation,
          const views::ExecutionOptions& eo,
          const fuzz::Hooks& hooks) -> StatusOr<std::vector<ResultMap>> {
    std::vector<ResultMap> results;
    {
      fuzz::ScopedHooks scoped(hooks);
      auto r = views::RunOnCollection(computation, graph, collection, eo);
      if (!r.ok()) {
        return Status(r.status().code(),
                      "mode " + mode + ": " + r.status().message());
      }
      results = std::move(r).value().results;
    }
    Status gauges = CheckArrangementGaugesZero();
    if (!gauges.ok()) {
      return Status::Internal("mode " + mode + ": " + gauges.message());
    }
    out << "  " << mode << ":";
    for (const ResultMap& m : results) out << " " << HashResults(m);
    out << "\n";
    return results;
  };

  auto finish = [&](Status status) {
    *log += out.str();
    return status;
  };

  // ref: the golden serial run, hooks off.
  auto ref = run_mode("ref", plain, base_options(1), fuzz::Hooks{});
  if (!ref.ok()) return finish(ref.status());

  // serial-scrambled: every legal tie-break scrambled, injected
  // compactions, tiny tail threshold.
  auto scrambled = run_mode("serial-scrambled", plain, base_options(1),
                            PerturbHooks(c, /*scramble_op_order=*/random_dag,
                                         /*shuffle_exchange=*/false));
  if (!scrambled.ok()) return finish(scrambled.status());
  GS_RETURN_IF_ERROR(
      finish(CompareResults("serial-scrambled", *ref, *scrambled)));
  out.str("");

  // serial-arranged: the random DAG's arranged shape; seq-only scrambling.
  if (random_dag) {
    auto serial_arranged = run_mode("serial-arranged", arranged,
                                    base_options(1),
                                    PerturbHooks(c, false, false));
    if (!serial_arranged.ok()) return finish(serial_arranged.status());
    GS_RETURN_IF_ERROR(
        finish(CompareResults("serial-arranged", *ref, *serial_arranged)));
    out.str("");
  }

  // sharded: the case's worker count; the random DAG's shape by seed coin;
  // exchange-delivery shuffling on top.
  const bool sharded_arranged = (fuzz::Mix(c.schedule_seed ^ 0xa44) & 1) != 0;
  auto sharded =
      run_mode("sharded-w" + std::to_string(c.workers),
               sharded_arranged ? arranged : plain, base_options(c.workers),
               PerturbHooks(c, false, /*shuffle_exchange=*/true));
  if (!sharded.ok()) return finish(sharded.status());
  GS_RETURN_IF_ERROR(finish(CompareResults("sharded", *ref, *sharded)));
  out.str("");

  // scratch: every view from scratch — no cross-view sharing to hide
  // state corruption behind.
  {
    views::ExecutionOptions eo = base_options(1);
    eo.strategy = splitting::Strategy::kScratch;
    auto scratch = run_mode("scratch", plain, eo, fuzz::Hooks{});
    if (!scratch.ok()) return finish(scratch.status());
    GS_RETURN_IF_ERROR(finish(CompareResults("scratch", *ref, *scratch)));
    out.str("");
  }

  // reference: sequential non-dataflow implementations, per view (named
  // algorithms only — random DAGs have no independent reference).
  if (c.program.algo != Algo::kRandom) {
    std::vector<ResultMap> expected;
    for (size_t t = 0; t < collection.num_views(); ++t) {
      const gvdl::ExprPtr& predicate =
          def.views[collection.order[t]].predicate;
      GS_ASSIGN_OR_RETURN(
          gvdl::CompiledEdgePredicate compiled,
          gvdl::CompiledEdgePredicate::Compile(predicate, graph));
      std::vector<WeightedEdge> view_edges;
      for (EdgeId id = 0; id < graph.num_edges(); ++id) {
        if (compiled.Evaluate(id)) {
          view_edges.push_back(graph.ResolveWeighted(id, weight_column));
        }
      }
      switch (c.program.algo) {
        case Algo::kWcc:
          expected.push_back(analytics::WccReference(view_edges));
          break;
        case Algo::kBfs:
          expected.push_back(analytics::BfsReference(
              view_edges, static_cast<VertexId>(c.program.param)));
          break;
        case Algo::kBellmanFord:
          expected.push_back(analytics::SsspReference(
              view_edges, static_cast<VertexId>(c.program.param)));
          break;
        case Algo::kPageRank:
          expected.push_back(analytics::PageRankReference(
              view_edges, static_cast<uint32_t>(c.program.param)));
          break;
        case Algo::kRandom:
          break;
      }
    }
    out << "  reference:";
    for (const ResultMap& m : expected) out << " " << HashResults(m);
    out << "\n";
    GS_RETURN_IF_ERROR(finish(CompareResults("reference", expected, *ref)));
    out.str("");
  }

  // serve: the same collection and run through the HTTP front end over a
  // real loopback socket — named algorithms only.
  if (c.program.algo != Algo::kRandom) {
    std::vector<ResultMap> ref_by_def(def.views.size());
    for (size_t t = 0; t < collection.num_views(); ++t) {
      ref_by_def[collection.order[t]] = (*ref)[t];
    }
    Status serve = ServeMode(c, def, ref_by_def, weight_column, out);
    if (!serve.ok()) return finish(serve);
    Status gauges = CheckArrangementGaugesZero();
    if (!gauges.ok()) {
      return finish(Status::Internal("mode serve: " + gauges.message()));
    }
    *log += out.str();
    out.str("");
  }

  // mutate: streaming mutation epochs — incremental maintenance + live
  // differential feed vs reload-from-scratch at every epoch.
  if (!c.mutation_epochs.empty()) {
    Status mutate = MutateMode(c, def, arranged, out);
    if (!mutate.ok()) return finish(mutate);
    Status gauges = CheckArrangementGaugesZero();
    if (!gauges.ok()) {
      return finish(Status::Internal("mode mutate: " + gauges.message()));
    }
    *log += out.str();
    out.str("");
  }

  // fault: injected mid-run failure. The run must fail with a clean
  // Status (or finish if the budget was never hit), leave the gauges at
  // zero, and a clean retry must reproduce the golden results.
  if (c.fail_after_events != 0) {
    fuzz::Hooks h = PerturbHooks(c, random_dag, false);
    h.fail_after_events = c.fail_after_events;
    Status fault_status;
    {
      fuzz::ScopedHooks scoped(h);
      auto r = views::RunOnCollection(plain, graph, collection,
                                      base_options(1));
      fault_status = r.ok() ? Status::Ok() : r.status();
    }
    Status gauges = CheckArrangementGaugesZero();
    if (!gauges.ok()) {
      return finish(
          Status::Internal("mode fault: " + gauges.message()));
    }
    out << "  fault: "
        << (fault_status.ok() ? "not-triggered" : "triggered") << "\n";
    auto retry = run_mode("fault-retry", plain, base_options(1),
                          fuzz::Hooks{});
    if (!retry.ok()) return finish(retry.status());
    GS_RETURN_IF_ERROR(finish(CompareResults("fault-retry", *ref, *retry)));
    out.str("");
  }

  return finish(Status::Ok());
}

}  // namespace gs::testing
