#include "api/graphsurge.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>

#include "algorithms/algorithms.h"
#include "common/crash_dump.h"
#include "differential/arrcache.h"
#include "common/introspect.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"

namespace gs {

namespace {

/// Monotone instance numbering for arrangement-cache scopes: a system's
/// scopes must never alias another instance's (live or destroyed), even for
/// graphs with equal names at equal epochs.
std::atomic<uint64_t> g_next_instance_id{1};

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  errno = 0;
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return errno != ERANGE;
}

std::vector<std::string> SplitTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t begin = 0;
  for (;;) {
    size_t end = s.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(s.substr(begin));
      return parts;
    }
    parts.push_back(s.substr(begin, end - begin));
    begin = end + 1;
  }
}

/// Builds the computation named by `spec` ("name" or "name(args)").
StatusOr<std::unique_ptr<analytics::Computation>> MakeComputation(
    const std::string& spec) {
  std::string name = spec;
  std::string args;
  size_t paren = spec.find('(');
  if (paren != std::string::npos) {
    if (spec.back() != ')') {
      return Status::InvalidArgument("malformed algorithm spec: " + spec);
    }
    name = spec.substr(0, paren);
    args = spec.substr(paren + 1, spec.size() - paren - 2);
  }
  name = ToLower(name);
  auto need_source = [&]() -> StatusOr<uint64_t> {
    uint64_t source = 0;
    if (!ParseUint(args, &source)) {
      return Status::InvalidArgument(name + " requires a numeric source: " +
                                     spec);
    }
    return source;
  };
  if ((name == "wcc" || name == "scc") && !args.empty()) {
    return Status::InvalidArgument(name + " takes no arguments");
  }
  std::unique_ptr<analytics::Computation> c;
  if (name == "wcc") {
    c = std::make_unique<analytics::Wcc>();
  } else if (name == "scc") {
    c = std::make_unique<analytics::Scc>();
  } else if (name == "pagerank") {
    uint64_t iters = 10;
    if (!args.empty() && (!ParseUint(args, &iters) || iters == 0 ||
                          iters > std::numeric_limits<uint32_t>::max())) {
      return Status::InvalidArgument(
          "pagerank takes a positive 32-bit iteration count");
    }
    c = std::make_unique<analytics::PageRank>(static_cast<uint32_t>(iters));
  } else if (name == "bfs") {
    GS_ASSIGN_OR_RETURN(uint64_t source, need_source());
    c = std::make_unique<analytics::Bfs>(source);
  } else if (name == "bellman-ford" || name == "bellmanford" ||
             name == "sssp") {
    GS_ASSIGN_OR_RETURN(uint64_t source, need_source());
    c = std::make_unique<analytics::BellmanFord>(source);
  } else if (name == "mpsp") {
    std::vector<std::pair<VertexId, VertexId>> pairs;
    for (const std::string& pair_spec : SplitOn(args, ',')) {
      std::vector<std::string> ends = SplitOn(pair_spec, ':');
      uint64_t src = 0;
      uint64_t dst = 0;
      if (ends.size() != 2 || !ParseUint(ends[0], &src) ||
          !ParseUint(ends[1], &dst)) {
        return Status::InvalidArgument(
            "mpsp takes src:dst pairs, e.g. mpsp(0:5,2:7)");
      }
      pairs.emplace_back(src, dst);
    }
    if (pairs.empty() || pairs.size() > analytics::Mpsp::kMaxPairs) {
      return Status::InvalidArgument(
          "mpsp takes 1 to " + std::to_string(analytics::Mpsp::kMaxPairs) +
          " src:dst pairs");
    }
    c = std::make_unique<analytics::Mpsp>(std::move(pairs));
  } else {
    return Status::InvalidArgument(
        "unknown algorithm '" + name +
        "' (expected wcc, scc, pagerank, bfs, bellman-ford, or mpsp)");
  }
  return c;
}

}  // namespace

Graphsurge::Graphsurge(GraphsurgeOptions options)
    : options_(options),
      instance_id_(g_next_instance_id.fetch_add(1)),
      pool_(std::make_unique<ThreadPool>(
          options.num_workers == 0 ? 1 : options.num_workers)),
      ingest_source_("ingest", [this] {
        std::lock_guard<std::mutex> lock(ingest_status_mutex_);
        return ingest_status_json_;
      }) {
  // A dying run should leave its flight recorder behind (no-ops under
  // sanitizer runtimes, which install their own handlers first).
  InstallCrashHandlers();
}

Graphsurge::~Graphsurge() {
  // Teardown-zero: every cached arrangement this instance's graphs seeded
  // is dropped (scopes all carry the instance prefix), so the arrcache
  // byte gauge returns to zero once in-flight readers release their pins.
  differential::ArrangementCache::Global().InvalidateScopePrefix(
      "gs" + std::to_string(instance_id_) + "/");
}

std::string Graphsurge::CacheScopeFor(const std::string& graph_name,
                                      uint64_t epoch) const {
  return "gs" + std::to_string(instance_id_) + "/" + graph_name + "@" +
         std::to_string(epoch);
}

std::string Graphsurge::ArrangementCacheScope(
    const std::string& graph_name) const {
  auto it = root_.graphs_.find(graph_name);
  const uint64_t epoch =
      it == root_.graphs_.end() ? 0 : it->second.mutation_epoch();
  return CacheScopeFor(graph_name, epoch);
}

StatusOr<const PropertyGraph*> Graphsurge::FindGraph(
    const Session& s, const std::string& name) const {
  for (const Session* ns : {&s, &root_}) {
    auto it = ns->graphs_.find(name);
    if (it != ns->graphs_.end()) return &it->second;
  }
  return Status::NotFound("no graph or view named '" + name + "'");
}

StatusOr<const views::MaterializedCollection*> Graphsurge::FindCollection(
    const Session& s, const std::string& name) const {
  auto it = s.collections_.find(name);
  if (it == s.collections_.end()) {
    return Status::NotFound("no view collection named '" + name + "'");
  }
  return &it->second;
}

Status Graphsurge::CheckNameFree(const Session& s,
                                 const std::string& name) const {
  if (s.graphs_.count(name) || s.collections_.count(name) ||
      s.aggregate_views_.count(name) || root_.graphs_.count(name)) {
    return Status::AlreadyExists("name '" + name + "' is already in use");
  }
  return Status::Ok();
}

Status Graphsurge::LoadGraphCsv(const std::string& name,
                                const std::string& nodes_path,
                                const std::string& edges_path) {
  GS_RETURN_IF_ERROR(CheckNameFree(root_, name));
  GS_ASSIGN_OR_RETURN(PropertyGraph graph,
                      LoadGraphFromCsv(nodes_path, edges_path));
  root_.graphs_.emplace(name, std::move(graph));
  return Status::Ok();
}

Status Graphsurge::AddGraph(const std::string& name, PropertyGraph graph) {
  GS_RETURN_IF_ERROR(CheckNameFree(root_, name));
  GS_RETURN_IF_ERROR(graph.Validate());
  root_.graphs_.emplace(name, std::move(graph));
  return Status::Ok();
}

StatusOr<const PropertyGraph*> Graphsurge::GetGraph(
    const std::string& name) const {
  return FindGraph(root_, name);
}

Status Graphsurge::Execute(const std::string& gvdl) {
  GS_ASSIGN_OR_RETURN(StatementResult result, Execute(&root_, gvdl));
  if (!result.plan.empty()) GS_LOG(Info) << "EXPLAIN\n" << result.plan;
  return Status::Ok();
}

StatusOr<StatementResult> Graphsurge::Execute(
    Session* session, const std::string& statement) const {
  const std::vector<std::string> tokens = SplitTokens(statement);
  const std::string head = tokens.empty() ? "" : ToLower(tokens[0]);
  if (head == "run") return ExecuteRun(session, tokens);
  StatementResult result;
  if (head == "get" && tokens.size() >= 2 &&
      ToLower(tokens[1]) == "results") {
    result.kind = StatementResult::Kind::kResults;
    return result;
  }
  GS_RETURN_IF_ERROR(ExecuteGvdl(session, statement, &result));
  return result;
}

Status Graphsurge::ExecuteGvdl(Session* s, const std::string& script,
                               StatementResult* out) const {
  GS_ASSIGN_OR_RETURN(std::vector<gvdl::Statement> statements,
                      gvdl::ParseScript(script));
  for (const gvdl::Statement& statement : statements) {
    if (const auto* fv = std::get_if<gvdl::FilteredViewDef>(&statement)) {
      GS_RETURN_IF_ERROR(CheckNameFree(*s, fv->name));
      GS_ASSIGN_OR_RETURN(const PropertyGraph* base, FindGraph(*s, fv->on));
      GS_ASSIGN_OR_RETURN(
          PropertyGraph view,
          views::MaterializeFilteredView(*base, fv->predicate, pool_.get()));
      s->graphs_.emplace(fv->name, std::move(view));
      out->created.push_back(fv->name);
    } else if (const auto* vc =
                   std::get_if<gvdl::ViewCollectionDef>(&statement)) {
      GS_RETURN_IF_ERROR(CheckNameFree(*s, vc->name));
      GS_ASSIGN_OR_RETURN(const PropertyGraph* base, FindGraph(*s, vc->on));
      views::MaterializeOptions mopts;
      mopts.use_ordering = options_.order_collections;
      mopts.pool = pool_.get();
      GS_ASSIGN_OR_RETURN(views::MaterializedCollection mc,
                          views::MaterializeCollection(*base, *vc, mopts));
      s->collections_.emplace(vc->name, std::move(mc));
      out->created.push_back(vc->name);
    } else if (const auto* av =
                   std::get_if<gvdl::AggregateViewDef>(&statement)) {
      GS_RETURN_IF_ERROR(CheckNameFree(*s, av->name));
      GS_ASSIGN_OR_RETURN(const PropertyGraph* base, FindGraph(*s, av->on));
      GS_ASSIGN_OR_RETURN(agg::AggregateView result,
                          agg::ComputeAggregateView(*base, *av, pool_.get()));
      s->aggregate_views_.emplace(av->name, std::move(result));
      out->created.push_back(av->name);
    } else if (const auto* ex = std::get_if<gvdl::ExplainDef>(&statement)) {
      GS_ASSIGN_OR_RETURN(std::string text, ExplainCollection(*s, ex->target));
      out->plan += text;
    }
  }
  return Status::Ok();
}

StatusOr<StatementResult> Graphsurge::ExecuteRun(
    Session* s, const std::vector<std::string>& tokens) const {
  // run <algorithm> on <target> [weight <column>] — the algorithm spec may
  // contain spaces inside its parentheses ("mpsp(0:5, 2:7)"), so tokens up
  // to the ON keyword are joined with whitespace removed.
  size_t on_index = 0;
  for (size_t i = 1; i < tokens.size(); ++i) {
    if (ToLower(tokens[i]) == "on") {
      on_index = i;
      break;
    }
  }
  if (on_index < 2 || on_index + 1 >= tokens.size()) {
    return Status::InvalidArgument(
        "expected: run <algorithm> on <target> [weight <column>]");
  }
  std::string spec;
  for (size_t i = 1; i < on_index; ++i) spec += tokens[i];
  const std::string& target = tokens[on_index + 1];
  views::ExecutionOptions options;
  if (on_index + 2 < tokens.size()) {
    uint64_t column = 0;
    if (ToLower(tokens[on_index + 2]) != "weight" ||
        on_index + 4 != tokens.size() ||
        !ParseUint(tokens[on_index + 3], &column)) {
      return Status::InvalidArgument(
          "trailing tokens; expected: weight <column number>");
    }
    // The views layer checks the column against the target graph; only a
    // number that does not fit an int is rejected here, so it cannot wrap
    // to -1 (unweighted).
    if (column > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      return Status::InvalidArgument("weight column " +
                                     tokens[on_index + 3] + " does not exist");
    }
    options.weight_column = static_cast<int>(column);
  }
  GS_ASSIGN_OR_RETURN(std::unique_ptr<analytics::Computation> computation,
                      MakeComputation(spec));
  options.dataflow.num_workers = options_.num_workers;
  options.capture_results = true;

  s->last_target_.clear();
  s->last_results_.clear();
  StatementResult result;
  result.kind = StatementResult::Kind::kRun;
  result.algorithm = computation->name();
  result.target = target;
  auto collection = s->collections_.find(target);
  if (collection != s->collections_.end()) {
    GS_ASSIGN_OR_RETURN(
        views::ExecutionResult run,
        RunCollection(*s, *computation, target, std::move(options)));
    const views::MaterializedCollection& mc = collection->second;
    for (size_t t = 0; t < mc.num_views(); ++t) {
      s->last_results_.emplace_back(mc.view_names[t],
                                    t < run.results.size()
                                        ? std::move(run.results[t])
                                        : analytics::ResultMap());
    }
    result.views = mc.num_views();
  } else {
    GS_ASSIGN_OR_RETURN(
        analytics::ResultMap values,
        RunGraph(*s, *computation, target, std::move(options)));
    s->last_results_.emplace_back(target, std::move(values));
    result.views = 1;
  }
  s->last_target_ = target;
  return result;
}

StatusOr<const views::MaterializedCollection*> Graphsurge::GetCollection(
    const std::string& name) const {
  return FindCollection(root_, name);
}

StatusOr<const agg::AggregateView*> Graphsurge::GetAggregateView(
    const std::string& name) const {
  auto it = root_.aggregate_views_.find(name);
  if (it == root_.aggregate_views_.end()) {
    return Status::NotFound("no aggregate view named '" + name + "'");
  }
  return &it->second;
}

Status Graphsurge::CreateCollection(
    const std::string& name, const std::string& base_graph,
    const std::vector<std::string>& view_names,
    const std::vector<std::function<bool(EdgeId)>>& predicates,
    const views::MaterializeOptions* materialize_options) {
  GS_RETURN_IF_ERROR(CheckNameFree(root_, name));
  GS_ASSIGN_OR_RETURN(const PropertyGraph* base, GetGraph(base_graph));
  views::MaterializeOptions mopts;
  if (materialize_options != nullptr) {
    mopts = *materialize_options;
  } else {
    mopts.use_ordering = options_.order_collections;
  }
  if (mopts.pool == nullptr) mopts.pool = pool_.get();
  GS_ASSIGN_OR_RETURN(
      views::MaterializedCollection mc,
      views::MaterializeCollectionWith(*base, name, view_names, predicates,
                                       mopts));
  mc.base_graph = base_graph;
  root_.collections_.emplace(name, std::move(mc));
  return Status::Ok();
}

StatusOr<views::ExecutionResult> Graphsurge::RunComputation(
    const analytics::Computation& computation,
    const std::string& collection_name,
    views::ExecutionOptions options) const {
  return RunCollection(root_, computation, collection_name,
                       std::move(options));
}

StatusOr<views::ExecutionResult> Graphsurge::RunCollection(
    const Session& s, const analytics::Computation& computation,
    const std::string& name, views::ExecutionOptions options) const {
  GS_ASSIGN_OR_RETURN(const views::MaterializedCollection* collection,
                      FindCollection(s, name));
  GS_ASSIGN_OR_RETURN(const PropertyGraph* base,
                      FindGraph(s, collection->base_graph));
  if (options.dataflow.num_workers == 0) {
    options.dataflow.num_workers = options_.num_workers;
  }
  StatusOr<views::ExecutionResult> result =
      views::RunOnCollection(computation, *base, *collection, options);
  if (result.ok()) {
    // Keep the run's metadata for Explain(), not the captured results:
    // those can be the size of the collection, so they are moved aside for
    // the copy rather than copied.
    std::vector<analytics::ResultMap> results =
        std::move(result.value().results);
    views::ExecutionResult metadata = result.value();
    result.value().results = std::move(results);
    std::lock_guard<std::mutex> lock(run_state_mutex_);
    s.last_runs_[name] = std::move(metadata);
  }
  return result;
}

StatusOr<std::string> Graphsurge::Explain(const std::string& name) const {
  return ExplainCollection(root_, name);
}

StatusOr<std::string> Graphsurge::ExplainCollection(
    const Session& s, const std::string& name) const {
  GS_ASSIGN_OR_RETURN(const views::MaterializedCollection* collection,
                      FindCollection(s, name));

  // Snapshot the last run for this collection, if any.
  bool has_run = false;
  views::ExecutionResult run;
  {
    std::lock_guard<std::mutex> lock(run_state_mutex_);
    auto it = s.last_runs_.find(name);
    if (it != s.last_runs_.end()) {
      has_run = true;
      run = it->second;
    }
  }

  std::ostringstream out;
  out << std::fixed;
  out << "collection " << collection->name << " on " << collection->base_graph
      << " (" << collection->num_views() << " views)\n";
  out << "order source: " << collection->order_source
      << "  estimated ds(B,sigma)=" << collection->total_diffs
      << "  identity ds=" << collection->identity_ds;
  if (collection->identity_ds > 0 &&
      collection->total_diffs < collection->identity_ds) {
    out << std::setprecision(1) << "  ("
        << 100.0 * (1.0 - static_cast<double>(collection->total_diffs) /
                              static_cast<double>(collection->identity_ds))
        << "% fewer diffs than user-given order)";
  }
  out << "\n";
  if (collection->ordering_seconds > 0) {
    out << std::setprecision(3)
        << "ordering overhead: " << collection->ordering_seconds * 1e3
        << " ms of " << collection->creation_seconds * 1e3 << " ms CCT\n";
  }

  // Per-position plan: the view at each position with the optimizer's
  // estimated |GV_t| and |δC_t| (the per-adjacent-pair ds contribution),
  // joined with the last run's actual counts and per-operator milliseconds
  // when available. The operator columns cover every operator of any view.
  std::set<std::string> ops;
  for (const views::ViewRunStats& v : run.per_view) {
    for (const auto& [op, _] : v.op_nanos) ops.insert(op);
  }
  auto op_width = [](const std::string& op) {
    return std::max<int>(11, static_cast<int>(op.size()) + 2);
  };
  out << "\n" << std::left << std::setw(5) << "pos" << std::setw(14) << "view"
      << std::setw(7) << "def#" << std::right << std::setw(12) << "est |GV|"
      << std::setw(12) << "est |dC|";
  if (has_run) {
    out << std::setw(10) << "mode" << std::setw(12) << "actual in"
        << std::setw(12) << "actual out" << std::setw(10) << "ms";
    for (const std::string& op : ops) out << std::setw(op_width(op)) << op;
  }
  out << "\n";
  for (size_t t = 0; t < collection->num_views(); ++t) {
    out << std::left << std::setw(5) << t << std::setw(14)
        << collection->view_names[t] << std::setw(7) << collection->order[t]
        << std::right << std::setw(12) << collection->view_sizes[t]
        << std::setw(12) << collection->diff_sizes[t];
    if (has_run && t < run.per_view.size()) {
      const views::ViewRunStats& v = run.per_view[t];
      out << std::setw(10) << (v.ran_scratch ? "scratch" : "diff")
          << std::setw(12) << v.input_size << std::setw(12) << v.output_diffs
          << std::setprecision(3) << std::setw(10) << v.seconds * 1e3;
      for (const std::string& op : ops) {
        auto it = v.op_nanos.find(op);
        out << std::setw(op_width(op))
            << (it == v.op_nanos.end() ? 0.0 : it->second / 1e6);
      }
    }
    out << "\n";
  }

  if (has_run) {
    out << "\nlast run: strategy=" << splitting::StrategyName(run.strategy)
        << " chunk_size=" << run.chunk_size << " splits=" << run.num_splits
        << std::setprecision(3) << " total_ms=" << run.total_seconds * 1e3
        << " updates=" << run.engine_stats.updates_published
        << " exchanged_bytes=" << run.engine_stats.exchanged_bytes << "\n";
    if (!run.chunk_decisions.empty()) {
      out << std::left << std::setw(12) << "chunk" << std::setw(10)
          << "choice" << std::right << std::setw(16) << "pred scratch s"
          << std::setw(14) << "pred diff s" << "  basis\n";
      for (const views::ChunkDecision& d : run.chunk_decisions) {
        out << std::left << std::setw(12)
            << (std::string("[").append(std::to_string(d.begin)) + "," +
                std::to_string(d.end) + ")")
            << std::setw(10) << (d.scratch ? "scratch" : "diff");
        out << std::right << std::setprecision(6) << std::setw(16);
        if (d.from_model) {
          out << d.predicted_scratch_seconds << std::setw(14)
              << d.predicted_diff_seconds << "  cost-model";
        } else {
          out << "-" << std::setw(14) << "-"
              << (run.strategy == splitting::Strategy::kAdaptive
                      ? "  bootstrap"
                      : "  fixed strategy");
        }
        out << "\n";
      }
    }
  } else {
    out << "\nno recorded run for this collection yet — RunComputation() "
           "fills in actual per-view diff counts and splitting decisions\n";
  }
  return out.str();
}

StatusOr<analytics::ResultMap> Graphsurge::RunOnView(
    const analytics::Computation& computation, const std::string& name,
    views::ExecutionOptions options) const {
  return RunGraph(root_, computation, name, std::move(options));
}

StatusOr<analytics::ResultMap> Graphsurge::RunGraph(
    const Session& s, const analytics::Computation& computation,
    const std::string& name, views::ExecutionOptions options) const {
  GS_ASSIGN_OR_RETURN(const PropertyGraph* graph, FindGraph(s, name));
  if (options.dataflow.num_workers == 0) {
    options.dataflow.num_workers = options_.num_workers;
  }
  // Only the system's graphs share cached arrangements: a scope keyed by a
  // session view's name would alias same-named views of other sessions.
  const bool shared = &s == &root_ || s.graphs_.count(name) == 0;
  if (shared && options.arrangement_cache_scope.empty()) {
    options.arrangement_cache_scope =
        CacheScopeFor(name, graph->mutation_epoch());
  }
  return views::RunOnGraph(computation, *graph, options);
}

// --- Streaming ingest ------------------------------------------------------

StatusOr<PropertyGraph*> Graphsurge::GetMutableGraph(const std::string& name) {
  auto it = root_.graphs_.find(name);
  if (it == root_.graphs_.end()) {
    return Status::NotFound("no graph named '" + name + "'");
  }
  return &it->second;
}

Status Graphsurge::ApplyBatchInternal(const std::string& graph_name,
                                      PropertyGraph* graph,
                                      const MutationBatch& batch) {
  // Arrangements cached for the pre-mutation epoch describe a graph that no
  // longer exists; drop them (in-flight readers keep their pinned
  // snapshots). Post-mutation runs key under the bumped epoch and rebuild.
  const std::string stale_scope =
      CacheScopeFor(graph_name, graph->mutation_epoch());
  MutationEffects effects;
  GS_RETURN_IF_ERROR(ApplyMutationBatch(graph, batch, &effects));
  differential::ArrangementCache::Global().InvalidateScope(stale_scope);

  // Maintain every collection over this graph before advancing its live
  // runs: LiveRun::AdvanceEpoch requires the refreshed collection.
  for (auto& [name, mc] : root_.collections_) {
    if (mc.base_graph != graph_name) continue;
    if (!mc.maintainable()) {
      GS_LOG(Warning) << "collection '" << name
                      << "' cannot be incrementally maintained (no stored "
                         "predicates); it is now stale (graph epoch "
                      << graph->mutation_epoch() << ", collection epoch "
                      << mc.graph_epoch << ")";
      continue;
    }
    GS_RETURN_IF_ERROR(views::UpdateCollectionForMutations(
        &mc, *graph, effects.touched_edges));
  }
  for (auto& [name, entry] : live_runs_) {
    if (entry.base_graph != graph_name) continue;
    GS_RETURN_IF_ERROR(entry.run->AdvanceEpoch(effects.touched_edges));
  }

  static metrics::Counter* batches =
      metrics::Registry::Global().GetCounter("gs_ingest_batches");
  static metrics::Counter* mutations =
      metrics::Registry::Global().GetCounter("gs_ingest_mutations");
  batches->Increment();
  mutations->Increment(batch.size());
  metrics::Registry::Global()
      .GetGauge("gs_graph_epoch", {{"graph", graph_name}})
      ->Set(static_cast<int64_t>(graph->mutation_epoch()));
  return Status::Ok();
}

Status Graphsurge::EnableWal(const std::string& graph_name,
                             const std::string& wal_path,
                             wal::WalWriterOptions wal_options) {
  GS_ASSIGN_OR_RETURN(PropertyGraph* graph, GetMutableGraph(graph_name));
  if (wals_.count(graph_name) > 0) {
    return Status::AlreadyExists("graph '" + graph_name +
                                 "' already has a WAL attached");
  }
  GS_ASSIGN_OR_RETURN(wal::WalReplayResult replay, wal::ReplayWal(wal_path));
  for (size_t i = 0; i < replay.batches.size(); ++i) {
    Status s = ApplyBatchInternal(graph_name, graph, replay.batches[i]);
    if (!s.ok()) {
      return Status(s.code(), "WAL replay failed at record " +
                                  std::to_string(i) + ": " + s.message());
    }
  }
  if (replay.recovered_torn_tail) {
    GS_LOG(Warning) << "WAL '" << wal_path << "': dropped torn tail after "
                    << replay.batches.size() << " complete records";
  }
  GS_RETURN_IF_ERROR(wals_[graph_name].Open(wal_path, wal_options));
  RefreshIngestStatus();
  return Status::Ok();
}

Status Graphsurge::ApplyMutations(const std::string& graph_name,
                                  const MutationBatch& batch) {
  Timer apply_timer;
  GS_ASSIGN_OR_RETURN(PropertyGraph* graph, GetMutableGraph(graph_name));
  // Validate up front so the WAL never records a batch the apply rejects
  // (the write-ahead append must strictly precede an apply that cannot
  // fail).
  GS_RETURN_IF_ERROR(CheckMutationBatch(*graph, batch));
  auto wal_it = wals_.find(graph_name);
  if (wal_it != wals_.end()) {
    GS_RETURN_IF_ERROR(wal_it->second.Append(batch));
  }
  GS_RETURN_IF_ERROR(ApplyBatchInternal(graph_name, graph, batch));
  RefreshIngestStatus();
  // SLO: the full ingest round trip — validate, WAL append (+fsync), graph
  // apply, view maintenance, and every dependent live-run epoch advance.
  static auto* apply_nanos =
      metrics::Registry::Global().GetHistogram("gs_ingest_apply_nanos");
  apply_nanos->Observe(static_cast<uint64_t>(apply_timer.Nanos()));
  return Status::Ok();
}

StatusOr<uint64_t> Graphsurge::GraphEpoch(const std::string& graph_name) const {
  GS_ASSIGN_OR_RETURN(const PropertyGraph* graph, GetGraph(graph_name));
  return graph->mutation_epoch();
}

Status Graphsurge::StartLiveComputation(
    const std::string& name, const analytics::Computation& computation,
    const std::string& collection_name, views::LiveRunOptions options) {
  if (live_runs_.count(name) > 0) {
    return Status::AlreadyExists("live computation '" + name +
                                 "' already exists");
  }
  GS_ASSIGN_OR_RETURN(const views::MaterializedCollection* collection,
                      GetCollection(collection_name));
  GS_ASSIGN_OR_RETURN(const PropertyGraph* base,
                      GetGraph(collection->base_graph));
  if (options.dataflow.num_workers == 0) {
    options.dataflow.num_workers = options_.num_workers;
  }
  GS_ASSIGN_OR_RETURN(
      std::unique_ptr<views::LiveRun> run,
      views::LiveRun::Start(computation, *base, collection, options));
  live_runs_.emplace(name, LiveEntry{collection_name, collection->base_graph,
                                     std::move(run)});
  RefreshIngestStatus();
  return Status::Ok();
}

StatusOr<const views::LiveRun*> Graphsurge::GetLiveRun(
    const std::string& name) const {
  auto it = live_runs_.find(name);
  if (it == live_runs_.end()) {
    return Status::NotFound("no live computation named '" + name + "'");
  }
  return it->second.run.get();
}

void Graphsurge::RefreshIngestStatus() {
  std::ostringstream out;
  out << "{\"graphs\":{";
  bool first = true;
  for (const auto& [name, graph] : root_.graphs_) {
    // Only graphs on the ingest path (mutated or WAL-attached) are listed.
    if (graph.mutation_epoch() == 0 && wals_.count(name) == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << introspect::JsonEscape(name)
        << "\":{\"epoch\":" << graph.mutation_epoch()
        << ",\"live_nodes\":" << graph.num_live_nodes()
        << ",\"live_edges\":" << graph.num_live_edges();
    auto w = wals_.find(name);
    if (w != wals_.end()) {
      out << ",\"wal_bytes\":" << w->second.bytes_written();
    }
    out << "}";
  }
  out << "},\"live_runs\":{";
  first = true;
  for (const auto& [name, entry] : live_runs_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << introspect::JsonEscape(name) << "\":{\"collection\":\""
        << introspect::JsonEscape(entry.collection)
        << "\",\"epochs_fed\":" << entry.run->epochs_fed()
        << ",\"views\":" << entry.run->num_views()
        << ",\"last_epoch_input_diffs\":" << entry.run->last_epoch_input_diffs()
        << "}";
  }
  out << "}}";
  std::lock_guard<std::mutex> lock(ingest_status_mutex_);
  ingest_status_json_ = out.str();
}

std::vector<std::string> Graphsurge::GraphNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : root_.graphs_) names.push_back(name);
  return names;
}

}  // namespace gs
