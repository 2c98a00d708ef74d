// The Graphsurge system facade (paper Figure 4): graph store, view &
// collection store, GVDL entry point, and the analytics computation
// executor with the ordering and adaptive splitting optimizers.
//
// Quickstart:
//   gs::Graphsurge system;
//   system.LoadGraphCsv("Calls", "nodes.csv", "edges.csv");
//   system.Execute("create view collection C on Calls "
//                  "[v1: year <= 2015], [v2: year <= 2019]");
//   gs::analytics::Wcc wcc;
//   auto result = system.RunComputation(wcc, "C", options);
#ifndef GRAPHSURGE_API_GRAPHSURGE_H_
#define GRAPHSURGE_API_GRAPHSURGE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregate_view.h"
#include "common/introspect.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/csv.h"
#include "graph/graph.h"
#include "graph/mutation.h"
#include "graph/wal/wal.h"
#include "gvdl/parser.h"
#include "views/collection.h"
#include "views/executor.h"
#include "views/live.h"

namespace gs {

struct GraphsurgeOptions {
  /// Worker parallelism for view materialization and for the differential
  /// engine's sharded multi-worker execution (paper: TD/DD workers).
  /// Computations use it unless their ExecutionOptions or LiveRunOptions
  /// set dataflow.num_workers, whose default 0 means "system default".
  size_t num_workers = 1;
  /// Apply the collection ordering optimizer when materializing
  /// collections (paper §4). Off by default, as in the paper's
  /// user-given-order workloads.
  bool order_collections = false;
};

/// What one statement run by Graphsurge::Execute(Session*, ...) did.
struct StatementResult {
  enum class Kind {
    kDefinitions,  // GVDL: create view [collection | ... aggregate], explain
    kRun,          // run <algorithm> on <target> [weight <column>]
    kResults,      // get results: read Session::last_results()
  };
  Kind kind = Kind::kDefinitions;
  /// kDefinitions: the names created, in statement order, and the plan text
  /// of every `explain` statement.
  std::vector<std::string> created;
  std::string plan;
  /// kRun: the computation's name, the target, and how many views it ran.
  std::string algorithm;
  std::string target;
  size_t views = 0;
};

/// The top-level system. Owns loaded graphs, materialized filtered views
/// (as subgraphs), aggregate views, and view collections. All names share
/// one namespace, as in the paper's GVDL (`on` may reference any graph or
/// materialized filtered view).
class Graphsurge {
 public:
  /// A private statement namespace: the filtered views, view collections
  /// and aggregate views its statements create, the last run per
  /// collection (for explain), and the last run's results. Name lookups
  /// fall back to the system's graphs. A session is not thread-safe;
  /// distinct sessions may execute concurrently while the system's graphs
  /// stay unchanged.
  class Session {
   public:
    const std::string& last_target() const { return last_target_; }
    /// (view name, vertex→value) per view of the last run, in execution
    /// order.
    const std::vector<std::pair<std::string, analytics::ResultMap>>&
    last_results() const {
      return last_results_;
    }

   private:
    friend class Graphsurge;
    std::map<std::string, PropertyGraph> graphs_;
    std::map<std::string, views::MaterializedCollection> collections_;
    std::map<std::string, agg::AggregateView> aggregate_views_;
    /// Last ExecutionResult per collection, without its captured results.
    /// Guarded by Graphsurge::run_state_mutex_: const runs write it.
    mutable std::map<std::string, views::ExecutionResult> last_runs_;
    std::string last_target_;
    std::vector<std::pair<std::string, analytics::ResultMap>> last_results_;
  };

  explicit Graphsurge(GraphsurgeOptions options = GraphsurgeOptions());
  ~Graphsurge();

  Graphsurge(const Graphsurge&) = delete;
  Graphsurge& operator=(const Graphsurge&) = delete;

  // --- Graph store ---------------------------------------------------------
  Status LoadGraphCsv(const std::string& name, const std::string& nodes_path,
                      const std::string& edges_path);
  Status AddGraph(const std::string& name, PropertyGraph graph);
  StatusOr<const PropertyGraph*> GetGraph(const std::string& name) const;

  // --- Statements ----------------------------------------------------------
  /// Execute(session, gvdl) on the system's own namespace: materializes
  /// filtered views (as subgraphs usable in later `on` clauses), view
  /// collections, and aggregate views; logs explain plans.
  Status Execute(const std::string& gvdl);

  /// Executes one statement in `session`:
  ///   create view ... / create view collection ... / explain <collection>
  ///       GVDL (a script of several statements is allowed)
  ///   run <algorithm> on <target> [weight <column>]
  ///       <algorithm> is wcc | scc | pagerank[(iters)] | bfs(src) |
  ///       bellman-ford(src) | mpsp(s:d[,s:d...]); <target> is a session
  ///       collection (every view) or a session view or system graph.
  ///   get results
  /// Runs on the system's graphs share arrangements through
  /// ArrangementCacheScope; runs on session views never use the cache.
  StatusOr<StatementResult> Execute(Session* session,
                                    const std::string& statement) const;

  StatusOr<const views::MaterializedCollection*> GetCollection(
      const std::string& name) const;
  StatusOr<const agg::AggregateView*> GetAggregateView(
      const std::string& name) const;

  /// Programmatic view collection over arbitrary edge predicates (for
  /// applications whose views are not GVDL-expressible). `use_ordering`
  /// overrides the system default; pass explicit_order for baselines.
  Status CreateCollection(const std::string& name,
                          const std::string& base_graph,
                          const std::vector<std::string>& view_names,
                          const std::vector<std::function<bool(EdgeId)>>&
                              predicates,
                          const views::MaterializeOptions* materialize_options
                          = nullptr);

  // --- Analytics -----------------------------------------------------------
  /// Runs a computation over every view of a collection.
  StatusOr<views::ExecutionResult> RunComputation(
      const analytics::Computation& computation,
      const std::string& collection_name,
      views::ExecutionOptions options = views::ExecutionOptions()) const;

  /// Runs a computation on a single graph or materialized view.
  StatusOr<analytics::ResultMap> RunOnView(
      const analytics::Computation& computation, const std::string& name,
      views::ExecutionOptions options = views::ExecutionOptions()) const;

  /// Renders the optimizer's plan for the materialized collection `name`:
  /// chosen view order with the estimated per-position difference-set
  /// sizes and the ordering decision (ds under the chosen order vs the
  /// user-given order). After a RunComputation over the collection it is
  /// also that run's report: per view the mode, the actual input and output
  /// diff counts, the milliseconds and each operator's milliseconds; the
  /// run's engine counters; and the splitting decision per chunk with both
  /// cost-model predictions. A session's `explain <name>` statement renders
  /// the same report for the session's own last run.
  StatusOr<std::string> Explain(const std::string& name) const;

  // --- Streaming ingest ----------------------------------------------------
  /// Attaches a write-ahead log to `graph_name`. Any records already in
  /// `wal_path` are replayed into the graph first (restart recovery: the
  /// graph must be the same base snapshot the log was originally written
  /// against), updating maintainable collections and advancing live
  /// computations epoch-by-epoch. Subsequent ApplyMutations calls append to
  /// the log *before* touching the graph (write-ahead).
  Status EnableWal(const std::string& graph_name, const std::string& wal_path,
                   wal::WalWriterOptions wal_options = {});

  /// Applies one mutation batch atomically as the graph's next update
  /// epoch: validate → WAL append + sync (when a log is attached) → apply →
  /// incrementally update every maintainable collection on the graph →
  /// advance every live computation over those collections by one epoch.
  /// Collections that cannot be maintained (diff-batch imports) go stale
  /// and are logged.
  Status ApplyMutations(const std::string& graph_name,
                        const MutationBatch& batch);

  /// The graph's current mutation epoch — the number of batches applied,
  /// including batches replayed from the WAL.
  StatusOr<uint64_t> GraphEpoch(const std::string& graph_name) const;

  /// Starts a continuously maintained computation over a maintainable
  /// collection. ApplyMutations on the collection's base graph advances the
  /// run automatically; query any (epoch, view) cell via GetLiveRun(name)
  /// → LiveRun::ResultsAt.
  Status StartLiveComputation(const std::string& name,
                              const analytics::Computation& computation,
                              const std::string& collection_name,
                              views::LiveRunOptions options =
                                  views::LiveRunOptions());
  StatusOr<const views::LiveRun*> GetLiveRun(const std::string& name) const;

  ThreadPool* pool() const { return pool_.get(); }
  const GraphsurgeOptions& options() const { return options_; }

  /// The shared-arrangement cache scope RunOnView uses for `graph_name`:
  /// "gs<instance>/<graph>@<epoch>". Process-unique per (instance, graph,
  /// mutation epoch), so concurrent sessions of one system share cached
  /// arrangements while other instances (or post-mutation runs) never
  /// alias. ApplyMutations invalidates the superseded epoch's entries; the
  /// destructor drops everything under "gs<instance>/".
  std::string ArrangementCacheScope(const std::string& graph_name) const;

  /// Names of stored graphs/views (diagnostics, examples).
  std::vector<std::string> GraphNames() const;

 private:
  /// Lookups in `s`; graphs fall back to the system's own namespace.
  StatusOr<const PropertyGraph*> FindGraph(const Session& s,
                                           const std::string& name) const;
  StatusOr<const views::MaterializedCollection*> FindCollection(
      const Session& s, const std::string& name) const;
  Status CheckNameFree(const Session& s, const std::string& name) const;
  std::string CacheScopeFor(const std::string& graph_name,
                            uint64_t epoch) const;
  /// Materializes each GVDL statement of `script` into `s`.
  Status ExecuteGvdl(Session* s, const std::string& script,
                     StatementResult* out) const;
  StatusOr<StatementResult> ExecuteRun(
      Session* s, const std::vector<std::string>& tokens) const;
  StatusOr<views::ExecutionResult> RunCollection(
      const Session& s, const analytics::Computation& computation,
      const std::string& name, views::ExecutionOptions options) const;
  StatusOr<analytics::ResultMap> RunGraph(
      const Session& s, const analytics::Computation& computation,
      const std::string& name, views::ExecutionOptions options) const;
  StatusOr<std::string> ExplainCollection(const Session& s,
                                          const std::string& name) const;
  /// Non-const lookup for the ingest path (ApplyMutations mutates graphs).
  StatusOr<PropertyGraph*> GetMutableGraph(const std::string& name);
  /// Applies one batch end-to-end (no WAL append): graph, collections, live
  /// runs, metrics. Shared by ApplyMutations and EnableWal's replay.
  Status ApplyBatchInternal(const std::string& graph_name,
                            PropertyGraph* graph, const MutationBatch& batch);
  /// Rebuilds the /statusz "ingest" snapshot (epochs, WAL sizes, live-run
  /// progress). Called at the end of every ingest-path mutation.
  void RefreshIngestStatus();

  GraphsurgeOptions options_;
  /// Process-unique instance number prefixing every arrangement-cache
  /// scope this system creates.
  uint64_t instance_id_;
  std::unique_ptr<ThreadPool> pool_;
  /// Guards every Session::last_runs_. Runs are logically const — they
  /// mutate no stored graph or collection — so concurrent RunComputation
  /// calls on the system's own namespace may replace one session's reports
  /// while Explain() reads them.
  mutable std::mutex run_state_mutex_;
  /// The system's own namespace: loaded graphs, filtered views,
  /// collections and aggregate views.
  Session root_;

  // --- Streaming ingest state ---------------------------------------------
  /// Per-graph WAL appenders (WalWriter is neither copyable nor movable;
  /// operator[] constructs in place).
  std::map<std::string, wal::WalWriter> wals_;
  struct LiveEntry {
    std::string collection;
    std::string base_graph;
    std::unique_ptr<views::LiveRun> run;
  };
  std::map<std::string, LiveEntry> live_runs_;
  /// /statusz snapshot: ingest-path methods rebuild it at safe points; the
  /// scrape thread's producer only copies it under the mutex.
  mutable std::mutex ingest_status_mutex_;
  std::string ingest_status_json_ = "{}";
  /// Declared last: destroyed (unregistered) before the state it renders.
  introspect::ScopedSource ingest_source_;
};

}  // namespace gs

#endif  // GRAPHSURGE_API_GRAPHSURGE_H_
