// The query-serving front end: GVDL statements and analytics requests over
// HTTP/JSON, executed by api::Graphsurge sessions against the graphs its
// host system holds, on a cooperative worker pool.
//
// Protocol (all bodies JSON objects with string values):
//   POST /session        {"session": "alice"}
//       Creates a session (admission-controlled: past the session cap the
//       answer is a deterministic 503). Sessions are also created lazily by
//       the first /query that names them.
//   POST /session/close  {"session": "alice"}
//       Tears the session down; its collections, views, and results vanish.
//   POST /query          {"session": "alice", "statement": "..."}
//       Executes one statement in the session's Graphsurge::Session (see
//       Graphsurge::Execute for the grammar):
//         create view ... / create view collection ... / explain C
//             GVDL. Filtered views, collections and aggregate views land in
//             the session's private namespace; `on` resolves session names
//             first, then host graphs. Answers {"created": [...]} plus, for
//             explain, the plan text as "plan": after the session's last
//             run on C, that run's per-view and per-operator report
//             (Graphsurge::Explain).
//         run <algorithm> on <target> [weight <column>]
//             Answers {"algorithm", "target", "views"}. Runs on a host graph
//             go through the process-level arrangement cache
//             (differential/arrcache.h), so concurrent sessions running on
//             the same graph build the adjacency arrangements once.
//         get results
//             The per-view results of the session's last run, rendered
//             deterministically (std::map order) — two sessions that ran
//             the same statement read byte-identical bodies.
//       Errors answer {"ok": false, "error"}: 400 for InvalidArgument,
//       NotFound, AlreadyExists and GVDL parse errors, 500 otherwise. A
//       POST to any other path answers 404 (405 on a page's path), and
//       other methods 405, in plain text from the listener.
//   GET <path>
//       Every status page (/healthz, /metrics, /statusz, /tracez) and
//       /sessionz (this server's session table), so one scrape target
//       covers serving and engine state. `/` lists them.
//
// Concurrency model: the front end owns no socket or thread. Its routes
// are registered on a StatusServer of its own (server/status_server.h)
// started with `num_threads` workers: one accept thread, a bounded
// connection queue whose overflow answers 503 at once, and the workers,
// each running whole statements. Statements within a session serialize on
// the session's mutex; distinct sessions execute in parallel. Host graphs
// are fixed once Start() is called, so sessions read them without a lock.
#ifndef GRAPHSURGE_SERVER_QUERY_SERVER_H_
#define GRAPHSURGE_SERVER_QUERY_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "api/graphsurge.h"
#include "common/status.h"
#include "graph/graph.h"
#include "server/status_server.h"

namespace gs::server {

struct QueryServerOptions {
  /// Request-serving worker threads (each runs whole statements, including
  /// analytics, so this bounds concurrent dataflow runs). Must be >= 1.
  size_t num_threads = 4;
  /// Admission control: sessions beyond this answer 503.
  size_t max_sessions = 16;
  /// Dataflow worker shards per analytics run.
  size_t num_workers = 1;
};

class QueryServer {
 public:
  explicit QueryServer(QueryServerOptions options = QueryServerOptions());
  ~QueryServer();  // calls Stop()

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Starts the listener on 127.0.0.1:`port` (0 picks an ephemeral port;
  /// see port()).
  Status Start(uint16_t port) { return listener_.Start(port); }

  /// Stops the listener (see StatusServer::Stop). Idempotent.
  void Stop() { listener_.Stop(); }

  bool running() const { return listener_.running(); }
  uint16_t port() const { return listener_.port(); }

  // --- Host graph store ----------------------------------------------------
  // Shared across sessions, read-only to them. Fails while the server is
  // running: sessions read the host graphs without a lock.
  Status AddGraph(const std::string& name, PropertyGraph graph);
  Status LoadGraphCsv(const std::string& name, const std::string& nodes_path,
                      const std::string& edges_path);

  /// The arrangement-cache scope `run ... on <graph_name>` uses (the host
  /// system's Graphsurge::ArrangementCacheScope). Exposed so tests can
  /// interrogate differential::ArrangementCache::Stats for exactly this
  /// server's entries.
  std::string ArrangementCacheScope(const std::string& graph_name) const {
    return host_.ArrangementCacheScope(graph_name);
  }

  size_t num_sessions() const;

 private:
  struct Session {
    std::mutex mutex;
    Graphsurge::Session state;
  };

  HttpResponse HandleSessionOpen(const http::Request& request);
  HttpResponse HandleSessionClose(const http::Request& request);
  HttpResponse HandleQuery(const http::Request& request);

  /// Finds-or-creates the named session under admission control. Returns
  /// nullptr (and fills `error`) when the cap is hit.
  std::shared_ptr<Session> AdmitSession(const std::string& name,
                                        HttpResponse* error);

  std::string SessionzJson() const;

  const QueryServerOptions options_;
  /// The host store and statement executor every session runs on.
  Graphsurge host_;

  mutable std::mutex sessions_mutex_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;

  /// Serves the status pages plus this front end's routes and pages.
  StatusServer listener_;
};

}  // namespace gs::server

#endif  // GRAPHSURGE_SERVER_QUERY_SERVER_H_
