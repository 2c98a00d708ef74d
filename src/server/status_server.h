// Embedded HTTP/1.1 status server: live introspection of a running engine
// without attaching a debugger or stopping the dataflow.
//
// Design constraints, in order:
//   1. Zero dependencies — raw POSIX sockets and poll(), nothing else. The
//      server speaks just enough HTTP/1.1 (GET, Connection: close) for curl,
//      a browser, or a Prometheus scraper.
//   2. Never perturb the computation — handlers only read snapshots that the
//      engine refreshes at its own safe points (barriers, version seals) or
//      data structures that are internally synchronized (metrics registry,
//      trace_event ring buffers, introspect registry). The accept/serve loop
//      runs on one dedicated thread; a slow client blocks other scrapes, not
//      the dataflow.
//   3. Opt-in — nothing listens unless the process sets
//      GRAPHSURGE_STATUS_PORT=<port> or calls StatusServer::Start (the api
//      layer exposes Graphsurge::StartStatusServer). Binds 127.0.0.1 only:
//      this is an operator-facing debug port, not a public service.
//
// Built-in endpoints:
//   /healthz    watchdog-evaluated health: 200 "ok\n" while no rule is
//               violated, 503 with a JSON body naming the violated rules
//               otherwise (HEAD mirrors the status code)
//   /metrics    Prometheus exposition text (metrics registry)
//   /timeseriez sampled metric history (common/timeseries) as JSON
//   /tracez     newest trace_event spans per thread, Chrome trace JSON
//   /statusz    every registered introspection source (running dataflows
//               publish their operator/channel/frontier snapshots here;
//               the health plane publishes rollups + sparklines)
//   /           plain-text index of the registered paths
// Additional paths (e.g. /profilez) are registered via Handle().
#ifndef GRAPHSURGE_SERVER_STATUS_SERVER_H_
#define GRAPHSURGE_SERVER_STATUS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "server/http.h"

namespace gs::server {

/// A status server bound to one port. Typically accessed through the
/// process-wide instance (StatusServer::Global()), which the api layer
/// starts; standalone instances are used by tests.
class StatusServer {
 public:
  using Handler = std::function<HttpResponse()>;

  StatusServer();
  ~StatusServer();  // calls Stop()

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  /// Binds 127.0.0.1:`port` and starts the serve thread. `port` == 0 picks
  /// an ephemeral port (see port()). Fails if already running or the bind
  /// fails (e.g. port in use).
  Status Start(uint16_t port);

  /// Stops the serve thread and closes the listening socket. Idempotent;
  /// safe to call while a request is in flight (it finishes first).
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolved after Start; meaningful with port 0).
  uint16_t port() const { return port_; }

  /// Registers `handler` for GET `path` (must start with '/'). Replaces any
  /// existing handler for the same path. Safe to call while serving.
  void Handle(const std::string& path, Handler handler);

  /// Socket receive/send timeout applied to accepted connections (how long
  /// a stalled client may hold the single serve thread). Default 5000;
  /// set before Start(). Exposed so tests can exercise the timeout path
  /// without 5-second waits.
  void set_read_timeout_ms(int ms) { read_timeout_ms_ = ms; }

  /// Serves an already-accepted connection until the client closes, the
  /// exchange turns `Connection: close`, or a protocol error ends it
  /// (exposed for tests; the serve loop uses it internally). Pipelined
  /// requests on one connection are served in order.
  void ServeConnection(int fd);

  /// Routes a path to its registered handler ("/" renders the index, an
  /// unknown path a 404). Public so the query-serving front end can mount
  /// this registry's pages on its own listener.
  HttpResponse Dispatch(const std::string& path) const;

  /// The process-wide server used by GRAPHSURGE_STATUS_PORT and the api
  /// layer. Never destroyed.
  static StatusServer& Global();

  /// Starts Global() on GRAPHSURGE_STATUS_PORT if the variable is set and
  /// the server is not yet running. Returns true if the server is running
  /// on return. Logs and returns false on bind failure (an observability
  /// port must never take down the computation).
  static bool MaybeStartFromEnv();

 private:
  void ServeLoop();
  HttpResponse IndexPage() const;

  void RegisterBuiltins();

  std::atomic<bool> running_{false};
  int read_timeout_ms_ = 5000;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: Stop() wakes the poll()
  uint16_t port_ = 0;
  std::thread thread_;

  mutable std::mutex handlers_mutex_;
  std::map<std::string, Handler> handlers_;
};

}  // namespace gs::server

#endif  // GRAPHSURGE_SERVER_STATUS_SERVER_H_
