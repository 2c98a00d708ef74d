// The embedded HTTP/1.1 listener: live introspection of a running engine
// without attaching a debugger or stopping the dataflow, and the one
// listener every HTTP front end runs on (the query-serving front end in
// server/query_server.h mounts its POST routes on a StatusServer of its
// own).
//
// Design constraints, in order:
//   1. Zero dependencies — raw POSIX sockets and poll(), nothing else. The
//      server speaks the HTTP/1.1 subset of server/http.h (GET, HEAD and
//      Content-Length POST, keep-alive, pipelining) for curl, a browser, or
//      a Prometheus scraper.
//   2. Never perturb the computation — page handlers only read snapshots
//      that the engine refreshes at its own safe points (barriers, version
//      seals) or data structures that are internally synchronized (metrics
//      registry, trace_event ring buffers, introspect registry). The
//      listener runs on its own threads, never on a compute pool.
//   3. Opt-in — nothing listens unless the process sets
//      GRAPHSURGE_STATUS_PORT=<port> or calls StatusServer::Start (the api
//      layer exposes Graphsurge::StartStatusServer). Binds 127.0.0.1 only:
//      this is an operator-facing port, not a public service.
//
// Concurrency model: one accept thread hands connections to a bounded
// queue (64 slots) drained by `num_threads` workers, each of which serves
// one connection at a time until the client closes it, asks for
// `Connection: close`, or reaches 1000 requests. A connection arriving
// while the queue is full is answered at once with a canned 503 JSON body
// and closed (counted by gs_query_server_rejected_queue_full), so latency
// never grows without bound. A process's status pages run with one worker.
//
// Built-in pages:
//   /healthz    watchdog-evaluated health: 200 "ok\n" while no rule is
//               violated, 503 with a JSON body naming the violated rules
//               otherwise (HEAD mirrors the status code)
//   /metrics    Prometheus exposition text (metrics registry)
//   /tracez     newest trace_event spans per thread, Chrome trace JSON
//   /statusz    every registered introspection source: each running
//               dataflow publishes its operator/channel/frontier snapshot
//               and, under "sched", its per-worker time attribution; the
//               watchdog publishes its health verdict
//   /           plain-text index of the registered pages
// More pages (the api layer's /profilez, the query front end's /sessionz)
// are registered via Handle(), POST routes via HandlePost(). A POST to a
// path without a POST route answers 405 if the path is a page and 404
// otherwise; methods other than GET, HEAD and POST answer 405.
#ifndef GRAPHSURGE_SERVER_STATUS_SERVER_H_
#define GRAPHSURGE_SERVER_STATUS_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "server/http.h"

namespace gs::server {

/// A listener bound to one port. Typically accessed through the
/// process-wide instance (StatusServer::Global()), which the api layer
/// starts; the query front end and tests own standalone instances.
class StatusServer {
 public:
  /// A GET (or HEAD) page: a parameterless view of process state.
  using Handler = std::function<HttpResponse()>;
  /// A POST route: answers the parsed request (its body is the payload).
  using PostHandler = std::function<HttpResponse(const http::Request&)>;

  /// `num_threads` workers serve accepted connections; Start() rejects 0.
  explicit StatusServer(size_t num_threads = 1);
  ~StatusServer();  // calls Stop()

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  /// Binds 127.0.0.1:`port` and starts the accept thread plus the workers.
  /// `port` == 0 picks an ephemeral port (see port()). Fails if already
  /// running, if there are no workers, or if the bind fails (e.g. port in
  /// use).
  Status Start(uint16_t port);

  /// Stops accepting, closes the connections still queued, shuts down the
  /// read side of the connections being served, and joins every thread.
  /// An idle keep-alive client does not hold Stop() up; a request already
  /// being handled still gets its response. Idempotent; the server may be
  /// started again.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolved after Start; meaningful with port 0).
  uint16_t port() const { return port_; }

  /// Registers `handler` for GET `path` (must start with '/'). Replaces any
  /// existing handler for the same path. Safe to call while serving.
  void Handle(const std::string& path, Handler handler);

  /// Registers `handler` for POST `path`, likewise.
  void HandlePost(const std::string& path, PostHandler handler);

  /// Socket receive/send timeout applied to accepted connections (how long
  /// a stalled client may hold a worker). Default 5000; set before
  /// Start(). Exposed so tests can exercise the timeout path without
  /// 5-second waits.
  void set_read_timeout_ms(int ms) { read_timeout_ms_ = ms; }

  /// Serves an already-accepted connection until the client closes, the
  /// exchange turns `Connection: close`, or a protocol error ends it
  /// (exposed for tests; the workers use it internally). Pipelined
  /// requests on one connection are served in order.
  void ServeConnection(int fd);

  /// The process-wide server used by GRAPHSURGE_STATUS_PORT and the api
  /// layer. Never destroyed.
  static StatusServer& Global();

  /// Starts Global() on GRAPHSURGE_STATUS_PORT if the variable is set and
  /// the server is not yet running. Returns true if the server is running
  /// on return. Logs and returns false on bind failure (an observability
  /// port must never take down the computation).
  static bool MaybeStartFromEnv();

 private:
  void AcceptLoop();
  void WorkerLoop();

  /// Routes one request: pages for GET and HEAD, POST routes for POST.
  HttpResponse Route(const http::Request& request) const;
  /// Renders the page at `path` ("/" is the index, an unknown path a 404).
  HttpResponse Dispatch(const std::string& path) const;
  HttpResponse IndexPage() const;

  void RegisterBuiltins();

  const size_t num_threads_;
  std::atomic<bool> running_{false};
  int read_timeout_ms_ = 5000;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: Stop() wakes the poll()
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  /// Accepted connections awaiting a worker, and those the workers are
  /// serving. Stop() clears running_ under this mutex so no waiting worker
  /// misses the wakeup, and shuts down serving_ under it.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;
  std::vector<int> serving_;

  mutable std::mutex handlers_mutex_;
  std::map<std::string, Handler> handlers_;
  std::map<std::string, PostHandler> post_handlers_;
};

}  // namespace gs::server

#endif  // GRAPHSURGE_SERVER_STATUS_SERVER_H_
