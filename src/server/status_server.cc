#include "server/status_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/introspect.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace_event.h"

namespace gs::server {

namespace {

/// Newest spans per thread served by /tracez. Small enough to render in a
/// few milliseconds while a run is recording; Perfetto handles the rest.
constexpr size_t kTracezEventsPerThread = 256;

/// Cap on requests served over one keep-alive connection before the server
/// closes it — a backstop against a client holding a worker forever.
constexpr int kMaxRequestsPerConnection = 1000;

/// Accepted connections that may wait for a worker (also the listen
/// backlog); one more is answered 503 by the accept thread.
constexpr size_t kMaxQueuedConnections = 64;

}  // namespace

StatusServer::StatusServer(size_t num_threads) : num_threads_(num_threads) {
  RegisterBuiltins();
}

StatusServer::~StatusServer() { Stop(); }

void StatusServer::RegisterBuiltins() {
  Handle("/healthz", [] {
    HttpResponse r;
    r.body = "ok\n";
    return r;
  });
  Handle("/metrics", [] {
    HttpResponse r;
    r.body = metrics::Registry::Global().ExpositionText();
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return r;
  });
  Handle("/tracez", [] {
    HttpResponse r;
    r.body = trace::ToJsonTail(kTracezEventsPerThread);
    r.content_type = "application/json";
    return r;
  });
  Handle("/statusz", [] {
    HttpResponse r;
    std::string body = "{\n  \"sources\": {";
    std::vector<introspect::Rendered> sources =
        introspect::Registry::Global().Collect();
    for (size_t i = 0; i < sources.size(); ++i) {
      if (i) body += ",";
      body += "\n    \"" + introspect::JsonEscape(sources[i].name) +
              "\": " + sources[i].json;
    }
    body += "\n  }\n}\n";
    r.body = body;
    r.content_type = "application/json";
    return r;
  });
}

HttpResponse StatusServer::IndexPage() const {
  HttpResponse r;
  r.body = "graphsurge status server\n\nendpoints:\n";
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  for (const auto& [path, handler] : handlers_) {
    r.body += "  " + path + "\n";
  }
  return r;
}

void StatusServer::Handle(const std::string& path, Handler handler) {
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  handlers_[path] = std::move(handler);
}

void StatusServer::HandlePost(const std::string& path, PostHandler handler) {
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  post_handlers_[path] = std::move(handler);
}

Status StatusServer::Start(uint16_t port) {
  if (running()) return Status::InvalidArgument("status server already running");
  if (num_threads_ == 0) {
    return Status::InvalidArgument("status server needs num_threads >= 1");
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Internal("bind(127.0.0.1:" + std::to_string(port) +
                            ") failed: " + std::strerror(errno));
  }
  if (::listen(fd, static_cast<int>(kMaxQueuedConnections)) != 0) {
    ::close(fd);
    return Status::Internal("listen() failed");
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    ::close(fd);
    return Status::Internal("getsockname() failed");
  }
  if (::pipe(wake_pipe_) != 0) {
    ::close(fd);
    return Status::Internal("pipe() failed");
  }

  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  running_.store(true, std::memory_order_release);
  // Dedicated threads, not a compute pool: the accept loop blocks in
  // poll() indefinitely and a worker blocks on its client's socket.
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  GS_LOG(Info) << "server listening on http://127.0.0.1:" << port_;
  return Status::Ok();
}

void StatusServer::Stop() {
  {
    // Under the queue mutex: a worker between its wait predicate and its
    // block would otherwise miss the notify_all below, and no worker can
    // close a connection of serving_ while it is shut down here.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!running_.exchange(false)) return;
    // End the read side of every connection being served: a worker blocked
    // in recv on an idle keep-alive client returns at once, while writes
    // still go through, so a request being handled gets its response.
    for (int fd : serving_) ::shutdown(fd, SHUT_RD);
  }
  // Self-pipe: wake the poll() so the accept loop sees running_ == false.
  char byte = 'q';
  ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  (void)ignored;
  accept_thread_.join();
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  for (int fd : queue_) ::close(fd);
  queue_.clear();
  ::close(listen_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  listen_fd_ = -1;
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

void StatusServer::AcceptLoop() {
  static metrics::Counter* rejected = metrics::Registry::Global().GetCounter(
      "gs_query_server_rejected_queue_full");
  // Rendered once: the answer to a connection that finds the queue full.
  HttpResponse overloaded;
  overloaded.status_code = 503;
  overloaded.content_type = "application/json";
  overloaded.body =
      "{\"ok\": false, \"error\": \"server overloaded: connection queue "
      "is full\"}\n";
  const std::string overloaded_wire =
      http::RenderResponse(overloaded, /*keep_alive=*/false);
  while (running()) {
    pollfd fds[2] = {};
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!running()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    // Bound how long a stalled client can hold a worker (or, for the 503
    // below, the accept thread).
    timeval timeout = {};
    timeout.tv_sec = read_timeout_ms_ / 1000;
    timeout.tv_usec = (read_timeout_ms_ % 1000) * 1000;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() < kMaxQueuedConnections) {
        queue_.push_back(client);
        queue_cv_.notify_one();
        continue;
      }
    }
    rejected->Increment();
    http::WriteAll(client, overloaded_wire);
    ::close(client);
  }
}

void StatusServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || !running(); });
      if (!running()) return;  // Stop() closes what is still queued
      fd = queue_.front();
      queue_.pop_front();
      serving_.push_back(fd);
    }
    ServeConnection(fd);
    {
      // Out of serving_ before the close, so Stop() never shuts down a
      // descriptor number that has been reused.
      std::lock_guard<std::mutex> lock(queue_mutex_);
      serving_.erase(std::find(serving_.begin(), serving_.end(), fd));
    }
    ::close(fd);
  }
}

void StatusServer::ServeConnection(int fd) {
  std::string buffer;
  for (int served = 0; served < kMaxRequestsPerConnection; ++served) {
    http::ReadResult in = http::ReadRequest(fd, &buffer);
    if (in.kind == http::ReadResult::Kind::kClosed) return;
    if (in.kind == http::ReadResult::Kind::kError) {
      http::WriteAll(fd, http::RenderResponse(in.error, /*keep_alive=*/false));
      return;
    }
    const http::Request& request = in.request;
    const HttpResponse response = Route(request);
    const bool keep_alive =
        request.keep_alive && served + 1 < kMaxRequestsPerConnection;
    std::string wire = http::RenderResponse(response, keep_alive);
    // HEAD: same headers as GET — Content-Length advertises the GET body —
    // but no body bytes on the wire (RFC 7231 §4.3.2).
    if (request.method == "HEAD") wire.resize(wire.find("\r\n\r\n") + 4);
    http::WriteAll(fd, wire);
    if (!keep_alive) return;
  }
}

HttpResponse StatusServer::Route(const http::Request& request) const {
  if (request.method == "GET" || request.method == "HEAD") {
    return Dispatch(request.path);
  }
  PostHandler handler;
  bool is_page = request.path == "/";
  {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    auto it = post_handlers_.find(request.path);
    if (request.method == "POST" && it != post_handlers_.end()) {
      handler = it->second;
    }
    is_page = is_page || handlers_.count(request.path) != 0;
  }
  // Invoked outside handlers_mutex_, like the pages in Dispatch().
  if (handler) return handler(request);
  HttpResponse r;
  if (request.method == "POST" && !is_page) {
    r.status_code = 404;
    r.body = "no POST handler for " + request.path + "\n";
  } else {
    r.status_code = 405;
    r.body = "method " + request.method + " not allowed on " + request.path +
             "\n";
  }
  return r;
}

HttpResponse StatusServer::Dispatch(const std::string& path) const {
  // Counting scrapes here also guarantees /metrics is never empty: by the
  // time a scraper reads it, its own request has registered the family.
  static metrics::Counter* requests =
      metrics::Registry::Global().GetCounter("gs_status_server_requests");
  requests->Increment();
  if (path == "/" || path.empty()) return IndexPage();
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    auto it = handlers_.find(path);
    if (it != handlers_.end()) handler = it->second;
  }
  if (!handler) {
    HttpResponse r;
    r.status_code = 404;
    r.body = "no handler for " + path + "\n";
    return r;
  }
  // Invoked outside handlers_mutex_ so a slow render never blocks Handle().
  return handler();
}

StatusServer& StatusServer::Global() {
  static StatusServer* server = new StatusServer();
  return *server;
}

bool StatusServer::MaybeStartFromEnv() {
  StatusServer& server = Global();
  if (server.running()) return true;
  const char* env = std::getenv("GRAPHSURGE_STATUS_PORT");
  if (env == nullptr || *env == '\0') return false;
  char* end = nullptr;
  long port = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || port < 0 || port > 65535) {
    GS_LOG(Warning) << "ignoring invalid GRAPHSURGE_STATUS_PORT: " << env;
    return false;
  }
  Status status = server.Start(static_cast<uint16_t>(port));
  if (!status.ok()) {
    GS_LOG(Warning) << "status server failed to start: " << status.ToString();
    return false;
  }
  return true;
}

}  // namespace gs::server
