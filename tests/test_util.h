// Shared helpers for tests: driving a Computation over a sequence of edge
// difference batches, converting captured outputs to plain maps, and
// raw-socket HTTP clients for exercising the embedded servers exactly as a
// network peer would (no client library smoothing over protocol edges).
#ifndef GRAPHSURGE_TESTS_TEST_UTIL_H_
#define GRAPHSURGE_TESTS_TEST_UTIL_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/computation.h"
#include "algorithms/reference.h"
#include "common/metrics.h"
#include "common/random.h"
#include "differential/differential.h"
#include "graph/types.h"

namespace gs::testutil {

using analytics::ResultMap;
using analytics::VertexValue;
namespace dd = ::gs::differential;

/// Drives one analytics computation over successive edge difference sets.
class ComputationRunner {
 public:
  explicit ComputationRunner(
      const analytics::Computation& computation,
      dd::DataflowOptions options = dd::DataflowOptions())
      : dataflow_(options), edges_(&dataflow_) {
    capture_ = dd::Capture(computation.GraphAnalytics(edges_.stream()));
  }

  /// Applies `diffs` as the next version and runs to fixpoint.
  void Advance(const dd::Batch<WeightedEdge>& diffs) {
    for (const auto& u : diffs) edges_.Send(u.data, u.diff);
    Status s = dataflow_.Step();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  /// Accumulated result at `version` as a map; fails the test if any record
  /// has multiplicity != 1 (all our computations are functional).
  ResultMap ResultAt(uint32_t version) const {
    ResultMap m;
    for (const auto& u : capture_->AccumulatedAt(version)) {
      EXPECT_EQ(u.diff, 1) << "key " << u.data.first << " has multiplicity "
                           << u.diff << " at version " << version;
      m[u.data.first] = u.data.second;
    }
    return m;
  }

  uint64_t DiffMagnitudeAt(uint32_t version) const {
    return dd::UpdateMagnitude(capture_->VersionDiffs(version));
  }

  dd::Dataflow& dataflow() { return dataflow_; }

 private:
  dd::Dataflow dataflow_;
  dd::Input<WeightedEdge> edges_;
  dd::CaptureOp<VertexValue>* capture_;
};

/// Accumulates edge difference batches into a concrete edge list for the
/// reference oracles. Multiplicities must resolve to {0, 1}.
class EdgeAccumulator {
 public:
  void Apply(const dd::Batch<WeightedEdge>& diffs) {
    for (const auto& u : diffs) {
      auto [it, inserted] = counts_.try_emplace(u.data, 0);
      it->second += u.diff;
      EXPECT_GE(it->second, 0);
      EXPECT_LE(it->second, 1);
      if (it->second == 0) counts_.erase(it);
    }
  }

  std::vector<WeightedEdge> Edges() const {
    std::vector<WeightedEdge> out;
    out.reserve(counts_.size());
    for (const auto& [e, c] : counts_) out.push_back(e);
    return out;
  }

 private:
  std::map<WeightedEdge, int> counts_;
};

/// Random weighted edge over `n` vertices.
inline WeightedEdge RandomEdge(Rng& rng, uint64_t n, int64_t max_weight = 9) {
  uint64_t src = rng.Index(n);
  uint64_t dst = rng.Index(n);
  if (src == dst) dst = (dst + 1) % n;
  return WeightedEdge{src, dst, rng.Uniform(1, max_weight)};
}

// --- Raw-socket HTTP client ------------------------------------------------
// Shared by every server test (status server, query server): one
// implementation of "speak bytes at a loopback port" so
// protocol-conformance expectations are identical across suites.

struct HttpReply {
  int status_code = 0;
  std::string body;
  std::string raw;  // status line + headers + body as received
};

/// Connects to 127.0.0.1:`port` and sends `request` verbatim. Returns the
/// connected socket, or -1.
inline int HttpConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

inline void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

inline std::string RecvToEof(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

/// Splits one HTTP response off the front of `stream` (using its
/// Content-Length), filling `reply`. Returns false when the stream does
/// not hold a complete response.
inline bool PopHttpReply(std::string* stream, HttpReply* reply) {
  size_t header_end = stream->find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  const std::string head = stream->substr(0, header_end + 4);
  size_t body_len = 0;
  size_t cl = head.find("Content-Length: ");
  if (cl != std::string::npos) {
    body_len = static_cast<size_t>(
        std::atoll(head.c_str() + cl + sizeof("Content-Length: ") - 1));
  }
  if (stream->size() < header_end + 4 + body_len) return false;
  reply->raw = stream->substr(0, header_end + 4 + body_len);
  reply->body = stream->substr(header_end + 4, body_len);
  if (reply->raw.rfind("HTTP/1.1 ", 0) == 0 && reply->raw.size() >= 12) {
    reply->status_code = std::atoi(reply->raw.c_str() + 9);
  }
  stream->erase(0, header_end + 4 + body_len);
  return true;
}

/// One request, read to EOF (for `Connection: close` exchanges and raw
/// protocol-violation probes).
inline HttpReply HttpFetch(uint16_t port, const std::string& request) {
  HttpReply reply;
  int fd = HttpConnect(port);
  if (fd < 0) return reply;
  SendAll(fd, request);
  reply.raw = RecvToEof(fd);
  ::close(fd);
  size_t header_end = reply.raw.find("\r\n\r\n");
  if (header_end != std::string::npos) {
    reply.body = reply.raw.substr(header_end + 4);
  }
  if (reply.raw.rfind("HTTP/1.1 ", 0) == 0 && reply.raw.size() >= 12) {
    reply.status_code = std::atoi(reply.raw.c_str() + 9);
  }
  return reply;
}

inline HttpReply HttpGet(uint16_t port, const std::string& path) {
  return HttpFetch(port, "GET " + path +
                             " HTTP/1.1\r\nHost: localhost\r\n"
                             "Connection: close\r\n\r\n");
}

inline HttpReply HttpPost(uint16_t port, const std::string& path,
                          const std::string& body,
                          const std::string& content_type =
                              "application/json") {
  return HttpFetch(port, "POST " + path +
                             " HTTP/1.1\r\nHost: localhost\r\n"
                             "Content-Type: " + content_type +
                             "\r\nContent-Length: " +
                             std::to_string(body.size()) +
                             "\r\nConnection: close\r\n\r\n" + body);
}

/// Sends every request in one burst on one connection (HTTP/1.1
/// pipelining; the last request should say `Connection: close`) and parses
/// the responses back out in order.
inline std::vector<HttpReply> HttpPipeline(
    uint16_t port, const std::vector<std::string>& requests) {
  std::vector<HttpReply> replies;
  int fd = HttpConnect(port);
  if (fd < 0) return replies;
  std::string burst;
  for (const std::string& r : requests) burst += r;
  SendAll(fd, burst);
  std::string stream = RecvToEof(fd);
  ::close(fd);
  HttpReply reply;
  while (PopHttpReply(&stream, &reply)) {
    replies.push_back(reply);
    reply = HttpReply();
  }
  return replies;
}

/// Sends GET /healthz on the open connection `fd` without asking for close
/// and reads exactly one response: afterwards the server's worker waits on
/// `fd` for the next request.
inline HttpReply KeepAliveHealthz(int fd) {
  SendAll(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  std::string stream;
  HttpReply reply;
  char buf[4096];
  while (!PopHttpReply(&stream, &reply)) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    stream.append(buf, static_cast<size_t>(n));
  }
  return reply;
}

/// HTTP/1.1 conformance expectations shared by every listener built on
/// server/http.h (status server and query server): pipelining, body
/// framing rejections, and malformed-input handling must behave
/// identically regardless of which endpoint set is mounted. `port` must
/// serve /healthz with 200 "ok\n".
inline void ExpectHttpConformance(uint16_t port) {
  // Pipelined requests on one connection are answered in order; the
  // connection disposition follows the client's headers.
  const std::string keep = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::string last =
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  std::vector<HttpReply> replies = HttpPipeline(port, {keep, keep, last});
  ASSERT_EQ(replies.size(), 3u);
  for (const HttpReply& reply : replies) {
    EXPECT_EQ(reply.status_code, 200);
    EXPECT_EQ(reply.body, "ok\n");
  }
  EXPECT_NE(replies[0].raw.find("Connection: keep-alive"),
            std::string::npos);
  EXPECT_NE(replies[2].raw.find("Connection: close"), std::string::npos);

  // HEAD mirrors GET's status and advertises its body's length without
  // sending the body, for a page and for an unknown path alike.
  const std::pair<std::string, int> kHeadCases[] = {{"/healthz", 200},
                                                    {"/no-such-page", 404}};
  for (const auto& [path, status] : kHeadCases) {
    const HttpReply get = HttpGet(port, path);
    const HttpReply head = HttpFetch(
        port, "HEAD " + path + " HTTP/1.1\r\nHost: x\r\n"
                               "Connection: close\r\n\r\n");
    EXPECT_EQ(get.status_code, status) << path;
    EXPECT_EQ(head.status_code, status) << path;
    EXPECT_TRUE(head.body.empty()) << path;
    EXPECT_NE(head.raw.find("Content-Length: " +
                            std::to_string(get.body.size()) + "\r\n"),
              std::string::npos)
        << head.raw;
  }

  // POST without Content-Length: the one body framing we speak is
  // Content-Length, so its absence is 411, not a hang waiting for EOF.
  EXPECT_EQ(HttpFetch(port,
                      "POST /query HTTP/1.1\r\nHost: x\r\n"
                      "Connection: close\r\n\r\n")
                .status_code,
            411);

  // A Content-Length beyond the body cap is refused before any body byte
  // is read.
  EXPECT_EQ(HttpFetch(port,
                      "POST /query HTTP/1.1\r\nHost: x\r\n"
                      "Content-Length: 1048577\r\n"
                      "Connection: close\r\n\r\nx")
                .status_code,
            413);

  // A non-numeric Content-Length is malformed framing.
  EXPECT_EQ(HttpFetch(port,
                      "POST /query HTTP/1.1\r\nHost: x\r\n"
                      "Content-Length: banana\r\n"
                      "Connection: close\r\n\r\n")
                .status_code,
            400);

  // Chunked bodies (any Transfer-Encoding) are rejected, not misparsed.
  EXPECT_EQ(HttpFetch(port,
                      "POST /query HTTP/1.1\r\nHost: x\r\n"
                      "Transfer-Encoding: chunked\r\n"
                      "Connection: close\r\n\r\n0\r\n\r\n")
                .status_code,
            501);

  // Garbage request line.
  EXPECT_EQ(HttpFetch(port, "not-http\r\n\r\n").status_code, 400);
}

/// The overload contract of server/status_server.h, which every front end
/// runs on. `port` must serve /healthz with one worker. With that worker
/// pinned by a keep-alive connection and the 64-slot connection queue full
/// behind it, the next connection reads the canned 503 JSON body (and
/// gs_query_server_rejected_queue_full grows by one); once the clients
/// close, /healthz answers 200 again. Starts no threads.
inline void ExpectFullQueueAnswers503(uint16_t port) {
  constexpr size_t kQueueSlots = 64;
  metrics::Counter* rejected = metrics::Registry::Global().GetCounter(
      "gs_query_server_rejected_queue_full");
  const uint64_t rejected_before = rejected->Value();

  // Pin the worker: a keep-alive exchange leaves it waiting on this
  // connection for the next request.
  const int pinned = HttpConnect(port);
  ASSERT_GE(pinned, 0);
  const HttpReply first = KeepAliveHealthz(pinned);
  EXPECT_EQ(first.status_code, 200);
  EXPECT_NE(first.raw.find("Connection: keep-alive"), std::string::npos);

  // The accept thread takes connections in arrival order, so these fill
  // the queue before the next one is accepted.
  std::vector<int> queued;
  for (size_t i = 0; i < kQueueSlots; ++i) {
    const int fd = HttpConnect(port);
    EXPECT_GE(fd, 0);
    if (fd >= 0) queued.push_back(fd);
  }
  const int overflow = HttpConnect(port);
  EXPECT_GE(overflow, 0);
  const std::string raw = overflow >= 0 ? RecvToEof(overflow) : "";
  if (overflow >= 0) ::close(overflow);
  EXPECT_EQ(raw.rfind("HTTP/1.1 503 ", 0), 0u) << raw;
  EXPECT_NE(raw.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(raw.find("\r\n\r\n{\"ok\": false, \"error\": \"server "
                     "overloaded: connection queue is full\"}\n"),
            std::string::npos)
      << raw;
  EXPECT_EQ(rejected->Value(), rejected_before + 1);

  ::close(pinned);
  for (int fd : queued) ::close(fd);
  // The worker now drains the closed connections; a connection accepted
  // before it has taken the first of them still finds the queue full, so
  // the recovery check retries for up to two seconds.
  HttpReply healthy;
  for (int attempt = 0; attempt < 200 && healthy.status_code != 200;
       ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    healthy = HttpGet(port, "/healthz");
  }
  EXPECT_EQ(healthy.status_code, 200);
  EXPECT_EQ(healthy.body, "ok\n");
}

/// The shutdown contract of server/status_server.h. `port` must serve
/// /healthz and keep the default 5000 ms read timeout. After one answered
/// request, the client leaves its keep-alive connection open and idle;
/// `stop` (the server's Stop()) must still return in under a second, not
/// wait out the read timeout, and the client must see the connection end.
inline void ExpectPromptStopWithIdleClient(uint16_t port,
                                           const std::function<void()>& stop) {
  const int idle = HttpConnect(port);
  ASSERT_GE(idle, 0);
  const HttpReply first = KeepAliveHealthz(idle);
  EXPECT_EQ(first.status_code, 200);
  EXPECT_NE(first.raw.find("Connection: keep-alive"), std::string::npos);

  const auto start = std::chrono::steady_clock::now();
  stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "Stop() took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms with an idle keep-alive client";
  EXPECT_EQ(RecvToEof(idle), "");
  ::close(idle);
}

}  // namespace gs::testutil

#endif  // GRAPHSURGE_TESTS_TEST_UTIL_H_
