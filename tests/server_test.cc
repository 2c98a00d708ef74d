// Status server end-to-end, over real sockets: builtin endpoint payloads,
// HTTP error paths, live scrapes while a sharded 10-view WCC run is in
// flight, and the /statusz arrangement byte gauges cross-checked against a
// manual spine-size computation (they must agree exactly — the accounting
// is entry counts × sizeof(Entry), not malloc capacity).
#include "server/status_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "api/graphsurge.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/watchdog.h"
#include "differential/differential.h"
#include "graph/generators.h"
#include "json_lite.h"
#include "test_util.h"

namespace gs {
namespace {

using differential::Arrange;
using differential::Arranged;
using differential::DataflowOptions;
using differential::Input;
using differential::ShardedDataflow;
using testutil::ExpectHttpConformance;
using testutil::HttpFetch;
using testutil::HttpGet;
using testutil::HttpPipeline;
using testutil::HttpPost;
using testutil::HttpReply;
using IntPair = std::pair<int64_t, int64_t>;

json_lite::Value ParseJsonOrFail(const std::string& text) {
  json_lite::Value value;
  std::string error;
  EXPECT_TRUE(json_lite::Parse(text, &value, &error))
      << error << "\npayload:\n"
      << text.substr(0, 2000);
  return value;
}

class StatusServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_.Start(0).ok());
    ASSERT_TRUE(server_.running());
    ASSERT_NE(server_.port(), 0);
  }

  server::StatusServer server_;
};

TEST_F(StatusServerTest, HealthzAnswersOk) {
  HttpReply reply = HttpGet(server_.port(), "/healthz");
  EXPECT_EQ(reply.status_code, 200);
  EXPECT_EQ(reply.body, "ok\n");
  EXPECT_NE(reply.raw.find("Connection: close"), std::string::npos);
}

TEST_F(StatusServerTest, MetricsServesExpositionText) {
  // Touch a counter so the registry is non-empty regardless of test order.
  metrics::Registry::Global().GetCounter("gs_server_test_probe")->Increment();
  HttpReply reply = HttpGet(server_.port(), "/metrics");
  EXPECT_EQ(reply.status_code, 200);
  EXPECT_NE(reply.body.find("gs_"), std::string::npos);
  EXPECT_NE(reply.raw.find("text/plain; version=0.0.4"), std::string::npos);
}

TEST_F(StatusServerTest, JsonEndpointsParse) {
  for (const char* path : {"/statusz", "/tracez"}) {
    HttpReply reply = HttpGet(server_.port(), path);
    EXPECT_EQ(reply.status_code, 200) << path;
    ParseJsonOrFail(reply.body);
  }
}

TEST_F(StatusServerTest, StatuszServesSchedulingReport) {
  // Keep a sharded dataflow alive across the scrape so its source renders
  // real attribution under "sched".
  differential::DataflowOptions options;
  options.num_workers = 3;
  differential::ShardedDataflow sharded(options);
  std::vector<differential::Input<std::pair<uint64_t, int64_t>>> inputs;
  for (size_t w = 0; w < sharded.num_workers(); ++w) {
    inputs.emplace_back(sharded.worker(w));
    differential::Capture(differential::ReduceMin(inputs[w].stream()));
  }
  for (int64_t i = 0; i < 3000; ++i) {
    uint64_t key = static_cast<uint64_t>(i) % 64;
    inputs[sharded.OwnerOfHash(HashValue(key))].Send({key, i}, 1);
  }
  ASSERT_TRUE(sharded.Step().ok());

  HttpReply reply = HttpGet(server_.port(), "/statusz");
  ASSERT_EQ(reply.status_code, 200);
  EXPECT_NE(reply.raw.find("application/json"), std::string::npos);
  json_lite::Value doc = ParseJsonOrFail(reply.body);
  const json_lite::Value* sources = doc.Get("sources");
  ASSERT_NE(sources, nullptr);
  const json_lite::Value* df = sources->Get(sharded.profile().name());
  ASSERT_NE(df, nullptr) << reply.body;
  EXPECT_EQ(df->Get("workers")->number, 3);
  const json_lite::Value* sched = df->Get("sched");
  ASSERT_NE(sched, nullptr);
  EXPECT_GE(sched->Get("steps")->number, 1);
  const json_lite::Value* attribution = sched->Get("attribution");
  ASSERT_NE(attribution, nullptr);
  ASSERT_EQ(attribution->array.size(), 3u);
  for (const json_lite::Value& worker : attribution->array) {
    // The five exclusive states tile the worker's accounted time.
    const double sum = worker.Get("busy_ns")->number +
                       worker.Get("exchange_ns")->number +
                       worker.Get("barrier_ns")->number +
                       worker.Get("seal_ns")->number +
                       worker.Get("idle_ns")->number;
    EXPECT_DOUBLE_EQ(sum, worker.Get("total_ns")->number);
    EXPECT_GT(worker.Get("total_ns")->number, 0.0);
  }
  EXPECT_NE(sched->Get("skew"), nullptr);
}

TEST_F(StatusServerTest, IndexListsRegisteredPaths) {
  HttpReply reply = HttpGet(server_.port(), "/");
  EXPECT_EQ(reply.status_code, 200);
  EXPECT_EQ(reply.body,
            "graphsurge status server\n\nendpoints:\n"
            "  /healthz\n  /metrics\n  /statusz\n  /tracez\n");
  // /statusz carries what these pages served.
  EXPECT_EQ(HttpGet(server_.port(), "/workersz").status_code, 404);
  EXPECT_EQ(HttpGet(server_.port(), "/timeseriez").status_code, 404);
}

TEST_F(StatusServerTest, UnknownPathIs404) {
  EXPECT_EQ(HttpGet(server_.port(), "/nonexistent").status_code, 404);
}

TEST_F(StatusServerTest, QueryStringIsStripped) {
  EXPECT_EQ(HttpGet(server_.port(), "/healthz?verbose=1").body, "ok\n");
}

TEST_F(StatusServerTest, NonGetIs405) {
  HttpReply reply =
      HttpFetch(server_.port(),
                "POST /healthz HTTP/1.1\r\nHost: x\r\n"
                "Connection: close\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(reply.status_code, 405);
}

TEST_F(StatusServerTest, PostRoutesAndMethodRules) {
  server_.HandlePost("/echo", [](const server::http::Request& request) {
    server::HttpResponse r;
    r.body = request.body;
    return r;
  });
  EXPECT_EQ(HttpPost(server_.port(), "/echo", "hello", "text/plain").body,
            "hello");
  // POST to a page is the wrong method; POST to nothing is not found.
  EXPECT_EQ(HttpPost(server_.port(), "/healthz", "{}").status_code, 405);
  EXPECT_EQ(HttpPost(server_.port(), "/nosuch", "{}").status_code, 404);
  EXPECT_EQ(HttpFetch(server_.port(),
                      "DELETE /echo HTTP/1.1\r\nHost: x\r\n"
                      "Connection: close\r\n\r\n")
                .status_code,
            405);
}

TEST_F(StatusServerTest, FullQueueAnswers503) {
  // The fixture's server runs the default single worker.
  testutil::ExpectFullQueueAnswers503(server_.port());
}

TEST_F(StatusServerTest, StopDoesNotWaitForIdleKeepAliveClient) {
  testutil::ExpectPromptStopWithIdleClient(server_.port(),
                                           [this] { server_.Stop(); });
}

TEST_F(StatusServerTest, MalformedRequestIs400) {
  EXPECT_EQ(HttpFetch(server_.port(), "not-http\r\n\r\n").status_code, 400);
}

TEST_F(StatusServerTest, ProtocolConformance) {
  // The shared HTTP/1.1 conformance suite (tests/test_util.h): pipelining,
  // Content-Length framing rejections, chunked rejection, malformed lines.
  ExpectHttpConformance(server_.port());
}

TEST_F(StatusServerTest, PipelinedRequestsAnswerInOrder) {
  // Distinct paths prove ordering, not just counting: the index, a
  // 404, and /healthz, all on one connection.
  std::vector<HttpReply> replies = HttpPipeline(
      server_.port(),
      {"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
       "GET /nonexistent HTTP/1.1\r\nHost: x\r\n\r\n",
       "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"});
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].status_code, 200);
  EXPECT_NE(replies[0].body.find("/healthz"), std::string::npos);
  EXPECT_EQ(replies[1].status_code, 404);
  EXPECT_EQ(replies[2].status_code, 200);
  EXPECT_EQ(replies[2].body, "ok\n");
}

TEST_F(StatusServerTest, HeadOmitsBody) {
  HttpReply reply = HttpFetch(server_.port(),
                              "HEAD /healthz HTTP/1.1\r\nHost: x\r\n"
                              "Connection: close\r\n\r\n");
  EXPECT_EQ(reply.status_code, 200);
  EXPECT_TRUE(reply.body.empty());
  // The advertised length still describes the GET body.
  EXPECT_NE(reply.raw.find("Content-Length: 3"), std::string::npos);
}

TEST_F(StatusServerTest, CustomHandlerAndReplacement) {
  server_.Handle("/custom", [] {
    server::HttpResponse r;
    r.body = "v1";
    return r;
  });
  EXPECT_EQ(HttpGet(server_.port(), "/custom").body, "v1");
  server_.Handle("/custom", [] {
    server::HttpResponse r;
    r.body = "v2";
    return r;
  });
  EXPECT_EQ(HttpGet(server_.port(), "/custom").body, "v2");
}

TEST_F(StatusServerTest, UnhealthyHealthzIs503WithConsistentHead) {
  // Make the global watchdog genuinely unhealthy: an epoch advance marked
  // in progress since early in the process's life, with a 10ms deadline.
  watchdog::WatchdogOptions options;
  options.cadence_ms = 3600 * 1000;  // evaluations driven manually below
  options.epoch_advance_deadline_ms = 10;
  options.write_flight_dumps = false;
  ASSERT_TRUE(watchdog::Watchdog::Global().Start(options).ok());
  metrics::Gauge* started = metrics::Registry::Global().GetGauge(
      "gs_live_epoch_advance_started_ms");
  started->Set(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  watchdog::Watchdog::Global().EvaluateNow();

  HttpReply get = HttpGet(server_.port(), "/healthz");
  EXPECT_EQ(get.status_code, 503);
  EXPECT_NE(get.raw.find("application/json"), std::string::npos);
  json_lite::Value verdict = ParseJsonOrFail(get.body);
  EXPECT_FALSE(verdict.Get("healthy")->boolean);
  const json_lite::Value* violated = verdict.Get("violated_rules");
  ASSERT_NE(violated, nullptr);
  ASSERT_EQ(violated->array.size(), 1u);
  EXPECT_EQ(violated->array[0].string, "epoch_advance_deadline");

  // HEAD mirrors the status code and advertises the GET body's length
  // without sending it.
  HttpReply head = HttpFetch(server_.port(),
                             "HEAD /healthz HTTP/1.1\r\nHost: x\r\n"
                             "Connection: close\r\n\r\n");
  EXPECT_EQ(head.status_code, 503);
  EXPECT_TRUE(head.body.empty());
  EXPECT_NE(head.raw.find("Content-Length: " +
                          std::to_string(get.body.size())),
            std::string::npos)
      << head.raw;

  // Heal and verify the plain contract returns.
  started->Set(0);
  watchdog::Watchdog::Global().EvaluateNow();
  EXPECT_EQ(HttpGet(server_.port(), "/healthz").body, "ok\n");
  watchdog::Watchdog::Global().Stop();
}

TEST_F(StatusServerTest, OversizedRequestHeadIs400) {
  // Drive ServeConnection directly over a socketpair: a request line that
  // hits the head cap without ever terminating must be rejected, not
  // dispatched as a truncated target.
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  std::string oversized = "GET /" + std::string(10000, 'a');
  size_t sent = 0;
  while (sent < oversized.size()) {
    ssize_t n = ::send(pair[0], oversized.data() + sent,
                       oversized.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  server_.ServeConnection(pair[1]);
  ::close(pair[1]);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(pair[0], buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(pair[0]);
  EXPECT_EQ(response.rfind("HTTP/1.1 400", 0), 0u) << response;
  EXPECT_NE(response.find("request head too large"), std::string::npos);
}

TEST(StatusServerTimeoutTest, SlowPartialRequestHitsReadTimeout) {
  server::StatusServer server;
  server.set_read_timeout_ms(200);
  ASSERT_TRUE(server.Start(0).ok());

  const auto start = std::chrono::steady_clock::now();
  // A client that sends half a request line and then goes silent: the
  // receive timeout must end the read, and the truncated line is rejected.
  HttpReply reply = HttpFetch(server.port(), "GET /health");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(reply.status_code, 400);
  // Proves the 200ms setting took effect (the default would be 5000ms).
  EXPECT_GE(elapsed, 150);
  EXPECT_LT(elapsed, 3000);
}

TEST(StatusServerTeardownTest, ConcurrentScrapesDuringTeardownAreSafe) {
  auto server = std::make_unique<server::StatusServer>();
  ASSERT_TRUE(server->Start(0).ok());
  const uint16_t port = server->port();

  // Hammer the server from several threads while the main thread tears it
  // down mid-flight. Requests racing the shutdown may fail (refused
  // connections return status 0) — the invariant is no crash, no hang, and
  // well-formed responses for every request that did get served.
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([port] {
      for (int i = 0; i < 50; ++i) {
        HttpReply reply = HttpGet(port, "/metrics");
        if (reply.status_code != 0) {
          EXPECT_EQ(reply.status_code, 200);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server->Stop();
  EXPECT_FALSE(server->running());
  server.reset();
  for (std::thread& t : scrapers) t.join();
}

TEST_F(StatusServerTest, StopIsIdempotentAndRestartable) {
  server_.Stop();
  server_.Stop();
  EXPECT_FALSE(server_.running());
  ASSERT_TRUE(server_.Start(0).ok());
  EXPECT_EQ(HttpGet(server_.port(), "/healthz").status_code, 200);
}

TEST(StatusServerStartTest, SecondStartOnSameInstanceFails) {
  server::StatusServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_FALSE(server.Start(0).ok());
}

// Sums `trace_bytes` over the operators of one rendered dataflow status
// object, restricted to operators whose name matches `op_name` (empty
// matches all).
uint64_t SumOperatorTraceBytes(const json_lite::Value& status,
                               const std::string& op_name) {
  uint64_t sum = 0;
  const json_lite::Value* ops = status.Get("operators");
  EXPECT_NE(ops, nullptr);
  if (ops == nullptr || !ops->is_array()) return 0;
  for (const json_lite::Value& op : ops->array) {
    const json_lite::Value* name = op.Get("name");
    const json_lite::Value* bytes = op.Get("trace_bytes");
    if (name == nullptr || bytes == nullptr) continue;
    if (!op_name.empty() && name->string != op_name) continue;
    sum += static_cast<uint64_t>(bytes->number);
  }
  return sum;
}

// The acceptance check from the issue: the arrangement byte gauges served
// by /statusz must agree with a manual spine-size computation. Because the
// accounting is deterministic (entries × sizeof(Entry)), the agreement is
// exact, not merely within tolerance.
TEST(StatusServerStatuszTest, ArrangementBytesMatchManualSpineComputation) {
  DataflowOptions options;
  options.num_workers = 2;
  ShardedDataflow dataflow(options);
  std::vector<Input<IntPair>> inputs;
  std::vector<Arranged<int64_t, int64_t>> arranged;
  inputs.reserve(options.num_workers);
  for (size_t w = 0; w < dataflow.num_workers(); ++w) {
    inputs.emplace_back(dataflow.worker(w));
    arranged.push_back(Arrange(inputs[w].stream()));
  }
  Rng rng(7);
  for (int i = 0; i < 600; ++i) {
    IntPair p{rng.Uniform(0, 64), rng.Uniform(0, 16)};
    inputs[dataflow.OwnerOfHash(HashValue(p))].Send(p, 1);
  }
  ASSERT_TRUE(dataflow.Step().ok());

  // Manual computation straight from the shared traces.
  uint64_t manual = 0;
  for (const auto& a : arranged) manual += a.trace()->live_bytes();
  ASSERT_GT(manual, 0u);

  // The rendered snapshot must carry the same number...
  json_lite::Value status = ParseJsonOrFail(dataflow.RenderStatusJson());
  EXPECT_EQ(SumOperatorTraceBytes(status, "arrange"), manual);

  // ...and so must the payload served over HTTP, which goes through the
  // introspect registry.
  server::StatusServer server;
  ASSERT_TRUE(server.Start(0).ok());
  HttpReply reply = HttpGet(server.port(), "/statusz");
  ASSERT_EQ(reply.status_code, 200);
  json_lite::Value statusz = ParseJsonOrFail(reply.body);
  const json_lite::Value* sources = statusz.Get("sources");
  ASSERT_NE(sources, nullptr);
  ASSERT_TRUE(sources->is_object());
  bool found = false;
  for (const auto& [name, value] : sources->object) {
    if (name.rfind("dataflow-", 0) != 0) continue;
    if (!value.is_object() || value.Get("operators") == nullptr) continue;
    if (SumOperatorTraceBytes(value, "arrange") != manual) continue;
    found = true;
  }
  EXPECT_TRUE(found)
      << "no /statusz source reported the expected arrangement bytes:\n"
      << reply.body.substr(0, 2000);
}

// Live-run scrape, the issue's acceptance scenario: a 10-view collection
// runs WCC at W=4 while this thread hammers every endpoint from outside.
// Every payload must stay well-formed at every instant of the run.
TEST(StatusServerLiveTest, EndpointsStayValidDuringShardedWccRun) {
  GraphsurgeOptions options;
  options.num_workers = 4;
  Graphsurge system(options);
  ASSERT_TRUE(
      system.AddGraph("G", GenerateUniformGraph(1200, 4800, 11)).ok());

  std::vector<std::string> names;
  std::vector<std::function<bool(EdgeId)>> predicates;
  for (int v = 0; v < 10; ++v) {
    names.push_back("v" + std::to_string(v));
    // Growing nested subsets, the paper's canonical collection shape.
    predicates.push_back([v](EdgeId e) {
      return static_cast<int>(e % 12) <= v + 2;
    });
  }
  ASSERT_TRUE(system.CreateCollection("C", "G", names, predicates).ok());

  ASSERT_TRUE(system.StartStatusServer(0).ok());
  const uint16_t port = server::StatusServer::Global().port();
  ASSERT_NE(port, 0);

  std::atomic<bool> done{false};
  Status run_status = Status::Ok();
  std::thread runner([&] {
    analytics::Wcc wcc;
    views::ExecutionOptions opts;
    auto result = system.RunComputation(wcc, "C", opts);
    run_status = result.status();
    done.store(true, std::memory_order_release);
  });

  int scrapes = 0;
  // Scrape continuously while the run is in flight, and in any case at
  // least three full rounds so the assertions run even if the computation
  // finishes before the first scrape lands.
  while (!done.load(std::memory_order_acquire) || scrapes < 3) {
    EXPECT_EQ(HttpGet(port, "/healthz").body, "ok\n");
    EXPECT_NE(HttpGet(port, "/metrics").body.find("gs_"), std::string::npos);
    for (const char* path : {"/statusz", "/tracez"}) {
      HttpReply reply = HttpGet(port, path);
      EXPECT_EQ(reply.status_code, 200) << path;
      ParseJsonOrFail(reply.body);
    }
    ++scrapes;
  }
  runner.join();
  ASSERT_TRUE(run_status.ok()) << run_status.ToString();
  EXPECT_GE(scrapes, 3);

  // After the run, /profilez serves this system's per-view table.
  HttpReply profile = HttpGet(port, "/profilez");
  EXPECT_EQ(profile.status_code, 200);
  EXPECT_FALSE(profile.body.empty());
  EXPECT_NE(profile.body.find("view"), std::string::npos) << profile.body;
}

}  // namespace
}  // namespace gs
