// Query-serving front end: session lifecycle and isolation, admission
// control, GVDL + analytics over HTTP, protocol conformance through the
// shared http layer, server lifecycle, and the headline arrangement-cache
// property — two concurrent sessions running the same algorithm on the
// same host graph trigger exactly one arrangement build and read
// byte-identical results that match the sequential reference.
#include "server/query_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "algorithms/reference.h"
#include "differential/arrcache.h"
#include "graph/generators.h"
#include "json_lite.h"
#include "test_util.h"
#include "views/executor.h"

namespace gs::server {
namespace {

using testutil::ExpectHttpConformance;
using testutil::HttpGet;
using testutil::HttpPost;
using testutil::HttpReply;

constexpr uint64_t kNodes = 200;
constexpr uint64_t kEdges = 800;
constexpr uint64_t kSeed = 11;

/// One statement in one session. Statements never contain double quotes
/// (GVDL string literals accept single quotes), so no JSON escaping needed.
HttpReply Query(uint16_t port, const std::string& session,
                const std::string& statement) {
  return HttpPost(port, "/query",
                  "{\"session\": \"" + session + "\", \"statement\": \"" +
                      statement + "\"}");
}

/// The whitespace-separated words of `line`.
std::vector<std::string> Words(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  for (std::string word; in >> word;) words.push_back(word);
  return words;
}

/// The arrangement-cache tag of a `run wcc on G` statement: one worker, no
/// weight column.
std::string WccCacheTag() {
  return views::ArrangementCacheTag(analytics::Wcc(),
                                    views::ExecutionOptions());
}

/// The exact body `get results` renders for a single-view run on `target`,
/// built from an independently computed result map. Asserting equality
/// against this string is the "byte-identical to the reference" criterion.
std::string CanonicalResultsBody(const std::string& target,
                                 const analytics::ResultMap& values) {
  std::string body = "{\"ok\": true, \"target\": \"" + target +
                     "\", \"results\": [{\"view\": \"" + target +
                     "\", \"values\": {";
  bool first = true;
  for (const auto& [vertex, value] : values) {
    if (!first) body += ", ";
    first = false;
    body += '"';
    body += std::to_string(vertex);
    body += "\": ";
    body += std::to_string(value);
  }
  body += "}}]}\n";
  return body;
}

/// The sequential WCC of the host graph G restricted to edges whose weight
/// is below `below`.
analytics::ResultMap WccOfG(
    int64_t below = std::numeric_limits<int64_t>::max()) {
  const PropertyGraph g = GenerateUniformGraph(kNodes, kEdges, kSeed);
  std::vector<WeightedEdge> edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.edge_properties().GetByName(e, "weight")->AsInt() < below) {
      edges.push_back(g.ResolveWeighted(e, -1));
    }
  }
  return analytics::WccReference(edges);
}

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    differential::ArrangementCache::Global().Clear();
    ASSERT_TRUE(
        server_.AddGraph("G", GenerateUniformGraph(kNodes, kEdges, kSeed))
            .ok());
    // The call graph carries node properties, for aggregate views.
    ASSERT_TRUE(server_.AddGraph("Calls", MakeCallGraphExample()).ok());
    ASSERT_TRUE(server_.Start(0).ok());
    ASSERT_NE(server_.port(), 0);
  }

  void TearDown() override { server_.Stop(); }

  QueryServer server_;
};

// --- The headline acceptance criterion ------------------------------------

TEST_F(QueryServerTest, ConcurrentSessionsShareOneArrangementBuild) {
  const std::string expected = CanonicalResultsBody("G", WccOfG());

  // Two sessions issue the same run concurrently. Whichever statement
  // arrives second waits on the in-flight builder and becomes a reader —
  // the arrangement is built exactly once.
  std::atomic<int> failures{0};
  auto run = [&](const std::string& session) {
    HttpReply reply = Query(server_.port(), session, "run wcc on G");
    if (reply.status_code != 200) failures++;
  };
  std::thread a(run, "alice");
  std::thread b(run, "bob");
  a.join();
  b.join();
  ASSERT_EQ(failures.load(), 0);

  const std::string scope = server_.ArrangementCacheScope("G");
  ASSERT_FALSE(scope.empty());
  auto stats =
      differential::ArrangementCache::Global().Stats(scope, WccCacheTag());
  ASSERT_TRUE(stats.has_value()) << "no cache entry under scope " << scope;
  EXPECT_EQ(stats->misses, 1u) << "the arrangement was built more than once";
  EXPECT_GE(stats->hits, 1u) << "the second session did not share the build";

  // Both sessions read byte-identical bodies, and those bytes render the
  // sequential reference exactly.
  HttpReply ra = Query(server_.port(), "alice", "get results");
  HttpReply rb = Query(server_.port(), "bob", "get results");
  ASSERT_EQ(ra.status_code, 200);
  ASSERT_EQ(rb.status_code, 200);
  EXPECT_EQ(ra.body, rb.body);
  EXPECT_EQ(ra.body, expected);
}

// --- Sessions --------------------------------------------------------------

TEST_F(QueryServerTest, SessionNamespacesAreIsolated) {
  // The same view name means different things in different sessions.
  EXPECT_EQ(Query(server_.port(), "s1",
                  "create view V on G edges where weight < 20")
                .status_code,
            200);
  EXPECT_EQ(Query(server_.port(), "s2",
                  "create view V on G edges where weight < 90")
                .status_code,
            200);
  ASSERT_EQ(Query(server_.port(), "s1", "run wcc on V").status_code, 200);
  ASSERT_EQ(Query(server_.port(), "s2", "run wcc on V").status_code, 200);
  HttpReply r1 = Query(server_.port(), "s1", "get results");
  HttpReply r2 = Query(server_.port(), "s2", "get results");
  ASSERT_EQ(r1.status_code, 200);
  ASSERT_EQ(r2.status_code, 200);
  // Different predicates → different graphs → different components, each
  // session's its own: a run shared across the same-named views (say,
  // through an arrangement cache keyed by the view name) would not match.
  EXPECT_NE(r1.body, r2.body);
  EXPECT_EQ(r1.body, CanonicalResultsBody("V", WccOfG(20)));
  EXPECT_EQ(r2.body, CanonicalResultsBody("V", WccOfG(90)));

  // s2 cannot see s1's names being redefined; s1 cannot redefine its own.
  EXPECT_EQ(Query(server_.port(), "s1",
                  "create view V on G edges where weight < 50")
                .status_code,
            400);

  // Closing a session drops its namespace: the view is gone, and the
  // session (recreated lazily) can reuse the name.
  EXPECT_EQ(HttpPost(server_.port(), "/session/close",
                     "{\"session\": \"s1\"}")
                .status_code,
            200);
  EXPECT_EQ(Query(server_.port(), "s1", "run wcc on V").status_code, 400);
  EXPECT_EQ(Query(server_.port(), "s1",
                  "create view V on G edges where weight < 50")
                .status_code,
            200);
}

TEST_F(QueryServerTest, CollectionRunServesPerViewResults) {
  HttpReply created = Query(
      server_.port(), "s",
      "create view collection C on G [small: weight < 30], "
      "[mid: weight < 60], [all: weight < 200]");
  ASSERT_EQ(created.status_code, 200) << created.body;
  EXPECT_NE(created.body.find("\"created\": [\"C\"]"), std::string::npos);

  HttpReply ran = Query(server_.port(), "s", "run wcc on C");
  ASSERT_EQ(ran.status_code, 200) << ran.body;
  EXPECT_NE(ran.body.find("\"views\": 3"), std::string::npos);

  HttpReply results = Query(server_.port(), "s", "get results");
  ASSERT_EQ(results.status_code, 200);
  // Views render in execution order with their given names.
  size_t small = results.body.find("\"view\": \"small\"");
  size_t mid = results.body.find("\"view\": \"mid\"");
  size_t all = results.body.find("\"view\": \"all\"");
  ASSERT_NE(small, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_NE(all, std::string::npos);
  EXPECT_LT(small, mid);
  EXPECT_LT(mid, all);

  // The last (unfiltered) view matches the reference on the host graph.
  std::string tail = CanonicalResultsBody("all", WccOfG());
  // Extract the {"view": "all", ...} fragment from the canonical render.
  size_t frag_begin = tail.find("{\"view\"");
  std::string fragment =
      tail.substr(frag_begin, tail.find("]}") - frag_begin);
  EXPECT_NE(results.body.find(fragment), std::string::npos)
      << "unfiltered view diverged from the reference";
}

TEST_F(QueryServerTest, ExplainShowsPlanAndLastRun) {
  ASSERT_EQ(Query(server_.port(), "s",
                  "create view collection C on G [small: weight < 30], "
                  "[all: weight < 200]")
                .status_code,
            200);
  ASSERT_EQ(Query(server_.port(), "s", "run wcc on C").status_code, 200);
  HttpReply plan = Query(server_.port(), "s", "explain C");
  ASSERT_EQ(plan.status_code, 200) << plan.body;
  EXPECT_EQ(plan.body.rfind("{\"ok\": true, \"created\": [], \"plan\": "
                            "\"collection C on G (2 views)",
                            0),
            0u)
      << plan.body;
  EXPECT_NE(plan.body.find("order source:"), std::string::npos);
  EXPECT_NE(plan.body.find("last run:"), std::string::npos);
  // The plan is the session's own: another session has no collection C.
  EXPECT_EQ(Query(server_.port(), "t", "explain C").status_code, 400);
}

// A collection run's report is EXPLAIN in the session that ran it: each
// view's milliseconds per operator. No page serves one run to every client.
TEST_F(QueryServerTest, RunReportIsTheSessionsOwn) {
  const std::string collection =
      "create view collection C on G [small: weight < 30], "
      "[all: weight < 200]";
  ASSERT_EQ(Query(server_.port(), "s", collection).status_code, 200);
  ASSERT_EQ(Query(server_.port(), "s", "run wcc on C").status_code, 200);
  HttpReply reply = Query(server_.port(), "s", "explain C");
  ASSERT_EQ(reply.status_code, 200) << reply.body;
  json_lite::Value body;
  std::string error;
  ASSERT_TRUE(json_lite::Parse(reply.body, &body, &error)) << error;
  ASSERT_NE(body.Get("plan"), nullptr);
  const std::string& plan = body.Get("plan")->string;

  // The header names every operator after the "ms" column, WCC's join and
  // reduce among them; each view's row has one number per column.
  std::istringstream lines(plan);
  std::string line;
  do {
    ASSERT_TRUE(std::getline(lines, line)) << plan;
  } while (line.rfind("pos ", 0) != 0);
  const std::vector<std::string> header = Words(line);
  auto ms = std::find(header.begin(), header.end(), "ms");
  ASSERT_NE(ms, header.end()) << plan;
  const std::vector<std::string> ops(ms + 1, header.end());
  EXPECT_NE(std::find(ops.begin(), ops.end(), "join_arranged"), ops.end());
  EXPECT_NE(std::find(ops.begin(), ops.end(), "reduce"), ops.end());
  for (const std::string view : {"small", "all"}) {
    ASSERT_TRUE(std::getline(lines, line)) << plan;
    // pos, view, def#, est |GV|, est |dC|, mode, in, out, ms, then ops.
    std::vector<std::string> row = Words(line);
    ASSERT_EQ(row.size(), 9 + ops.size()) << line;
    EXPECT_EQ(row[1], view);
    for (size_t i = 9; i < row.size(); ++i) {
      EXPECT_GE(std::stod(row[i]), 0.0) << ops[i - 9] << ": " << line;
    }
  }

  // Another session has no collection C, and one that defines its own C
  // reads its own plan, not s's run.
  EXPECT_EQ(Query(server_.port(), "t", "explain C").status_code, 400);
  ASSERT_EQ(Query(server_.port(), "u", collection).status_code, 200);
  HttpReply other = Query(server_.port(), "u", "explain C");
  ASSERT_EQ(other.status_code, 200) << other.body;
  EXPECT_NE(other.body.find("no recorded run"), std::string::npos);
  EXPECT_EQ(other.body.find("reduce"), std::string::npos) << other.body;

  EXPECT_EQ(HttpGet(server_.port(), "/profilez").status_code, 404);
  ASSERT_TRUE(StatusServer::Global().Start(0).ok());
  EXPECT_EQ(HttpGet(StatusServer::Global().port(), "/profilez").status_code,
            404);
}

TEST_F(QueryServerTest, AggregateViewsAreServed) {
  HttpReply created = Query(server_.port(), "s",
                            "create view A on Calls nodes group by city "
                            "aggregate count(*)");
  ASSERT_EQ(created.status_code, 200) << created.body;
  EXPECT_EQ(created.body, "{\"ok\": true, \"created\": [\"A\"]}\n");
}

TEST_F(QueryServerTest, AdmissionControlCapsSessions) {
  QueryServerOptions options;
  options.max_sessions = 2;
  QueryServer capped(options);
  ASSERT_TRUE(capped.AddGraph("G", GenerateUniformGraph(20, 40, 1)).ok());
  ASSERT_TRUE(capped.Start(0).ok());

  EXPECT_EQ(HttpPost(capped.port(), "/session", "{\"session\": \"a\"}")
                .status_code,
            200);
  EXPECT_EQ(Query(capped.port(), "b", "run wcc on G").status_code, 200);
  // Third distinct session: deterministic 503, both explicitly and lazily.
  EXPECT_EQ(HttpPost(capped.port(), "/session", "{\"session\": \"c\"}")
                .status_code,
            503);
  EXPECT_EQ(Query(capped.port(), "c", "run wcc on G").status_code, 503);
  // Existing sessions keep working at the cap.
  EXPECT_EQ(Query(capped.port(), "a", "run wcc on G").status_code, 200);
  EXPECT_EQ(capped.num_sessions(), 2u);

  // Closing one admits the waiter.
  EXPECT_EQ(HttpPost(capped.port(), "/session/close", "{\"session\": \"a\"}")
                .status_code,
            200);
  EXPECT_EQ(HttpPost(capped.port(), "/session", "{\"session\": \"c\"}")
                .status_code,
            200);
  capped.Stop();
}

// --- Protocol and error handling -------------------------------------------

TEST_F(QueryServerTest, ProtocolConformance) {
  // The same HTTP/1.1 conformance suite the status server passes: the two
  // listeners share server/http.h, so framing behavior is identical.
  ExpectHttpConformance(server_.port());
}

TEST_F(QueryServerTest, MalformedJsonIs400WithParseableErrorBody) {
  HttpReply reply =
      HttpPost(server_.port(), "/query", "{\"session\": \"s\", ");
  EXPECT_EQ(reply.status_code, 400);
  EXPECT_NE(reply.body.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(reply.body.find("malformed JSON"), std::string::npos);

  reply = HttpPost(server_.port(), "/query", "not json at all");
  EXPECT_EQ(reply.status_code, 400);
  EXPECT_NE(reply.body.find("\"ok\": false"), std::string::npos);
}

TEST_F(QueryServerTest, StatementErrorsAreClientErrors) {
  EXPECT_EQ(HttpPost(server_.port(), "/query", "{\"session\": \"s\"}")
                .status_code,
            400);
  EXPECT_EQ(Query(server_.port(), "s", "frobnicate the graph").status_code,
            400);
  EXPECT_EQ(Query(server_.port(), "s", "  ").status_code, 400);
  EXPECT_EQ(Query(server_.port(), "s", "run nosuchalgo on G").status_code,
            400);
  EXPECT_EQ(Query(server_.port(), "s", "run wcc on NoSuchTarget")
                .status_code,
            400);
  EXPECT_EQ(Query(server_.port(), "s", "run wcc on").status_code, 400);
  EXPECT_EQ(Query(server_.port(), "s", "run wcc on G weight").status_code,
            400);
  // G has one edge column (weight, index 0).
  for (const std::string column : {"1", "99", "4294967295"}) {
    EXPECT_EQ(
        Query(server_.port(), "s", "run sssp(0) on G weight " + column)
            .status_code,
        400)
        << "weight " << column;
  }
  EXPECT_EQ(Query(server_.port(), "s", "explain NoSuchCollection")
                .status_code,
            400);
  // Arguments past what the computations support: a 2^32 iteration count
  // and 257 MPSP pairs are rejected, and the server keeps serving.
  std::string pairs = "0:1";
  for (int i = 1; i < 257; ++i) pairs += ",0:1";
  for (const std::string& statement :
       {std::string("run pagerank(4294967296) on G"),
        "run mpsp(" + pairs + ") on G"}) {
    EXPECT_EQ(Query(server_.port(), "s", statement).status_code, 400)
        << statement;
    EXPECT_EQ(HttpGet(server_.port(), "/healthz").status_code, 200);
  }
  // Names are unique across the session and the host graphs.
  EXPECT_EQ(Query(server_.port(), "s", "create view G on G edges where "
                                        "weight < 5")
                .status_code,
            400);
  // Unknown POST path and unsupported method.
  EXPECT_EQ(HttpPost(server_.port(), "/nosuch", "{}").status_code, 404);
  EXPECT_EQ(testutil::HttpFetch(server_.port(),
                                "DELETE /query HTTP/1.1\r\nHost: x\r\n"
                                "Content-Length: 0\r\n"
                                "Connection: close\r\n\r\n")
                .status_code,
            405);
}

TEST_F(QueryServerTest, WeightedRunMatchesReference) {
  const PropertyGraph g = GenerateUniformGraph(kNodes, kEdges, kSeed);
  std::vector<WeightedEdge> edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    edges.push_back(g.ResolveWeighted(e, 0));
  }
  ASSERT_EQ(
      Query(server_.port(), "s", "run sssp(0) on G weight 0").status_code,
      200);
  HttpReply results = Query(server_.port(), "s", "get results");
  ASSERT_EQ(results.status_code, 200);
  EXPECT_EQ(results.body,
            CanonicalResultsBody("G", analytics::SsspReference(edges, 0)));
}

TEST_F(QueryServerTest, StatusPagesServedFromSameListener) {
  ASSERT_EQ(Query(server_.port(), "s", "run wcc on G").status_code, 200);
  HttpReply metrics = HttpGet(server_.port(), "/metrics");
  ASSERT_EQ(metrics.status_code, 200);
  EXPECT_NE(metrics.body.find("gs_query_server_requests"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("gs_arrcache_misses"), std::string::npos);

  HttpReply sessionz = HttpGet(server_.port(), "/sessionz");
  ASSERT_EQ(sessionz.status_code, 200);
  EXPECT_NE(sessionz.body.find("\"s\""), std::string::npos);

  HttpReply statusz = HttpGet(server_.port(), "/statusz");
  ASSERT_EQ(statusz.status_code, 200);
  EXPECT_NE(statusz.body.find("arrangement-cache"), std::string::npos);

  EXPECT_EQ(HttpGet(server_.port(), "/healthz").body, "ok\n");

  // The index lists every page the listener serves, this front end's too.
  HttpReply index = HttpGet(server_.port(), "/");
  ASSERT_EQ(index.status_code, 200);
  for (const char* path : {"/healthz", "/metrics", "/statusz", "/tracez",
                           "/sessionz"}) {
    EXPECT_NE(index.body.find(std::string("  ") + path + "\n"),
              std::string::npos)
        << path << " missing from:\n" << index.body;
  }
}

TEST_F(QueryServerTest, FullQueueAnswers503) {
  QueryServerOptions options;
  options.num_threads = 1;
  QueryServer single(options);
  ASSERT_TRUE(single.Start(0).ok());
  testutil::ExpectFullQueueAnswers503(single.port());
}

TEST_F(QueryServerTest, StopDoesNotWaitForIdleKeepAliveClient) {
  QueryServer own;
  ASSERT_TRUE(own.Start(0).ok());
  testutil::ExpectPromptStopWithIdleClient(own.port(), [&own] { own.Stop(); });
}

// --- Concurrency stress -----------------------------------------------------
// N raw-socket clients × M sessions each, mixing GVDL, analytics, result
// reads, and status scrapes against one server. Run under TSan in CI; the
// assertions here are isolation (each session's results render the
// canonical bytes) and clean teardown.

TEST_F(QueryServerTest, ConcurrentClientsAcrossSessionsStayIsolated) {
  constexpr int kClients = 8;
  constexpr int kSessionsPerClient = 2;

  const std::string expected = CanonicalResultsBody("G", WccOfG());

  std::atomic<int> errors{0};
  auto client = [&](int id) {
    for (int s = 0; s < kSessionsPerClient; ++s) {
      const std::string session =
          std::string("c").append(std::to_string(id)) + "-" +
          std::to_string(s);
      // Private view in the session namespace; same name everywhere.
      if (Query(server_.port(), session,
                "create view V on G edges where weight < " +
                    std::to_string(10 + 10 * (id % 5)))
              .status_code != 200) {
        errors++;
      }
      if (Query(server_.port(), session, "run wcc on G").status_code !=
          200) {
        errors++;
      }
      if (HttpGet(server_.port(), "/metrics").status_code != 200) errors++;
      HttpReply results = Query(server_.port(), session, "get results");
      if (results.status_code != 200 || results.body != expected) errors++;
      if (HttpGet(server_.port(), "/sessionz").status_code != 200) errors++;
      if (HttpPost(server_.port(), "/session/close",
                   "{\"session\": \"" + session + "\"}")
              .status_code != 200) {
        errors++;
      }
    }
  };
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) clients.emplace_back(client, i);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(server_.num_sessions(), 0u);

  // All those "run wcc on G" statements shared one arrangement build.
  auto stats = differential::ArrangementCache::Global().Stats(
      server_.ArrangementCacheScope("G"), WccCacheTag());
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_GE(stats->hits,
            static_cast<uint64_t>(kClients * kSessionsPerClient - 1));
}

TEST_F(QueryServerTest, StopIsIdempotentAndDropsCacheEntriesOnDestruction) {
  ASSERT_EQ(Query(server_.port(), "s", "run wcc on G").status_code, 200);
  const std::string scope = server_.ArrangementCacheScope("G");
  ASSERT_TRUE(
      differential::ArrangementCache::Global().Stats(scope, WccCacheTag())
          ->resident);
  server_.Stop();
  server_.Stop();  // idempotent
  {
    QueryServerOptions options;
    QueryServer scoped(options);
    ASSERT_TRUE(scoped.AddGraph("G", GenerateUniformGraph(20, 40, 1)).ok());
    ASSERT_TRUE(scoped.Start(0).ok());
    ASSERT_EQ(Query(scoped.port(), "s", "run wcc on G").status_code, 200);
    ASSERT_GE(differential::ArrangementCache::Global().num_entries(), 1u);
  }
  // The destroyed server's entries are invalidated; ours (a different
  // instance prefix) were dropped by our own Stop+destruction path only at
  // destruction, so the surviving entry count excludes the scoped server.
  auto stats =
      differential::ArrangementCache::Global().Stats(scope, WccCacheTag());
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->resident) << "Stop() must not drop cache entries; "
                                  "destruction does";
}

// --- Lifecycle ---------------------------------------------------------------

TEST_F(QueryServerTest, HostGraphsAreFixedWhileServing) {
  EXPECT_FALSE(server_.AddGraph("H", GenerateUniformGraph(20, 40, 1)).ok());
  EXPECT_FALSE(server_.LoadGraphCsv("H", "nodes.csv", "edges.csv").ok());
  EXPECT_EQ(Query(server_.port(), "s", "run wcc on H").status_code, 400);
}

TEST_F(QueryServerTest, ZeroThreadsIsRejected) {
  QueryServerOptions options;
  options.num_threads = 0;
  QueryServer idle(options);
  Status started = idle.Start(0);
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument)
      << started.ToString();
  EXPECT_FALSE(idle.running());
}

TEST_F(QueryServerTest, StartStopCyclesNeverHang) {
  // Stop() must wake every worker, including one caught between its wait
  // predicate and its block; a lost wakeup hangs the join here.
  QueryServerOptions options;
  options.num_threads = 4;
  QueryServer cycled(options);
  ASSERT_TRUE(cycled.AddGraph("G", GenerateUniformGraph(20, 40, 1)).ok());
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ASSERT_TRUE(cycled.Start(0).ok()) << "cycle " << cycle;
    if (cycle % 250 == 0) {
      EXPECT_EQ(Query(cycled.port(), "s", "run wcc on G").status_code, 200);
    }
    cycled.Stop();
    ASSERT_FALSE(cycled.running());
  }
}

}  // namespace
}  // namespace gs::server
