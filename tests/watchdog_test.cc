// Watchdog end-to-end: a healthy full run records zero firings, each health
// rule is driven deterministically (fuzz-hook stall injection for the
// engine-level rules, direct metric manipulation for the unit-level ones),
// /healthz flips to 503 naming the violated rule, and the flight-recorder
// dump parses and carries trace events + a metrics snapshot.
#include "common/watchdog.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "api/graphsurge.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/timer.h"
#include "differential/differential.h"
#include "differential/fuzz_hooks.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/mutation.h"
#include "json_lite.h"
#include "server/status_server.h"
#include "test_util.h"
#include "views/collection.h"
#include "views/executor.h"
#include "views/live.h"

namespace gs {
namespace {

using differential::Arrange;
using differential::Arranged;
using differential::DataflowOptions;
using differential::Input;
using differential::ShardedDataflow;
using testutil::HttpGet;
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

std::string ReadFileOrFail(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << "cannot open " << path;
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool Contains(const std::vector<std::string>& rules, const std::string& rule) {
  for (const std::string& r : rules) {
    if (r == rule) return true;
  }
  return false;
}

/// Starts `dog` and waits for the evaluation its thread runs as soon as it
/// starts. The rule tests drive evaluations by hand with a long cadence; an
/// evaluation landing between a gauge move and the test's own EvaluateNow
/// would shift the rule state under it (a flat ingest lag resets the growth
/// streak, a consumed fsync window hides the spike).
void StartAndAwaitFirstEvaluation(watchdog::Watchdog* dog,
                                  const watchdog::WatchdogOptions& options) {
  metrics::Counter* evaluations =
      metrics::Registry::Global().GetCounter("gs_watchdog_evaluations");
  const uint64_t before = evaluations->Value();
  ASSERT_TRUE(dog->Start(options).ok());
  for (int i = 0; i < 10000 && evaluations->Value() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(evaluations->Value(), before) << "watchdog thread never evaluated";
}

/// Asserts the invariants of one flight-recorder document: the reason names
/// the firing rule, the violated-rule list carries it, and the trace and
/// metrics sections are present and well-formed, the metrics carrying the
/// lag gauge the watchdog publishes before it fires.
void ExpectFlightDumpWellFormed(const std::string& path,
                                const std::string& rule) {
  json_lite::Value doc = ParseJsonOrFail(ReadFileOrFail(path));
  const json_lite::Value* reason = doc.Get("reason");
  ASSERT_NE(reason, nullptr);
  EXPECT_EQ(reason->string, "watchdog:" + rule);
  const json_lite::Value* violated = doc.Get("violated_rules");
  ASSERT_NE(violated, nullptr);
  ASSERT_TRUE(violated->is_array());
  bool found = false;
  for (const json_lite::Value& v : violated->array) {
    if (v.string == rule) found = true;
  }
  EXPECT_TRUE(found) << "dump does not name " << rule;
  EXPECT_NE(doc.Get("trace_events"), nullptr);
  const json_lite::Value* metrics_section = doc.Get("metrics");
  ASSERT_NE(metrics_section, nullptr);
  EXPECT_NE(metrics_section->Get("counters"), nullptr);
  const json_lite::Value* gauges = metrics_section->Get("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->Get("gs_watchdog_ingest_lag"), nullptr);
  const json_lite::Value* build = doc.Get("build");
  ASSERT_NE(build, nullptr);
  EXPECT_NE(build->Get("git_sha"), nullptr);
}

// The healthy path: with hooks off, a full 10-view run at W=4 under an
// active watchdog (default deadlines) records zero firings. Declared first
// so it runs before any rule-firing test touches the global firing counters
// and gauges.
TEST(WatchdogHealthyTest, FullTenViewRunRecordsZeroFirings) {
  ASSERT_FALSE(differential::fuzz::GlobalHooks().any());
  metrics::Counter* firings =
      metrics::Registry::Global().GetCounter("gs_watchdog_firings");
  const uint64_t firings_before = firings->Value();

  watchdog::WatchdogOptions options;  // default (production) deadlines
  options.cadence_ms = 20;
  options.flight_dir = ::testing::TempDir();
  ASSERT_TRUE(watchdog::Watchdog::Global().Start(options).ok());

  server::StatusServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();

  GraphsurgeOptions gopts;
  gopts.num_workers = 4;
  Graphsurge system(gopts);
  ASSERT_TRUE(
      system.AddGraph("G", GenerateUniformGraph(1200, 4800, 11)).ok());
  std::vector<std::string> names;
  std::vector<std::function<bool(EdgeId)>> predicates;
  for (int v = 0; v < 10; ++v) {
    names.push_back(std::string("v").append(std::to_string(v)));
    predicates.push_back([v](EdgeId e) {
      return static_cast<int>(e % 12) <= v + 2;
    });
  }
  ASSERT_TRUE(system.CreateCollection("C", "G", names, predicates).ok());

  analytics::Wcc wcc;
  views::ExecutionOptions eopts;
  auto result = system.RunComputation(wcc, "C", eopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Healthy throughout: 200 "ok\n", and not a single firing.
  HttpReply health = HttpGet(port, "/healthz");
  EXPECT_EQ(health.status_code, 200);
  EXPECT_EQ(health.body, "ok\n");
  EXPECT_TRUE(watchdog::Watchdog::Global().Health().healthy);
  EXPECT_EQ(firings->Value(), firings_before);

  watchdog::Watchdog::Global().Stop();
  EXPECT_EQ(firings->Value(), firings_before);
}

TEST(WatchdogRuleTest, EpochAdvanceDeadlineFiresAndDumps) {
  watchdog::Watchdog dog;
  watchdog::WatchdogOptions options;
  options.cadence_ms = 3600 * 1000;  // thread idles; EvaluateNow drives
  options.epoch_advance_deadline_ms = 40;
  options.flight_dir = ::testing::TempDir();
  ASSERT_NO_FATAL_FAILURE(StartAndAwaitFirstEvaluation(&dog, options));
  EXPECT_FALSE(dog.Start(options).ok());  // double start rejected

  metrics::Gauge* started = metrics::Registry::Global().GetGauge(
      "gs_live_epoch_advance_started_ms");
  started->Set(static_cast<int64_t>(NowMillis()));
  // Fresh advance: still within deadline.
  EXPECT_FALSE(Contains(dog.EvaluateNow(), "epoch_advance_deadline"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(Contains(dog.EvaluateNow(), "epoch_advance_deadline"));

  watchdog::HealthSnapshot health = dog.Health();
  EXPECT_FALSE(health.healthy);
  EXPECT_EQ(health.firings, 1u);
  ASSERT_FALSE(health.last_dump_path.empty());
  EXPECT_NE(health.last_dump_path.find("epoch_advance_deadline"),
            std::string::npos);
  ExpectFlightDumpWellFormed(health.last_dump_path, "epoch_advance_deadline");

  // Edge-triggered: the still-violated rule does not fire again.
  EXPECT_TRUE(Contains(dog.EvaluateNow(), "epoch_advance_deadline"));
  EXPECT_EQ(dog.Health().firings, 1u);

  // The advance finishing (gauge cleared) heals the verdict.
  started->Set(0);
  EXPECT_TRUE(dog.EvaluateNow().empty());
  EXPECT_TRUE(dog.Health().healthy);

  // The health JSON names the SLO histograms alongside the verdict.
  json_lite::Value health_doc = ParseJsonOrFail(dog.RenderHealthJson());
  const json_lite::Value* slo = health_doc.Get("slo_nanos");
  ASSERT_NE(slo, nullptr);
  EXPECT_NE(slo->Get("gs_wal_fsync_nanos"), nullptr);
  EXPECT_NE(slo->Get("gs_live_epoch_advance_nanos"), nullptr);

  dog.Stop();
  dog.Stop();  // idempotent
  EXPECT_TRUE(dog.Health().healthy);
}

TEST(WatchdogRuleTest, WalFsyncLatencySpikeOverDeltaWindow) {
  watchdog::Watchdog dog;
  watchdog::WatchdogOptions options;
  options.cadence_ms = 3600 * 1000;
  options.wal_fsync_p99_ns = 1000;     // any real fsync exceeds this
  options.write_flight_dumps = false;  // master switch: no file
  ASSERT_NO_FATAL_FAILURE(StartAndAwaitFirstEvaluation(&dog, options));

  // No fsyncs since the baseline sync: quiet.
  EXPECT_TRUE(dog.EvaluateNow().empty());
  metrics::Registry::Global()
      .GetHistogram("gs_wal_fsync_nanos")
      ->Observe(50'000'000);
  EXPECT_TRUE(Contains(dog.EvaluateNow(), "wal_fsync_latency"));
  EXPECT_EQ(dog.Health().firings, 1u);
  EXPECT_TRUE(dog.Health().last_dump_path.empty());  // dumps disabled

  // The delta window advanced past the spike: healthy again.
  EXPECT_TRUE(dog.EvaluateNow().empty());
  dog.Stop();
}

TEST(WatchdogRuleTest, IngestLagMonotoneGrowthFires) {
  metrics::Gauge* lag_epoch = metrics::Registry::Global().GetGauge(
      "gs_graph_epoch", {{"graph", "wd_lag"}});
  // Dominate every other graph's epoch so this test controls the max.
  lag_epoch->Set(1000);

  watchdog::Watchdog dog;
  watchdog::WatchdogOptions options;
  options.cadence_ms = 3600 * 1000;
  options.ingest_lag_min = 2;
  options.ingest_lag_increases = 3;
  options.write_flight_dumps = false;
  // Baseline: lag already 1000-ish.
  ASSERT_NO_FATAL_FAILURE(StartAndAwaitFirstEvaluation(&dog, options));

  metrics::Counter* rule_firings = metrics::Registry::Global().GetCounter(
      "gs_watchdog_rule_firings", {{"rule", "ingest_lag"}});
  const uint64_t rule_firings_before = rule_firings->Value();

  // Three consecutive strictly-increasing evaluations above the floor.
  lag_epoch->Set(1001);
  EXPECT_FALSE(Contains(dog.EvaluateNow(), "ingest_lag"));
  lag_epoch->Set(1002);
  EXPECT_FALSE(Contains(dog.EvaluateNow(), "ingest_lag"));
  lag_epoch->Set(1003);
  EXPECT_TRUE(Contains(dog.EvaluateNow(), "ingest_lag"));
  EXPECT_EQ(rule_firings->Value(), rule_firings_before + 1);

  // Lag flat: the streak resets and the rule clears.
  EXPECT_FALSE(Contains(dog.EvaluateNow(), "ingest_lag"));

  // Each evaluation publishes the lag it read as a registry gauge.
  const int64_t sealed = metrics::Registry::Global()
                             .GetGauge("gs_engine_last_sealed_epoch")
                             ->Value();
  EXPECT_EQ(metrics::Registry::Global()
                .GetGauge("gs_watchdog_ingest_lag")
                ->Value(),
            1003 - sealed);

  lag_epoch->Set(0);
  dog.Stop();
}

// The issue's stall-injection acceptance criterion: an injected frontier
// stall (fuzz_hooks) makes the watchdog fire within its deadline, /healthz
// flips to 503 naming frontier_stall, and the flight dump is well-formed.
TEST(WatchdogIntegrationTest, FrontierStallFlips503AndDumps) {
  differential::fuzz::Hooks hooks;
  hooks.stall_frontier_ms = 600;
  differential::fuzz::ScopedHooks scoped(hooks);

  watchdog::WatchdogOptions options;
  options.cadence_ms = 10;
  options.frontier_stall_ms = 50;
  options.flight_dir = ::testing::TempDir();
  ASSERT_TRUE(watchdog::Watchdog::Global().Start(options).ok());

  server::StatusServer server;
  ASSERT_TRUE(server.Start(0).ok());

  DataflowOptions dopts;
  dopts.num_workers = 2;
  ShardedDataflow dataflow(dopts);
  std::vector<Input<IntPair>> inputs;
  std::vector<Arranged<int64_t, int64_t>> arranged;
  inputs.reserve(dopts.num_workers);
  for (size_t w = 0; w < dataflow.num_workers(); ++w) {
    inputs.emplace_back(dataflow.worker(w));
    arranged.push_back(Arrange(inputs[w].stream()));
  }
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    IntPair p{rng.Uniform(0, 64), rng.Uniform(0, 1000)};
    inputs[dataflow.OwnerOfHash(HashValue(p))].Send(p, 1);
  }

  Status step_status = Status::Ok();
  std::thread runner([&] { step_status = dataflow.Step(); });

  // The stall holds the round open for 600ms; the watchdog must fire within
  // deadline + cadence (~60ms), leaving a wide window to observe the 503.
  bool fired = false;
  for (int i = 0; i < 1000 && !fired; ++i) {
    fired = !watchdog::Watchdog::Global().Health().healthy;
    if (!fired) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fired) << "watchdog did not fire during the injected stall";

  HttpReply reply = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(reply.status_code, 503);
  json_lite::Value verdict = ParseJsonOrFail(reply.body);
  EXPECT_FALSE(verdict.Get("healthy")->boolean);
  const json_lite::Value* violated = verdict.Get("violated_rules");
  ASSERT_NE(violated, nullptr);
  bool named = false;
  for (const json_lite::Value& v : violated->array) {
    if (v.string == "frontier_stall") named = true;
  }
  EXPECT_TRUE(named) << reply.body;

  runner.join();
  ASSERT_TRUE(step_status.ok()) << step_status.ToString();

  // Progress resumed: the rule clears within a few evaluation ticks.
  bool healed = false;
  for (int i = 0; i < 400 && !healed; ++i) {
    healed = watchdog::Watchdog::Global().Health().healthy;
    if (!healed) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(healed);

  watchdog::HealthSnapshot health = watchdog::Watchdog::Global().Health();
  EXPECT_GE(health.firings, 1u);
  ASSERT_FALSE(health.last_dump_path.empty());
  EXPECT_NE(health.last_dump_path.find("frontier_stall"), std::string::npos);
  ExpectFlightDumpWellFormed(health.last_dump_path, "frontier_stall");
  EXPECT_EQ(HttpGet(server.port(), "/healthz").body, "ok\n");

  watchdog::Watchdog::Global().Stop();
}

// The second injection hook: a delayed epoch seal pushes a real
// LiveRun::AdvanceEpoch past the watchdog's epoch_advance_deadline.
TEST(WatchdogIntegrationTest, EpochSealDelayTripsAdvanceDeadline) {
  differential::fuzz::Hooks hooks;
  hooks.delay_epoch_seal_ms = 400;
  differential::fuzz::ScopedHooks scoped(hooks);

  PropertyGraph g;
  g.AddNodes(24);
  ASSERT_TRUE(g.edge_properties().AddColumn("w", PropertyType::kInt).ok());
  Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(g.AddEdge(rng.Index(24), rng.Index(24)).ok());
    ASSERT_TRUE(g.edge_properties()
                    .AppendRow({PropertyValue(rng.Uniform(0, 15))})
                    .ok());
  }
  const int wcol = g.FindWeightColumn("w");
  ASSERT_GE(wcol, 0);
  std::vector<std::function<bool(EdgeId)>> preds;
  for (int64_t threshold : {4, 8, 12}) {
    preds.push_back([&g, wcol, threshold](EdgeId e) {
      return g.ResolveWeighted(e, wcol).weight <= threshold;
    });
  }
  preds.push_back([](EdgeId) { return true; });

  views::MaterializeOptions mopts;
  auto col = views::MaterializeCollectionWith(g, "c", {"a", "b", "c", "d"},
                                              preds, mopts);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  views::MaterializedCollection mc = std::move(col).value();

  analytics::Wcc wcc;
  views::LiveRunOptions lopts;
  lopts.weight_column = wcol;  // full_compaction_period 1: every epoch seals
  auto live = views::LiveRun::Start(wcc, g, &mc, lopts);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  watchdog::Watchdog dog;
  watchdog::WatchdogOptions options;
  options.cadence_ms = 10;
  options.epoch_advance_deadline_ms = 50;
  options.write_flight_dumps = false;
  ASSERT_TRUE(dog.Start(options).ok());

  MutationEffects effects;
  Status advanced = Status::Ok();
  std::thread runner([&] {
    Status applied =
        ApplyMutationBatch(&g, {Mutation::RemoveEdge(0)}, &effects);
    if (!applied.ok()) {
      advanced = applied;
      return;
    }
    Status maintained =
        views::UpdateCollectionForMutations(&mc, g, effects.touched_edges);
    if (!maintained.ok()) {
      advanced = maintained;
      return;
    }
    advanced = live.value()->AdvanceEpoch(effects.touched_edges);
  });

  bool fired = false;
  for (int i = 0; i < 1000 && !fired; ++i) {
    fired = Contains(dog.Health().violated_rules, "epoch_advance_deadline");
    if (!fired) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fired)
      << "epoch_advance_deadline did not fire during the delayed seal";

  runner.join();
  ASSERT_TRUE(advanced.ok()) << advanced.ToString();

  // The advance finished: its RAII scope cleared the in-progress marker.
  EXPECT_TRUE(dog.EvaluateNow().empty());
  dog.Stop();
}

// RAII environment variable for the override tests: set on construction,
// unset on destruction so state never leaks across tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(WatchdogEnvOverrideTest, ValidValuesOverrideThresholds) {
  ScopedEnv stall("GRAPHSURGE_WATCHDOG_FRONTIER_STALL_MS", "1234");
  ScopedEnv deadline("GRAPHSURGE_WATCHDOG_EPOCH_ADVANCE_DEADLINE_MS", "777");
  ScopedEnv fsync("GRAPHSURGE_WATCHDOG_WAL_FSYNC_P99_NS", "5000000");
  ScopedEnv lag_min("GRAPHSURGE_WATCHDOG_INGEST_LAG_MIN", "9");
  ScopedEnv lag_inc("GRAPHSURGE_WATCHDOG_INGEST_LAG_INCREASES", "6");
  watchdog::WatchdogOptions options;
  watchdog::Watchdog::ApplyEnvOverrides(&options);
  EXPECT_EQ(options.frontier_stall_ms, 1234u);
  EXPECT_EQ(options.epoch_advance_deadline_ms, 777u);
  EXPECT_EQ(options.wal_fsync_p99_ns, 5000000u);
  EXPECT_EQ(options.ingest_lag_min, 9u);
  EXPECT_EQ(options.ingest_lag_increases, 6);
}

TEST(WatchdogEnvOverrideTest, InvalidValuesKeepDefaults) {
  const watchdog::WatchdogOptions defaults;
  {
    ScopedEnv bad("GRAPHSURGE_WATCHDOG_FRONTIER_STALL_MS", "soon");
    watchdog::WatchdogOptions options;
    watchdog::Watchdog::ApplyEnvOverrides(&options);
    EXPECT_EQ(options.frontier_stall_ms, defaults.frontier_stall_ms);
  }
  {
    ScopedEnv bad("GRAPHSURGE_WATCHDOG_EPOCH_ADVANCE_DEADLINE_MS", "-5");
    watchdog::WatchdogOptions options;
    watchdog::Watchdog::ApplyEnvOverrides(&options);
    EXPECT_EQ(options.epoch_advance_deadline_ms,
              defaults.epoch_advance_deadline_ms);
  }
  {
    ScopedEnv bad("GRAPHSURGE_WATCHDOG_WAL_FSYNC_P99_NS", "12monkeys");
    watchdog::WatchdogOptions options;
    watchdog::Watchdog::ApplyEnvOverrides(&options);
    EXPECT_EQ(options.wal_fsync_p99_ns, defaults.wal_fsync_p99_ns);
  }
  {
    ScopedEnv bad("GRAPHSURGE_WATCHDOG_INGEST_LAG_MIN", "");
    watchdog::WatchdogOptions options;
    watchdog::Watchdog::ApplyEnvOverrides(&options);
    EXPECT_EQ(options.ingest_lag_min, defaults.ingest_lag_min);
  }
}

TEST(WatchdogEnvOverrideTest, UnsetVariablesLeaveOptionsUntouched) {
  // No GRAPHSURGE_WATCHDOG_* set: caller-provided values survive.
  watchdog::WatchdogOptions options;
  options.frontier_stall_ms = 42;
  options.ingest_lag_increases = 11;
  watchdog::Watchdog::ApplyEnvOverrides(&options);
  EXPECT_EQ(options.frontier_stall_ms, 42u);
  EXPECT_EQ(options.ingest_lag_increases, 11);
}

}  // namespace
}  // namespace gs
