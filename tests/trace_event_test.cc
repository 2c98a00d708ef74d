#include "common/trace_event.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "differential/differential.h"
#include "json_lite.h"

namespace gs::trace {
namespace {

class TraceEventTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    ClearForTest();
  }
  void TearDown() override {
    SetEnabled(false);
    ClearForTest();
  }
};

// Parses a trace dump and returns the traceEvents array, failing the test on
// malformed JSON.
json_lite::Value ParseTrace(const std::string& text) {
  json_lite::Value root;
  std::string error;
  EXPECT_TRUE(json_lite::Parse(text, &root, &error)) << error;
  return root;
}

TEST_F(TraceEventTest, DisabledRecordsNothing) {
  AddInstantEvent("test", "ignored");
  { Span span("test", "also_ignored"); }
  json_lite::Value root = ParseTrace(ToJson());
  const json_lite::Value* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->array.empty());
}

TEST_F(TraceEventTest, EmptyDumpIsValidJson) {
  json_lite::Value root = ParseTrace(ToJson());
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.Get("traceEvents"), nullptr);
  EXPECT_TRUE(root.Get("traceEvents")->is_array());
  ASSERT_NE(root.Get("displayTimeUnit"), nullptr);
  EXPECT_EQ(root.Get("displayTimeUnit")->string, "ms");
}

TEST_F(TraceEventTest, RecordsSpanAndInstant) {
  SetEnabled(true);
  { Span span("cat_span", "my_span", /*version=*/3); }
  AddInstantEvent("cat_instant", "my_instant");
  SetEnabled(false);

  json_lite::Value root = ParseTrace(ToJson());
  const json_lite::Value* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);

  // Chrome trace-event required fields on every event.
  for (const json_lite::Value& e : events->array) {
    ASSERT_TRUE(e.is_object());
    EXPECT_NE(e.Get("name"), nullptr);
    EXPECT_NE(e.Get("cat"), nullptr);
    ASSERT_NE(e.Get("ph"), nullptr);
    EXPECT_NE(e.Get("ts"), nullptr);
    EXPECT_NE(e.Get("pid"), nullptr);
    EXPECT_NE(e.Get("tid"), nullptr);
  }

  const json_lite::Value& span = events->array[0];
  EXPECT_EQ(span.Get("ph")->string, "X");
  EXPECT_EQ(span.Get("name")->string, "my_span");
  ASSERT_NE(span.Get("dur"), nullptr);
  ASSERT_NE(span.Get("args"), nullptr);
  EXPECT_EQ(span.Get("args")->Get("version")->number, 3);

  const json_lite::Value& instant = events->array[1];
  EXPECT_EQ(instant.Get("ph")->string, "i");
  EXPECT_EQ(instant.Get("name")->string, "my_instant");
}

TEST_F(TraceEventTest, LongNamesAreTruncatedNotCorrupted) {
  SetEnabled(true);
  std::string long_name(200, 'x');
  AddInstantEvent("test", long_name.c_str());
  SetEnabled(false);
  json_lite::Value root = ParseTrace(ToJson());
  const auto& events = root.Get("traceEvents")->array;
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].Get("name")->string, std::string(kNameCapacity - 1, 'x'));
}

TEST_F(TraceEventTest, TidUsesWorkerIdWhenSet) {
  SetEnabled(true);
  {
    ScopedWorkerId tag(5);
    AddInstantEvent("test", "tagged");
  }
  AddInstantEvent("test", "untagged");
  SetEnabled(false);
  json_lite::Value root = ParseTrace(ToJson());
  const auto& events = root.Get("traceEvents")->array;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].Get("tid")->number, 5);
  // Untagged threads get a synthetic tid ≥ 1000.
  EXPECT_GE(events[1].Get("tid")->number, 1000);
}

TEST_F(TraceEventTest, SpanStartedWhileDisabledStaysDisabled) {
  {
    Span span("test", "pre_enable");
    // The span destructs while recording is enabled but must not record —
    // it captured no valid start time.
    SetEnabled(true);
  }
  SetEnabled(false);
  json_lite::Value root = ParseTrace(ToJson());
  EXPECT_TRUE(root.Get("traceEvents")->array.empty());
}

TEST_F(TraceEventTest, WriteJsonRoundTripsThroughDisk) {
  SetEnabled(true);
  { Span span("test", "disk_span"); }
  SetEnabled(false);
  std::string path = ::testing::TempDir() + "/gs_trace_test.json";
  ASSERT_TRUE(WriteJson(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  json_lite::Value root = ParseTrace(buffer.str());
  ASSERT_EQ(root.Get("traceEvents")->array.size(), 1u);
  EXPECT_EQ(root.Get("traceEvents")->array[0].Get("name")->string,
            "disk_span");
  std::remove(path.c_str());
}

// End-to-end: run a real sharded differential computation with tracing on
// and check the dump is a loadable Chrome/Perfetto trace with the expected
// engine spans — the programmatic stand-in for "loads in ui.perfetto.dev".
TEST_F(TraceEventTest, EngineRunProducesLoadablePerfettoTrace) {
  namespace dd = ::gs::differential;
  SetEnabled(true);
  {
    dd::DataflowOptions options;
    options.num_workers = 2;
    dd::ShardedDataflow sharded(options);
    std::vector<dd::Input<std::pair<uint64_t, int64_t>>> inputs;
    for (size_t w = 0; w < sharded.num_workers(); ++w) {
      inputs.emplace_back(sharded.worker(w));
      dd::Capture(dd::ReduceMin(inputs[w].stream()));
    }
    for (int64_t i = 0; i < 1000; ++i) {
      uint64_t key = static_cast<uint64_t>(i) % 64;
      inputs[sharded.OwnerOfHash(HashValue(key))].Send({key, i}, 1);
    }
    ASSERT_TRUE(sharded.Step().ok());
  }
  SetEnabled(false);

  json_lite::Value root = ParseTrace(ToJson());
  const json_lite::Value* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->array.empty());

  bool saw_step = false;
  bool saw_seal = false;
  bool saw_op = false;
  for (const json_lite::Value& e : events->array) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.Get("ph"), nullptr);
    ASSERT_NE(e.Get("ts"), nullptr);
    ASSERT_NE(e.Get("pid"), nullptr);
    ASSERT_NE(e.Get("tid"), nullptr);
    const std::string& ph = e.Get("ph")->string;
    if (ph == "X") {
      ASSERT_NE(e.Get("dur"), nullptr);
    }
    const std::string& cat = e.Get("cat")->string;
    const std::string& name = e.Get("name")->string;
    if (cat == "engine" && name == "step") saw_step = true;
    if (cat == "engine" && name == "seal") saw_seal = true;
    if (cat == "op") saw_op = true;
  }
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_seal);
  EXPECT_TRUE(saw_op);
}

// Threads that record and exit one after another share one ring buffer:
// a buffer outlives its thread only until the next recording thread takes
// it over, so a process that keeps starting short-lived pools (a fuzz
// campaign, a server running one dataflow per query) holds a bounded number
// of rings. The exited threads' events stay in the dump.
TEST_F(TraceEventTest, ExitedThreadsHandTheirRingToTheNextThread) {
  SetEnabled(true);
  AddInstantEvent("test", "main");
  std::thread([] { AddInstantEvent("test", "first_thread"); }).join();
  const size_t buffers = ThreadBufferCountForTest();
  for (int i = 0; i < 20; ++i) {
    std::thread([] { AddInstantEvent("test", "later_thread"); }).join();
  }
  SetEnabled(false);
  EXPECT_EQ(ThreadBufferCountForTest(), buffers);
  const std::string json = ToJson();
  EXPECT_NE(json.find("\"first_thread\""), std::string::npos);
  EXPECT_NE(json.find("\"later_thread\""), std::string::npos);
}

// Overflowing a thread's ring buffer must keep the dump a well-formed
// trace: newest events win, spans stay properly formed, and the JSON still
// parses. Nested outer/inner spans across the wrap point exercise the case
// where an inner span survives but its enclosing outer span was evicted.
TEST_F(TraceEventTest, RingWraparoundDropsOldestKeepsJsonWellFormed) {
  // Keep in sync with ThreadBuffer::kCapacity in trace_event.cc.
  constexpr size_t kRingCapacity = 16384;
  constexpr size_t kPairs = kRingCapacity / 2 + 512;  // overflow by ~1024
  SetEnabled(true);
  for (size_t i = 0; i < kPairs; ++i) {
    std::string name = "outer_" + std::to_string(i);
    Span outer("wrap", name.c_str(), static_cast<uint32_t>(i));
    std::string inner_name = "inner_" + std::to_string(i);
    Span inner("wrap", inner_name.c_str(), static_cast<uint32_t>(i));
  }
  SetEnabled(false);

  // The dump keeps exactly one ring of events, and they are the newest (the
  // first recorded pairs were evicted).
  json_lite::Value root = ParseTrace(ToJson());
  ASSERT_NE(root.Get("traceEvents"), nullptr);
  const std::vector<json_lite::Value>& events =
      root.Get("traceEvents")->array;
  ASSERT_EQ(events.size(), kRingCapacity);
  auto version_of = [](const json_lite::Value& e) {
    return static_cast<uint32_t>(e.Get("args")->Get("version")->number);
  };
  // Timestamps are microseconds with three decimals: whole nanoseconds.
  auto nanos_of = [](const json_lite::Value& e, const char* field) {
    return static_cast<uint64_t>(std::llround(e.Get(field)->number * 1e3));
  };
  uint32_t min_version = UINT32_MAX;
  uint32_t max_version = 0;
  for (const json_lite::Value& e : events) {
    ASSERT_EQ(e.Get("ph")->string, "X");
    ASSERT_NE(e.Get("dur"), nullptr);
    ASSERT_NE(e.Get("args"), nullptr);
    ASSERT_NE(e.Get("args")->Get("version"), nullptr);
    EXPECT_EQ(e.Get("cat")->string, "wrap");
    min_version = std::min(min_version, version_of(e));
    max_version = std::max(max_version, version_of(e));
  }
  EXPECT_EQ(max_version, kPairs - 1);                  // newest kept
  EXPECT_EQ(min_version, kPairs - kRingCapacity / 2);  // oldest dropped
  // Spans destruct inner-first, so events are ordered inner_i, outer_i,
  // inner_i+1, ... — every surviving pair must still nest (inner's interval
  // inside outer's), even right after the wrap seam.
  for (size_t i = 0; i + 1 < events.size(); i += 2) {
    const json_lite::Value& inner = events[i];
    const json_lite::Value& outer = events[i + 1];
    ASSERT_EQ(version_of(inner), version_of(outer));
    const uint64_t inner_ts = nanos_of(inner, "ts");
    const uint64_t outer_ts = nanos_of(outer, "ts");
    EXPECT_GE(inner_ts, outer_ts);
    EXPECT_LE(inner_ts + nanos_of(inner, "dur"),
              outer_ts + nanos_of(outer, "dur"));
  }
}

}  // namespace
}  // namespace gs::trace
