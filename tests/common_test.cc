#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace gs {
namespace {

TEST(HashTest, Mix64Decorrelates) {
  // Sequential inputs must not produce sequential outputs.
  std::set<uint64_t> low_bits;
  for (uint64_t i = 0; i < 1000; ++i) low_bits.insert(Mix64(i) & 0xFF);
  EXPECT_GT(low_bits.size(), 200u);  // all 256 buckets nearly covered
}

TEST(HashTest, PairAndTupleHashing) {
  auto h1 = HashValue(std::make_pair(uint64_t{1}, uint64_t{2}));
  auto h2 = HashValue(std::make_pair(uint64_t{2}, uint64_t{1}));
  EXPECT_NE(h1, h2);  // order matters
  auto t1 = HashValue(std::make_tuple(1, std::string("a"), true));
  auto t2 = HashValue(std::make_tuple(1, std::string("a"), false));
  EXPECT_NE(t1, t2);
}

TEST(RandomTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000000), b.Uniform(0, 1000000));
  }
}

TEST(RandomTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, PowerLawSkewsLow) {
  Rng rng(2);
  int lows = 0;
  const int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.PowerLaw(1000, 1.5) < 10) ++lows;
  }
  // With alpha 1.5, a large fraction of mass is on the first few values.
  EXPECT_GT(lows, kTrials / 4);
}

TEST(RandomTest, SampleDistinctIsDistinct) {
  Rng rng(3);
  auto sample = rng.SampleDistinct(100, 50);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
  for (uint64_t v : sample) EXPECT_LT(v, 100u);
}

TEST(ThreadPoolTest, InlineModeRunsTasks) {
  ThreadPool pool(1);
  int counter = 0;
  pool.Submit([&] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter, 1);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForShardsPartition) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> ranges;
  pool.ParallelForShards(100, [&](size_t shard, size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(begin, end);
  });
  size_t total = 0;
  for (auto [b, e] : ranges) total += e - b;
  EXPECT_EQ(total, 100u);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_LT(t.Seconds(), 10.0);
}

TEST(NowMillisTest, MonotonicallyNonDecreasingAndNeverZero) {
  uint64_t a = NowMillis();
  uint64_t b = NowMillis();
  EXPECT_GE(a, 1u);
  EXPECT_LE(a, b);
}

// GS_CHECK used as the sole statement of an if branch must not capture a
// following else (the classic dangling-else macro hazard). With a bare
// `if (!(cond)) log` expansion the else below would bind to the macro's
// internal if and run when the check PASSES; the switch-wrapped expansion
// makes it bind to the outer if, so it runs only when `outer` is false.
TEST(CheckMacroTest, ElseBindsToEnclosingIf) {
  bool else_taken = false;
  const bool outer = false;
  if (outer)
    GS_CHECK(true) << "never evaluated";
  else
    else_taken = true;
  EXPECT_TRUE(else_taken);

  // And when the outer branch is taken, a passing check runs without
  // touching the else.
  else_taken = false;
  const bool outer2 = true;
  if (outer2)
    GS_CHECK(1 + 1 == 2) << "passes";
  else
    else_taken = true;
  EXPECT_FALSE(else_taken);
}

// Captured log lines for the sink tests below. The sink is process-global,
// so these tests serialize through a static buffer guarded by a mutex.
std::mutex g_sink_mutex;
std::vector<std::string>* g_sink_lines = nullptr;

void TestSink(const char* data, size_t size) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (g_sink_lines != nullptr) g_sink_lines->emplace_back(data, size);
}

class LogSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    {
      std::lock_guard<std::mutex> lock(g_sink_mutex);
      g_sink_lines = &lines_;
    }
    internal::SetLogSinkForTest(&TestSink);
  }
  void TearDown() override {
    internal::SetLogSinkForTest(nullptr);
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    g_sink_lines = nullptr;
  }
  std::vector<std::string> lines_;
};

TEST_F(LogSinkTest, WorkerIdPrefixesLogLines) {
  {
    ScopedWorkerId tag(3);
    GS_LOG(Info) << "tagged message";
  }
  GS_LOG(Info) << "untagged message";
  ASSERT_EQ(lines_.size(), 2u);
  EXPECT_NE(lines_[0].find("[INFO W3 "), std::string::npos) << lines_[0];
  EXPECT_NE(lines_[0].find("tagged message"), std::string::npos);
  EXPECT_EQ(lines_[1].find("W3"), std::string::npos) << lines_[1];
}

TEST_F(LogSinkTest, ScopedWorkerIdRestoresPrevious) {
  SetThreadWorkerId(1);
  {
    ScopedWorkerId inner(2);
    EXPECT_EQ(GetThreadWorkerId(), 2);
  }
  EXPECT_EQ(GetThreadWorkerId(), 1);
  SetThreadWorkerId(-1);
  EXPECT_EQ(GetThreadWorkerId(), -1);
}

TEST_F(LogSinkTest, ConcurrentEmissionsAreWholeLines) {
  // Each message arrives at the sink as one complete, newline-terminated
  // line — concurrent emitters never interleave fragments.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      ScopedWorkerId tag(t);
      for (int i = 0; i < kPerThread; ++i) {
        GS_LOG(Info) << "worker " << t << " line " << i << " payload";
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(lines_.size(), static_cast<size_t>(kThreads * kPerThread));
  for (const std::string& line : lines_) {
    EXPECT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    // Exactly one newline (at the end) and exactly one payload marker:
    // no torn or merged lines.
    EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
    size_t first = line.find("payload");
    ASSERT_NE(first, std::string::npos) << line;
    EXPECT_EQ(line.find("payload", first + 1), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace gs
