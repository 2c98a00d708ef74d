#include "common/metrics.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "json_lite.h"

namespace gs::metrics {
namespace {

TEST(CounterTest, SingleThreadedIncrements) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Set(-5);
  EXPECT_EQ(gauge.Value(), -5);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket i covers (2^(i-1), 2^i]; values ≤ 1 land in bucket 0.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(Histogram::BucketIndex(5), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 3u);
  EXPECT_EQ(Histogram::BucketIndex(9), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1025), 11u);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX),
            Histogram::kNumBuckets - 1);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1024u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            UINT64_MAX);

  // Every value lands in the bucket whose bound is the least one ≥ value.
  for (uint64_t value : {1ull, 2ull, 3ull, 100ull, 4096ull, 4097ull}) {
    size_t bucket = Histogram::BucketIndex(value);
    EXPECT_LE(value, Histogram::BucketUpperBound(bucket)) << value;
    if (bucket > 0) {
      EXPECT_GT(value, Histogram::BucketUpperBound(bucket - 1)) << value;
    }
  }
}

TEST(HistogramTest, ObserveAccumulatesCountSumAndBuckets) {
  Histogram h;
  h.Observe(1);
  h.Observe(2);
  h.Observe(2);
  h.Observe(1000);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 1005u);
  EXPECT_EQ(h.BucketCount(0), 1u);   // value 1
  EXPECT_EQ(h.BucketCount(1), 2u);   // the two 2s
  EXPECT_EQ(h.BucketCount(10), 1u);  // 1000 ∈ (512, 1024]
}

TEST(HistogramTest, ConcurrentObservesSumExactly) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Observe(i % 100 + 1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += h.BucketCount(i);
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(RegistryTest, GetReturnsSamePointerForSameSeries) {
  Registry registry;
  Counter* a = registry.GetCounter("requests");
  Counter* b = registry.GetCounter("requests");
  EXPECT_EQ(a, b);
  Counter* labeled = registry.GetCounter("requests", {{"shard", "0"}});
  EXPECT_NE(a, labeled);
  EXPECT_EQ(labeled, registry.GetCounter("requests", {{"shard", "0"}}));
}

TEST(RegistryTest, MakeKeyFormatsLabels) {
  EXPECT_EQ(Registry::MakeKey("m", {}), "m");
  EXPECT_EQ(Registry::MakeKey("m", {{"a", "1"}, {"b", "x"}}),
            "m{a=\"1\",b=\"x\"}");
}

TEST(RegistryTest, PrometheusExpositionGolden) {
  Registry registry;
  registry.GetCounter("gs_requests")->Increment(3);
  registry.GetCounter("gs_requests", {{"shard", "1"}})->Increment(2);
  registry.GetGauge("gs_depth")->Set(-4);
  Histogram* h = registry.GetHistogram("gs_latency");
  h->Observe(1);
  h->Observe(3);

  const std::string expected =
      "# TYPE gs_requests counter\n"
      "gs_requests 3\n"
      "gs_requests{shard=\"1\"} 2\n"
      "# TYPE gs_depth gauge\n"
      "gs_depth -4\n"
      "# TYPE gs_latency histogram\n"
      "gs_latency_bucket{le=\"1\"} 1\n"
      "gs_latency_bucket{le=\"4\"} 2\n"
      "gs_latency_bucket{le=\"+Inf\"} 2\n"
      "gs_latency_sum 4\n"
      "gs_latency_count 2\n";
  EXPECT_EQ(registry.ExpositionText(), expected);
}

TEST(RegistryTest, JsonSnapshotParsesAndCarriesValues) {
  Registry registry;
  registry.GetCounter("c1")->Increment(7);
  registry.GetGauge("g1")->Set(9);
  registry.GetHistogram("h1")->Observe(5);

  std::string snapshot = registry.JsonSnapshot();
  json_lite::Value root;
  std::string error;
  ASSERT_TRUE(json_lite::Parse(snapshot, &root, &error)) << error << "\n"
                                                         << snapshot;
  const json_lite::Value* counters = root.Get("counters");
  ASSERT_NE(counters, nullptr);
  const json_lite::Value* c1 = counters->Get("c1");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->number, 7);
  const json_lite::Value* gauges = root.Get("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Get("g1")->number, 9);
  const json_lite::Value* h1 = root.Get("histograms")->Get("h1");
  ASSERT_NE(h1, nullptr);
  EXPECT_EQ(h1->Get("count")->number, 1);
  EXPECT_EQ(h1->Get("sum")->number, 5);
}

TEST(RegistryTest, JsonSnapshotSurvivesLargeHistogramSums) {
  // Regression: the histogram header ({"count": N, "sum": M, "buckets": {)
  // was formatted into a 48-byte buffer; a many-digit count+sum pair
  // truncated the trailing "{" and corrupted the whole snapshot.
  Registry registry;
  Histogram* h = registry.GetHistogram("big");
  for (int i = 0; i < 100; ++i) h->Observe(uint64_t{1} << 40);

  std::string snapshot = registry.JsonSnapshot();
  json_lite::Value root;
  std::string error;
  ASSERT_TRUE(json_lite::Parse(snapshot, &root, &error)) << error << "\n"
                                                         << snapshot;
  const json_lite::Value* big = root.Get("histograms")->Get("big");
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->Get("count")->number, 100);
  EXPECT_EQ(big->Get("sum")->number,
            100.0 * static_cast<double>(uint64_t{1} << 40));
  ASSERT_NE(big->Get("buckets"), nullptr);
}

TEST(RegistryTest, ConcurrentRegistrationAndUse) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // All threads race to create and bump the same series.
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("shared")->Increment();
        registry.GetHistogram("shared_h")->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared")->Value(), kThreads * 1000u);
  EXPECT_EQ(registry.GetHistogram("shared_h")->Count(), kThreads * 1000u);
}

TEST(RegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&Registry::Global(), &Registry::Global());
}

TEST(RegistryTest, GlobalCarriesBuildInfoGauge) {
  // The build-attribution gauge is registered on the global registry only
  // (test-local registries, like the golden-exposition one above, stay
  // clean). Value is always 1; the labels carry the information.
  std::string exposition = Registry::Global().ExpositionText();
  EXPECT_NE(exposition.find("gs_build_info{"), std::string::npos);
  const Registry::Labels& labels = BuildInfoLabels();
  ASSERT_EQ(labels.count("git_sha"), 1u);
  ASSERT_EQ(labels.count("compiler"), 1u);
  EXPECT_FALSE(labels.at("compiler").empty());
  EXPECT_EQ(Registry::Global().GetGauge("gs_build_info", labels)->Value(), 1);
}

TEST(QuantileTest, EmptyHistogramReturnsZero) {
  Histogram h;
  EXPECT_EQ(HistogramQuantile(h, 0.5), 0.0);
  EXPECT_EQ(HistogramQuantile(h, 0.99), 0.0);
  std::array<uint64_t, Histogram::kNumBuckets> empty{};
  EXPECT_EQ(QuantileFromBuckets(empty, 0.5), 0.0);
}

TEST(QuantileTest, ExactBucketBoundaries) {
  // One observation per bucket boundary: each value's cumulative rank maps
  // exactly back to that boundary (fraction = 1 within its bucket).
  Histogram h;
  for (uint64_t v : {1, 2, 4, 8}) h.Observe(v);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.75), 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 1.0), 8.0);
}

TEST(QuantileTest, SingleObservationInterpolatesWithinItsBucket) {
  Histogram h;
  h.Observe(1024);  // bucket (512, 1024]
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 1.0), 1024.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.5), 768.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.0), 512.0);
}

TEST(QuantileTest, OverflowBucketClampsToItsLowerBound) {
  Histogram h;
  h.Observe(UINT64_MAX);  // lands in the +Inf bucket
  // The +Inf bucket has no finite upper bound to interpolate toward; the
  // estimate clamps to the bucket's lower bound instead of overflowing.
  EXPECT_DOUBLE_EQ(
      HistogramQuantile(h, 0.99),
      static_cast<double>(
          Histogram::BucketUpperBound(Histogram::kNumBuckets - 2)));
}

TEST(QuantileTest, CrossShardObservationsMergeExactly) {
  // Concurrent observers spread across the histogram's shards; quantiles
  // are computed over the merged bucket counts, so the estimates must be
  // identical to a single-threaded fill.
  Histogram h;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 100; ++i) h.Observe(4);
      for (int i = 0; i < 100; ++i) h.Observe(16);
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(h.Count(), kThreads * 200u);
  // Half the mass ends exactly at 4, the rest exactly at 16.
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 1.0), 16.0);
  // p75 interpolates through the (8, 16] bucket: rank 1200 is 400/800 of
  // the way through it.
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.75), 12.0);
}

}  // namespace
}  // namespace gs::metrics
