// Thread-safe metrics registry: counters, gauges, and histograms with fixed
// log-scale (power-of-two) buckets. Hot-path writes land in cheap per-worker
// shards (cache-line-padded relaxed atomics, one slot per thread) and are
// only merged on scrape, so incrementing a counter from a worker shard costs
// one uncontended fetch_add. Scrape surfaces are a Prometheus-style text
// exposition (ExpositionText) and a JSON snapshot (JsonSnapshot) that bench
// binaries embed in their BENCH_*.json reports.
//
// Usage: callers look a metric up once (the returned pointer is stable for
// the registry's lifetime) and cache it, typically in a function-local
// static:
//
//   static auto* sealed =
//       metrics::Registry::Global().GetCounter("gs_engine_versions_sealed");
//   sealed->Increment();
//
// Metric names follow Prometheus conventions (snake_case, unit-suffixed).
// Labels are passed as a (sorted) map and become part of the metric key;
// series with the same family name share one `# TYPE` line on exposition.
#ifndef GRAPHSURGE_COMMON_METRICS_H_
#define GRAPHSURGE_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace gs::metrics {

namespace internal {

/// Number of write shards per metric. More shards cost memory (one cache
/// line each); fewer cost contention. 16 covers the worker counts the
/// sharded engine targets.
inline constexpr size_t kNumShards = 16;

/// Stable per-thread shard slot in [0, kNumShards): assigned round-robin on
/// a thread's first write and cached thread-locally, so distinct engine
/// workers land on distinct shards (until there are more threads than
/// shards, where correctness is unaffected — only contention grows).
size_t ThreadShardSlot();

}  // namespace internal

/// Monotonically increasing sum. Increment is wait-free on the caller's
/// shard; Value() folds all shards.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    shards_[internal::ThreadShardSlot()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, internal::kNumShards> shards_;
};

/// Last-writer-wins instantaneous value (trace sizes, queue depths).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Histogram over non-negative integer observations with fixed log-scale
/// buckets: bucket i has upper bound 2^i (inclusive), i ∈ [0, 62], plus a
/// +Inf overflow bucket at index 63. Observe is wait-free on the caller's
/// shard.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  /// Index of the bucket an observation lands in: the smallest i with
  /// value ≤ 2^i (0 and 1 share bucket 0), 63 for values above 2^62.
  static size_t BucketIndex(uint64_t value) {
    if (value <= 1) return 0;
    size_t bits = 64 - static_cast<size_t>(__builtin_clzll(value - 1));
    return bits < kNumBuckets ? bits : kNumBuckets - 1;
  }

  /// Inclusive upper bound of bucket i (UINT64_MAX denotes +Inf).
  static uint64_t BucketUpperBound(size_t i) {
    return i + 1 < kNumBuckets ? (uint64_t{1} << i) : UINT64_MAX;
  }

  void Observe(uint64_t value) {
    Shard& shard = shards_[internal::ThreadShardSlot() % kHistogramShards];
    shard.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t BucketCount(size_t i) const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.buckets[i].load(std::memory_order_relaxed);
    }
    return total;
  }

  uint64_t Count() const {
    uint64_t total = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) total += BucketCount(i);
    return total;
  }

  uint64_t Sum() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.sum.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  // Histograms carry 64 counters per shard; fewer shards than Counter keeps
  // the footprint reasonable while staying per-thread-mostly uncontended.
  static constexpr size_t kHistogramShards = 8;

  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, kHistogramShards> shards_;
};

/// Name → metric registry. Get* finds or creates; returned pointers are
/// stable until the registry is destroyed (Global() is never destroyed).
/// Lookups take a mutex — cache the pointer at the call site; writes through
/// the returned handles are lock-free.
class Registry {
 public:
  using Labels = std::map<std::string, std::string>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry (leaked singleton: usable from atexit hooks).
  static Registry& Global();

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  /// Prometheus text exposition format, series sorted by key, one `# TYPE`
  /// line per family. Histograms expand to `_bucket{le=...}`, `_sum`,
  /// `_count` per convention.
  std::string ExpositionText() const;

  /// JSON object `{"counters": {...}, "gauges": {...}, "histograms": {...}}`
  /// with histogram entries `{"count": n, "sum": s, "buckets": {"<le>": c}}`
  /// (zero buckets omitted). Embedded verbatim in BENCH_*.json reports.
  std::string JsonSnapshot() const;

  /// JsonSnapshot for the crash handler, which must not block: returns
  /// false, leaving `out` untouched, if the lookup mutex is still held at
  /// `deadline` (the crash may have interrupted a Get* call).
  bool TryJsonSnapshot(std::chrono::steady_clock::time_point deadline,
                       std::string* out) const;

  /// Series key as used in exposition: `name` or `name{k="v",...}`.
  static std::string MakeKey(const std::string& name, const Labels& labels);

 private:
  std::string JsonSnapshotLocked() const;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Labels identifying this build — git_sha (configure-time) and compiler —
/// attached to the gs_build_info gauge that Registry::Global() registers
/// with value 1.
const Registry::Labels& BuildInfoLabels();

}  // namespace gs::metrics

#endif  // GRAPHSURGE_COMMON_METRICS_H_
