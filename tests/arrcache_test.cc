// Arrangement-cache lifecycle: builder/reader transactions, slot typing,
// abort and empty-commit retraction, concurrent-builder waiting, LRU
// eviction under a byte budget, scope invalidation, and the end-to-end
// behavior through the api::Graphsurge facade (epoch invalidation after
// ApplyMutations, teardown-zero gauges).
#include "differential/arrcache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "api/graphsurge.h"
#include "common/metrics.h"
#include "graph/generators.h"
#include "graph/mutation.h"
#include "views/executor.h"

namespace gs::differential {
namespace {

using Role = ArrCacheTxn::Role;

std::shared_ptr<const std::vector<int>> Rows(std::vector<int> v) {
  return std::make_shared<const std::vector<int>>(std::move(v));
}

// Most tests use a private cache instance so per-key stats start from zero
// and nothing leaks into the process-wide cache the facade tests inspect.
TEST(ArrCacheTest, BuilderMissThenReaderHit) {
  ArrangementCache cache;
  {
    auto txn = cache.Begin("s/g@0", "wcc/w1");
    ASSERT_EQ(txn->role(), Role::kBuilder);
    EXPECT_TRUE(txn->building());
    // A builder never reads slots, even its own staged ones.
    EXPECT_EQ(txn->GetRows<int>(0, 0), nullptr);
    txn->PutRows<int>(0, 0, Rows({1, 2, 3}));
    txn->PutRows<int>(4, 0, Rows({7}));
    txn->Commit();
  }
  auto stats = cache.Stats("s/g@0", "wcc/w1");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_EQ(stats->hits, 0u);
  EXPECT_TRUE(stats->complete);
  EXPECT_TRUE(stats->resident);
  EXPECT_EQ(stats->bytes, 4 * sizeof(int));
  EXPECT_EQ(stats->pins, 0);

  {
    auto txn = cache.Begin("s/g@0", "wcc/w1");
    ASSERT_EQ(txn->role(), Role::kReader);
    EXPECT_TRUE(txn->importing());
    auto rows = txn->GetRows<int>(0, 0);
    ASSERT_NE(rows, nullptr);
    EXPECT_EQ(*rows, (std::vector<int>{1, 2, 3}));
    // Type mismatch and absent slots both read as "build it yourself".
    EXPECT_EQ(txn->GetRows<double>(0, 0), nullptr);
    EXPECT_EQ(txn->GetRows<int>(1, 0), nullptr);
    // While the reader is live the entry is pinned.
    EXPECT_EQ(cache.Stats("s/g@0", "wcc/w1")->pins, 1);
  }
  stats = cache.Stats("s/g@0", "wcc/w1");
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_EQ(stats->pins, 0);

  // Distinct tags on the same scope are distinct entries.
  auto other = cache.Begin("s/g@0", "scc/w1");
  EXPECT_EQ(other->role(), Role::kBuilder);
}

TEST(ArrCacheTest, EmptyScopeBypasses) {
  ArrangementCache cache;
  auto txn = cache.Begin("", "wcc/w1");
  EXPECT_EQ(txn->role(), Role::kBypass);
  txn->PutRows<int>(0, 0, Rows({1}));  // ignored
  txn->Commit();
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_FALSE(cache.Stats("", "wcc/w1").has_value());
}

TEST(ArrCacheTest, AbortedBuilderRetractsEntry) {
  ArrangementCache cache;
  {
    auto txn = cache.Begin("s/g@0", "t");
    ASSERT_EQ(txn->role(), Role::kBuilder);
    txn->PutRows<int>(0, 0, Rows({1}));
    // Destroyed without Commit: the run failed.
  }
  EXPECT_EQ(cache.num_entries(), 0u);
  // The next run gets to build; it is a second miss, not a hit on a ghost.
  auto txn = cache.Begin("s/g@0", "t");
  EXPECT_EQ(txn->role(), Role::kBuilder);
  EXPECT_EQ(cache.Stats("s/g@0", "t")->misses, 2u);
}

TEST(ArrCacheTest, EmptyCommitRetractsEntry) {
  ArrangementCache cache;
  {
    auto txn = cache.Begin("s/g@0", "t");
    ASSERT_EQ(txn->role(), Role::kBuilder);
    txn->Commit();  // nothing qualified for caching in this run
  }
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.Begin("s/g@0", "t")->role(), Role::kBuilder);
}

TEST(ArrCacheTest, ConcurrentReaderWaitsForBuilder) {
  ArrangementCache cache;
  auto builder = cache.Begin("s/g@0", "t");
  ASSERT_EQ(builder->role(), Role::kBuilder);

  std::atomic<bool> reader_done{false};
  std::thread reader([&] {
    auto txn = cache.Begin("s/g@0", "t");  // blocks until Commit below
    EXPECT_EQ(txn->role(), Role::kReader);
    auto rows = txn->GetRows<int>(2, 0);
    ASSERT_NE(rows, nullptr);
    EXPECT_EQ(*rows, (std::vector<int>{42}));
    reader_done = true;
  });

  // Give the reader a moment to block on the in-flight builder.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(reader_done.load());
  builder->PutRows<int>(2, 0, Rows({42}));
  builder->Commit();
  reader.join();
  EXPECT_TRUE(reader_done.load());
  EXPECT_EQ(cache.Stats("s/g@0", "t")->hits, 1u);
}

TEST(ArrCacheTest, WaiterPromotesToBuilderAfterAbort) {
  ArrangementCache cache;
  auto builder = cache.Begin("s/g@0", "t");
  ASSERT_EQ(builder->role(), Role::kBuilder);

  std::atomic<int> promoted{0};
  std::thread waiter([&] {
    auto txn = cache.Begin("s/g@0", "t");
    if (txn->role() == Role::kBuilder) promoted = 1;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  builder.reset();  // abort: waiter retries Begin and becomes the builder
  waiter.join();
  EXPECT_EQ(promoted.load(), 1);
}

TEST(ArrCacheTest, WaitTimeoutBypasses) {
  ArrangementCache cache;
  cache.set_wait_ms(50);
  auto builder = cache.Begin("s/g@0", "t");
  ASSERT_EQ(builder->role(), Role::kBuilder);
  auto waiter = cache.Begin("s/g@0", "t");  // times out after ~50ms
  EXPECT_EQ(waiter->role(), Role::kBypass);
  EXPECT_EQ(waiter->GetRows<int>(0, 0), nullptr);
}

TEST(ArrCacheTest, LruEvictionUnderByteBudget) {
  ArrangementCache cache;
  auto build = [&](const std::string& scope, int n) {
    auto txn = cache.Begin(scope, "t");
    ASSERT_EQ(txn->role(), Role::kBuilder);
    txn->PutRows<int>(0, 0, Rows(std::vector<int>(n, 7)));
    txn->Commit();
  };
  build("a@0", 100);  // 400 bytes
  build("b@0", 100);
  build("c@0", 100);
  EXPECT_EQ(cache.total_bytes(), 1200u);

  // Touch "a" so "b" becomes least recently used.
  cache.Begin("a@0", "t");

  cache.set_byte_budget(900);
  EXPECT_EQ(cache.num_entries(), 2u);
  EXPECT_FALSE(cache.Stats("b@0", "t")->resident);
  EXPECT_TRUE(cache.Stats("a@0", "t")->resident);
  EXPECT_TRUE(cache.Stats("c@0", "t")->resident);
  // Stats survive eviction — the next build of "b" is its second miss.
  EXPECT_EQ(cache.Begin("b@0", "t")->role(), Role::kBuilder);
  EXPECT_EQ(cache.Stats("b@0", "t")->misses, 2u);
}

TEST(ArrCacheTest, PinnedEntriesSurviveEviction) {
  ArrangementCache cache;
  {
    auto txn = cache.Begin("a@0", "t");
    txn->PutRows<int>(0, 0, Rows({1, 2, 3, 4}));
    txn->Commit();
  }
  auto reader = cache.Begin("a@0", "t");
  ASSERT_EQ(reader->role(), Role::kReader);
  auto rows = reader->GetRows<int>(0, 0);
  ASSERT_NE(rows, nullptr);

  cache.set_byte_budget(0);  // pinned entry must not be evicted
  EXPECT_EQ(cache.num_entries(), 1u);

  reader.reset();  // unpin; the snapshot we already took stays valid
  cache.set_byte_budget(0);
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(*rows, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ArrCacheTest, InvalidateScopeExactAndPrefix) {
  ArrangementCache cache;
  auto build = [&](const std::string& scope) {
    auto txn = cache.Begin(scope, "t");
    ASSERT_EQ(txn->role(), Role::kBuilder);
    txn->PutRows<int>(0, 0, Rows({9}));
    txn->Commit();
  };
  build("gs1/g@0");
  build("gs1/h@0");
  build("gs2/g@0");

  // A running reader's snapshot survives invalidation via shared_ptr.
  auto reader = cache.Begin("gs1/g@0", "t");
  auto rows = reader->GetRows<int>(0, 0);
  ASSERT_NE(rows, nullptr);

  cache.InvalidateScope("gs1/g@0");  // the mutation path: exact epoch scope
  EXPECT_EQ(cache.num_entries(), 2u);
  EXPECT_FALSE(cache.Stats("gs1/g@0", "t")->resident);
  EXPECT_EQ(*rows, (std::vector<int>{9}));

  cache.InvalidateScopePrefix("gs1/");  // the teardown path: whole instance
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_TRUE(cache.Stats("gs2/g@0", "t")->resident);

  cache.Clear();
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_FALSE(cache.Stats("gs2/g@0", "t").has_value());
}

// --- End-to-end through the facade ----------------------------------------
// These use the process-wide cache (the one RunOnGraph actually talks to),
// observed through per-key Stats so concurrent global counters from other
// tests in this binary cannot skew the assertions.

std::string DefaultTag(const analytics::Computation& c) {
  // views::RunOnGraph's tag for default ExecutionOptions: one worker, no
  // weight column.
  return views::ArrangementCacheTag(c, views::ExecutionOptions());
}

TEST(ArrCacheFacadeTest, RepeatedRunOnViewHitsCache) {
  ArrangementCache::Global().Clear();
  Graphsurge system;
  ASSERT_TRUE(
      system.AddGraph("G", GenerateUniformGraph(200, 800, 11)).ok());
  analytics::Wcc wcc;

  auto first = system.RunOnView(wcc, "G");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string scope = system.ArrangementCacheScope("G");
  ASSERT_FALSE(scope.empty());
  auto stats = ArrangementCache::Global().Stats(scope, DefaultTag(wcc));
  ASSERT_TRUE(stats.has_value()) << "no cache entry for " << scope;
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_EQ(stats->hits, 0u);
  EXPECT_TRUE(stats->complete);

  auto second = system.RunOnView(wcc, "G");
  ASSERT_TRUE(second.ok());
  stats = ArrangementCache::Global().Stats(scope, DefaultTag(wcc));
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(*first, *second);
}

TEST(ArrCacheFacadeTest, ApplyMutationsInvalidatesEpochScope) {
  ArrangementCache::Global().Clear();
  Graphsurge system;
  ASSERT_TRUE(
      system.AddGraph("G", GenerateUniformGraph(100, 300, 5)).ok());
  analytics::Wcc wcc;

  auto before = system.RunOnView(wcc, "G");
  ASSERT_TRUE(before.ok());
  const std::string scope0 = system.ArrangementCacheScope("G");

  MutationBatch batch;
  batch.push_back(Mutation::AddEdge(0, 1, {PropertyValue(int64_t{1})}));
  ASSERT_TRUE(system.ApplyMutations("G", batch).ok());

  const std::string scope1 = system.ArrangementCacheScope("G");
  EXPECT_NE(scope0, scope1) << "epoch must be part of the scope";
  // The stale epoch's entry is gone; its statistics remain for inspection.
  auto stale = ArrangementCache::Global().Stats(scope0, DefaultTag(wcc));
  ASSERT_TRUE(stale.has_value());
  EXPECT_FALSE(stale->resident);

  // The run at the new epoch builds fresh (miss), and repeats hit it.
  auto after = system.RunOnView(wcc, "G");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), before->size());
  auto again = system.RunOnView(wcc, "G");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*after, *again);
  auto fresh = ArrangementCache::Global().Stats(scope1, DefaultTag(wcc));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->misses, 1u);
  EXPECT_EQ(fresh->hits, 1u);
}

TEST(ArrCacheFacadeTest, TeardownDropsEntriesAndZeroesGauges) {
  ArrangementCache::Global().Clear();
  {
    Graphsurge system;
    ASSERT_TRUE(
        system.AddGraph("G", GenerateUniformGraph(100, 300, 3)).ok());
    analytics::Wcc wcc;
    ASSERT_TRUE(system.RunOnView(wcc, "G").ok());
    EXPECT_GE(ArrangementCache::Global().num_entries(), 1u);
    EXPECT_GT(ArrangementCache::Global().total_bytes(), 0u);
  }
  // Destructor invalidates the instance's scope prefix.
  EXPECT_EQ(ArrangementCache::Global().num_entries(), 0u);
  EXPECT_EQ(ArrangementCache::Global().total_bytes(), 0u);
  EXPECT_EQ(
      metrics::Registry::Global().GetGauge("gs_arrcache_bytes")->Value(), 0);
  EXPECT_EQ(
      metrics::Registry::Global().GetGauge("gs_arrcache_entries")->Value(),
      0);
}

}  // namespace
}  // namespace gs::differential
