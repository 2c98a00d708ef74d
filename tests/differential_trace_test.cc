// Property tests of the batch-spine trace against a naive reference trace
// (a flat update log with brute-force accumulation) over random update
// sequences, plus structural invariants of the spine itself: geometric
// batch counts and compaction that never changes any legal accumulation.
#include "differential/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "differential/time.h"
#include "differential/update.h"

namespace gs::differential {
namespace {

// The specification trace: every update kept verbatim, accumulation by
// linear scan. Deliberately has no consolidation, sealing, or compaction —
// the spine must agree with it at every legal probe time.
template <typename K, typename V>
class ReferenceTrace {
 public:
  void Insert(const K& key, const V& value, const Time& time, Diff diff) {
    if (diff != 0) log_.push_back({key, value, time, diff});
  }

  std::map<V, Diff> Accumulate(const K& key, const Time& time) const {
    std::map<V, Diff> out;
    for (const auto& e : log_) {
      if (e.key == key && e.time.LessEq(time)) out[e.value] += e.diff;
    }
    for (auto it = out.begin(); it != out.end();) {
      it = it->second == 0 ? out.erase(it) : std::next(it);
    }
    return out;
  }

 private:
  struct Entry {
    K key;
    V value;
    Time time;
    Diff diff;
  };
  std::vector<Entry> log_;
};

template <typename V>
std::map<V, Diff> ToMap(const Batch<V>& batch) {
  std::map<V, Diff> m;
  for (const auto& u : batch) m[u.data] += u.diff;
  for (auto it = m.begin(); it != m.end();) {
    it = it->second == 0 ? m.erase(it) : std::next(it);
  }
  return m;
}

// A random time at `version` with 0–2 iteration coordinates, mimicking the
// nested-scope times the engine produces.
Time RandomTime(Rng& rng, uint32_t version) {
  Time t(version);
  uint8_t depth = static_cast<uint8_t>(rng.Uniform(0, 2));
  for (uint8_t d = 0; d < depth; ++d) {
    t = t.Entered();
    t.iters[d] = static_cast<uint32_t>(rng.Uniform(0, 5));
  }
  return t;
}

TEST(TraceSpineTest, MatchesReferenceOverRandomUpdateSequences) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    Trace<uint64_t, int64_t> spine;
    ReferenceTrace<uint64_t, int64_t> reference;

    for (uint32_t version = 0; version < 6; ++version) {
      size_t inserts = 50 + rng.Index(400);
      for (size_t i = 0; i < inserts; ++i) {
        uint64_t key = rng.Index(16);
        int64_t value = static_cast<int64_t>(rng.Uniform(0, 8));
        Time t = RandomTime(rng, version);
        Diff diff = rng.Bernoulli(0.4) ? -1 : 1;
        spine.Insert(key, value, t, diff);
        reference.Insert(key, value, t, diff);

        // Mid-version probe (tail unsealed) every few inserts.
        if (i % 37 == 0) {
          uint64_t probe_key = rng.Index(16);
          Time probe = RandomTime(rng, version);
          Batch<int64_t> acc;
          spine.Accumulate(probe_key, probe, &acc);
          EXPECT_EQ(ToMap(acc), reference.Accumulate(probe_key, probe))
              << "seed " << seed << " version " << version << " insert " << i;
        }
      }

      // Seal the version, as the engine does, then re-probe every key at
      // this and the next version: compaction must be unobservable for any
      // probe at or beyond the sealed frontier.
      spine.CompactTo(version);
      for (uint64_t key = 0; key < 16; ++key) {
        for (uint32_t probe_version : {version, version + 1}) {
          Time probe = RandomTime(rng, probe_version);
          Batch<int64_t> acc;
          spine.Accumulate(key, probe, &acc);
          EXPECT_EQ(ToMap(acc), reference.Accumulate(key, probe))
              << "seed " << seed << " sealed " << version << " probe v"
              << probe_version;
        }
      }
    }
  }
}

TEST(TraceSpineTest, ForEachVisitsExactlyTheKeyHistory) {
  Rng rng(42);
  Trace<uint64_t, int64_t> spine;
  std::map<uint64_t, Diff> expected_net;
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = rng.Index(32);
    Diff diff = rng.Bernoulli(0.3) ? -1 : 1;
    spine.Insert(key, static_cast<int64_t>(rng.Uniform(0, 4)), Time(0), diff);
    expected_net[key] += diff;
  }
  for (uint64_t key = 0; key < 32; ++key) {
    Diff net = 0;
    spine.ForEach(key,
                  [&](const int64_t&, const Time&, Diff d) { net += d; });
    EXPECT_EQ(net, expected_net[key]) << "key " << key;
  }
}

TEST(TraceSpineTest, SpineStaysLogarithmic) {
  // 100k inserts with unique (key, value) pairs — nothing consolidates, so
  // the geometric merge invariant alone must bound the batch count.
  Trace<uint64_t, int64_t> trace;
  const size_t kInserts = 100000;
  for (size_t i = 0; i < kInserts; ++i) {
    trace.Insert(i % 512, static_cast<int64_t>(i), Time(0), 1);
  }
  EXPECT_EQ(trace.total_entries(), kInserts);
  // log2(100000 / 256) ≈ 8.6; the invariant allows a small constant slack.
  EXPECT_LE(trace.num_spine_batches(), 16u);

  // Compaction at a version that invalidates nothing must not lose data.
  trace.CompactTo(0);
  EXPECT_EQ(trace.total_entries(), kInserts);

  // Inserting the exact retractions and sealing must cancel the trace to
  // nothing. Batches already rewritten to the frontier compact one seal
  // later (documented in trace.h), so full convergence takes two seals.
  for (size_t i = 0; i < kInserts; ++i) {
    trace.Insert(i % 512, static_cast<int64_t>(i), Time(1), -1);
  }
  trace.CompactTo(2);
  trace.CompactTo(3);
  EXPECT_EQ(trace.total_entries(), 0u);
  EXPECT_EQ(trace.num_keys(), 0u);
}

TEST(TraceSpineTest, IterationCoordinatesSurviveCompaction) {
  // Version rewriting must never collapse iteration coordinates: a probe at
  // (v, j) still sees exactly the entries with iteration ≤ j.
  Trace<uint64_t, int64_t> trace;
  Time t0 = Time(0).Entered();  // (0, {0})
  Time t2 = t0;
  t2.iters[0] = 2;  // (0, {2})
  trace.Insert(7, 10, t0, 1);
  trace.Insert(7, 20, t2, 1);
  trace.CompactTo(3);  // rewrites both versions to 3, keeps iterations

  Time probe1 = Time(3).Entered();
  probe1.iters[0] = 1;  // (3, {1}) — sees only the iteration-0 entry
  Batch<int64_t> acc;
  trace.Accumulate(7, probe1, &acc);
  EXPECT_EQ(ToMap(acc), (std::map<int64_t, Diff>{{10, 1}}));

  Time probe2 = Time(3).Entered();
  probe2.iters[0] = 2;  // (3, {2}) — sees both
  acc.clear();
  trace.Accumulate(7, probe2, &acc);
  EXPECT_EQ(ToMap(acc), (std::map<int64_t, Diff>{{10, 1}, {20, 1}}));
}

TEST(TraceSpineTest, SkewedMergesMatchReference) {
  // A huge sorted history plus trickles of small batches: every seal merges
  // short new runs into long runs of the big batch, and no merge may change
  // any accumulation.
  Rng rng(99);
  Trace<uint64_t, int64_t> spine;
  ReferenceTrace<uint64_t, int64_t> reference;

  // Version 0: a large base history over many keys, fully compacted into
  // one big batch.
  for (uint64_t i = 0; i < 8192; ++i) {
    uint64_t key = rng.Index(1024);
    int64_t value = rng.Uniform(0, 3);
    spine.Insert(key, value, Time(0), 1);
    reference.Insert(key, value, Time(0), 1);
  }
  spine.CompactTo(0);

  // Versions 1..8: small skewed bursts, each hitting a narrow key range so
  // merges interleave long runs of the big batch with short new runs.
  for (uint32_t v = 1; v <= 8; ++v) {
    uint64_t base = rng.Index(900);
    for (int i = 0; i < 96; ++i) {
      uint64_t key = base + rng.Index(16);
      int64_t value = rng.Uniform(0, 3);
      Time t = RandomTime(rng, v);
      Diff diff = rng.Bernoulli(0.3) ? -1 : 1;
      spine.Insert(key, value, t, diff);
      reference.Insert(key, value, t, diff);
    }
    spine.CompactTo(v);
  }

  // Every key's accumulation at the final frontier must match the naive
  // reference.
  Time probe = Time(8).Entered().Entered();
  probe.iters[0] = 100;  // above any iteration used
  probe.iters[1] = 100;
  for (uint64_t key = 0; key < 1024; ++key) {
    Batch<int64_t> acc;
    spine.Accumulate(key, probe, &acc);
    EXPECT_EQ(ToMap(acc), reference.Accumulate(key, probe)) << "key " << key;
  }
}

TEST(TraceSpineTest, CompactedSingleTimeProbesMatchReference) {
  // After a full compaction every surviving entry of a single-version trace
  // sits at one identical time. Probes below, at, and above that time must
  // match the reference.
  Trace<uint64_t, int64_t> spine;
  ReferenceTrace<uint64_t, int64_t> reference;
  Rng rng(7);
  for (uint64_t i = 0; i < 512; ++i) {
    uint64_t key = rng.Index(64);
    int64_t value = rng.Uniform(0, 5);
    spine.Insert(key, value, Time(2), 1);
    reference.Insert(key, value, Time(2), 1);
  }
  spine.CompactTo(2);
  for (uint64_t key = 0; key < 64; ++key) {
    for (uint32_t v : {1u, 2u, 3u}) {
      Batch<int64_t> acc;
      spine.Accumulate(key, Time(v), &acc);
      EXPECT_EQ(ToMap(acc), reference.Accumulate(key, Time(v)))
          << "key " << key << " version " << v;
    }
  }
}

TEST(TraceSpineTest, HubKeyRunMatchesReference) {
  // One hub key holds a 4,096-entry run between short keys. The key seek
  // scans that run linearly and must stop exactly at both of its ends, for
  // ForEach and Accumulate alike.
  constexpr uint64_t kHub = 32;
  Rng rng(11);
  Trace<uint64_t, int64_t> spine;
  ReferenceTrace<uint64_t, int64_t> reference;
  auto insert = [&](uint64_t key, int64_t value, const Time& t, Diff diff) {
    spine.Insert(key, value, t, diff);
    reference.Insert(key, value, t, diff);
  };
  for (uint32_t version = 0; version < 2; ++version) {
    for (int64_t i = 0; i < 4096; ++i) {
      insert(kHub, i, RandomTime(rng, version), rng.Bernoulli(0.2) ? -1 : 1);
      if (i % 32 == 0) {
        const uint64_t key = rng.Index(64);
        insert(key == kHub ? key + 1 : key, rng.Uniform(0, 3),
               RandomTime(rng, version), 1);
      }
    }
    spine.CompactTo(version);
    for (uint64_t key = 0; key < 64; ++key) {
      for (uint32_t probe_version : {version, version + 1}) {
        const Time probe = RandomTime(rng, probe_version);
        Batch<int64_t> acc;
        spine.Accumulate(key, probe, &acc);
        const std::map<int64_t, Diff> expected =
            reference.Accumulate(key, probe);
        EXPECT_EQ(ToMap(acc), expected)
            << "key " << key << " sealed " << version;
        Batch<int64_t> visited;
        spine.ForEach(key, [&](const int64_t& value, const Time& t, Diff d) {
          if (t.LessEq(probe)) visited.push_back(Update<int64_t>{value, d});
        });
        EXPECT_EQ(ToMap(visited), expected)
            << "key " << key << " sealed " << version;
      }
    }
  }
}

}  // namespace
}  // namespace gs::differential
