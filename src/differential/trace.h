// Keyed traces: per-key histories of timestamped value updates, the storage
// behind joins, reductions, and shared arrangements (arrange.h).
//
// Storage is an LSM-style spine of sorted immutable batches plus a small
// unsorted tail:
//
//   tail_   — recent Inserts, appended in O(1); sealed into a sorted batch
//             when it reaches a threshold (never by probes, so the
//             insert/probe interleaving of reduce cannot shatter the spine
//             into tiny batches).
//   spine_  — sorted immutable batches ordered by (key, value, lex time).
//             Sealing maintains a geometric size invariant by merging the
//             youngest batches, so the spine holds O(log n) batches and
//             insertion is amortized O(log n) like any LSM.
//
// Probes are cursor-based: ForEach/Accumulate binary-search each spine
// batch for the key's contiguous range and scan the (bounded) tail, so a
// key's history is read from O(log n) cache-friendly runs instead of a
// pointer-chased per-key vector. Compaction happens at merge time: once a
// version is sealed (no future batch can carry an earlier version), any
// batch still holding older versions is rewritten to the sealed frontier —
// legal because every future probe or lub time has version ≥ the frontier,
// so its product-order relation to rewritten entries is unchanged — and
// equal (key, value, time) entries then cancel. Full-spine merges are
// amortized: CompactTo runs one only after at least half the trace is new
// since the last merge, so sealing a version never rescans a quiescent
// trace. Iteration coordinates are never collapsed: a future probe at
// (v', j) must still see exactly the entries with iteration ≤ j.
#ifndef GRAPHSURGE_DIFFERENTIAL_TRACE_H_
#define GRAPHSURGE_DIFFERENTIAL_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/timer.h"
#include "differential/fuzz_hooks.h"
#include "differential/time.h"
#include "differential/update.h"

#if GRAPHSURGE_PARANOID
#include "common/logging.h"
#endif

namespace gs::differential {

/// SLO histogram: latency of tail seals and the geometric batch merges they
/// trigger — the incremental spine-maintenance path, amortized over at
/// least a tail's worth of inserts per observation.
inline metrics::Histogram* SpineMergeNanos() {
  static auto* histogram =
      metrics::Registry::Global().GetHistogram("gs_spine_merge_nanos");
  return histogram;
}

/// SLO histogram: latency of full-spine compaction merges (version/epoch
/// seals that pass the amortization guards).
inline metrics::Histogram* SpineCompactionNanos() {
  static auto* histogram =
      metrics::Registry::Global().GetHistogram("gs_spine_compaction_nanos");
  return histogram;
}

/// Keyed multiversioned index of (key, value, time, diff) updates.
/// Key and value types need operator< and operator==.
template <typename K, typename V>
class Trace {
 public:
  struct Entry {
    K key;
    V value;
    Time time;
    Diff diff;
  };

  void Insert(const K& key, const V& value, const Time& time, Diff diff) {
    if (diff == 0) return;
    ++insert_seq_;
    const fuzz::Hooks& fz = fuzz::GlobalHooks();
    if (fz.drop_insert_at != 0 && insert_seq_ == fz.drop_insert_at) {
      // Hidden --inject-bug hook: silently lose this update (a simulated
      // lost-update bug the fuzzer must catch). See fuzz_hooks.h.
      return;
    }
    tail_.push_back(Entry{key, value, time, diff});
    ++total_entries_;
    peak_entries_ = std::max(peak_entries_, total_entries_);
    ++inserts_since_compaction_;
    const size_t seal_threshold =
        fz.tail_seal_threshold != 0 ? fz.tail_seal_threshold
                                    : kTailSealThreshold;
    if (tail_.size() >= seal_threshold) SealTail();
    if (fz.compaction_period != 0 && insert_seq_ % fz.compaction_period == 0) {
      // Injected mid-run compaction point. Insert call sites never hold an
      // iteration over this trace, so compacting here is legal; the
      // paranoid check asserts the hook observes a fully-merged spine.
      CheckSpineInvariants();
      CompactTo(sealed_version_);
    }
  }

  /// Visits every entry of `key` as fn(value, time, diff), in unspecified
  /// order. The trace must not be mutated during the visit.
  template <typename Fn>
  void ForEach(const K& key, Fn&& fn) const {
    for (const SpineBatch& batch : spine_) {
      auto [lo, hi] = KeyRange(batch, key);
      for (auto it = lo; it != hi; ++it) fn(it->value, it->time, it->diff);
    }
    for (const Entry& e : tail_) {
      if (e.key == key) fn(e.value, e.time, e.diff);
    }
  }

  /// Accumulates the key's value multiset at `time` (sum of diffs over all
  /// entries with entry.time ≤ time in the product order). Appends the net
  /// non-zero (value, count) pairs to `out`, consolidated and sorted by
  /// value — the appended region is built consolidated, never copied out
  /// and back.
  ///
  /// Spine batches are sorted by (key, value, lex time), so a key's matches
  /// from one batch already form a value-sorted run; only the bounded tail
  /// needs sorting. The net multiset comes from a k-way merge of those runs
  /// (k = O(log n) batches) instead of re-sorting the whole history on
  /// every probe — probes dominate reduce-heavy incremental workloads.
  void Accumulate(const K& key, const Time& time, Batch<V>* out) const {
    Probe(key, time, out, [](const Time&, const V&, Diff) {});
  }

  /// Accumulate plus a full capture of the rest of the history in one walk
  /// — the rebuild probe behind reduce's per-(version, key) memo. Entries
  /// partition exactly: an entry with time ≤ `time` joins the consolidated
  /// accumulation appended to `out` (its lub with `time` is `time` itself —
  /// nothing to schedule); any other entry is appended to `futures` with
  /// its full timestamp, from which the caller derives both the interesting
  /// times to schedule (lub(time, entry.time)) and the deltas to fold into
  /// the running accumulation when those times mature. Equivalent to
  /// ForEach followed by Accumulate, but pays a single pass over the key's
  /// spine ranges and tail.
  void AccumulateWithFutures(
      const K& key, const Time& time, Batch<V>* out,
      std::vector<std::pair<Time, Update<V>>>* futures) const {
    Probe(key, time, out, [futures](const Time& t, const V& value, Diff diff) {
      futures->push_back({t, Update<V>{value, diff}});
    });
  }

  /// Seals `sealed_version`: from now on batch merges rewrite earlier
  /// versions to the sealed frontier, cancelling converged histories.
  /// A full-spine merge costs O(total entries), so it runs only once enough
  /// new entries have arrived to pay for it — compaction stays O(1)
  /// amortized per insert instead of O(total) per sealed version, while a
  /// quiescent trace is never rescanned.
  void CompactTo(uint32_t sealed_version) {
    sealed_version_ = std::max(sealed_version_, sealed_version);
    SealTail();
    if (spine_.empty()) return;
    if (inserts_since_compaction_ * 2 < total_entries_) return;
    FullMerge();
  }

  /// Epoch-seal compaction: like CompactTo but with a looser amortization
  /// guard. An epoch boundary makes the *whole* pre-epoch history
  /// collapsible (no future input can land at or before it), so a merge
  /// pays off much earlier than the per-version 1/2 threshold — but an
  /// unconditional merge would rescan large quiescent traces (e.g. a stable
  /// adjacency arrangement) at every epoch for nothing. 1/8 new entries is
  /// the compromise: insert-heavy traces — exactly the ones whose per-key
  /// histories probes walk — re-collapse nearly every epoch, near-static
  /// ones are left alone.
  void CompactEpoch(uint32_t sealed_version) {
    sealed_version_ = std::max(sealed_version_, sealed_version);
    SealTail();
    if (spine_.empty()) return;
    if (inserts_since_compaction_ * 8 < total_entries_) return;
    FullMerge();
  }

  /// Asserts every batch-spine invariant; compiled to a no-op unless the
  /// build defines GRAPHSURGE_PARANOID (CMake option of the same name, on
  /// in the fuzzer's CI configurations). The invariants a consistent —
  /// never partially-merged — spine satisfies:
  ///   1. every batch is sorted strictly by EntryLess — sorted,
  ///      consolidated, and free of zero diffs;
  ///   2. each batch's min_version matches its entries, and version ranges
  ///      respect the sealed frontier: a batch is either untouched history
  ///      (it may still hold pre-frontier versions awaiting rewrite) or
  ///      fully rewritten — after a full compaction pass no entry sits
  ///      below the sealed frontier;
  ///   3. the geometric size invariant holds across adjacent batches
  ///      (each ≥ 2× the next younger one);
  ///   4. the entry accounting (total_entries_) matches the spine + tail.
  void CheckSpineInvariants() const {
#if GRAPHSURGE_PARANOID
    size_t counted = tail_.size();
    for (size_t b = 0; b < spine_.size(); ++b) {
      const SpineBatch& batch = spine_[b];
      const std::vector<Entry>& rows = batch.rows();
      GS_CHECK(!rows.empty()) << "empty spine batch " << b;
      uint32_t min_version = UINT32_MAX;
      uint32_t max_version = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        const Entry& e = rows[i];
        GS_CHECK(e.diff != 0)
            << "zero-diff entry in spine batch " << b << " at " << i;
        min_version = std::min(min_version, e.time.version);
        max_version = std::max(max_version, e.time.version);
        if (i > 0) {
          // EntryLess is total on distinct (key, value, time) triples, so
          // sorted-and-consolidated means strictly increasing.
          GS_CHECK(EntryLess(rows[i - 1], e))
              << "spine batch " << b << " unsorted or unconsolidated at "
              << i;
        }
      }
      GS_CHECK(batch.min_version == min_version)
          << "spine batch " << b << " min_version " << batch.min_version
          << " != computed " << min_version;
      GS_CHECK(batch.max_version == max_version)
          << "spine batch " << b << " max_version " << batch.max_version
          << " != computed " << max_version;
      if (b + 1 < spine_.size()) {
        GS_CHECK(rows.size() >= 2 * spine_[b + 1].rows().size())
            << "geometric invariant violated between batches " << b
            << " (" << rows.size() << ") and " << b + 1 << " ("
            << spine_[b + 1].rows().size() << ")";
      }
      counted += rows.size();
    }
    GS_CHECK(counted == total_entries_)
        << "entry accounting drift: counted " << counted << " tracked "
        << total_entries_;
#endif
  }

  /// Distinct keys present (test/diagnostic use; O(n log n)).
  size_t num_keys() const {
    std::vector<K> keys;
    keys.reserve(total_entries_);
    for (const SpineBatch& batch : spine_) {
      for (const Entry& e : batch.rows()) keys.push_back(e.key);
    }
    for (const Entry& e : tail_) keys.push_back(e.key);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys.size();
  }

  size_t total_entries() const { return total_entries_; }
  size_t num_spine_batches() const { return spine_.size() + !tail_.empty(); }

  /// Fixed per-entry footprint used by the byte gauges below. Deliberately
  /// sizeof(Entry) × entry count (not malloc capacity): entry counts are
  /// execution-order independent after compaction, so serial == sum of
  /// shards holds exactly and the /statusz gauges can be cross-checked
  /// against a manual spine-size computation.
  static constexpr size_t kEntryBytes = sizeof(Entry);

  /// Live resident entry bytes: (spine + tail entries) × sizeof(Entry).
  size_t live_bytes() const { return total_entries_ * kEntryBytes; }
  /// High-water mark of live_bytes() since construction.
  size_t high_water_bytes() const { return peak_entries_ * kEntryBytes; }
  /// Cumulative bytes reclaimed by consolidation/compaction (every drop of
  /// a cancelled or merged entry, wherever it happened).
  uint64_t reclaimed_bytes() const { return entries_reclaimed_ * kEntryBytes; }

  /// Cumulative pairwise batch merges performed (geometric invariant
  /// restores plus full-compaction passes). Trace-owning operators
  /// re-report it into DataflowStats at each seal.
  uint64_t num_merges() const { return num_merges_; }

  /// Seeds an empty trace with an immutable shared snapshot (the
  /// process-level arrangement cache, arrcache.h). The snapshot must be
  /// sorted by EntryLess and consolidated — exactly what ExportConsolidated
  /// produces. Storage is aliased, not copied: concurrent dataflows seeded
  /// from the same snapshot share one vector. A seeded trace must receive
  /// no further Inserts (import-mode operators guarantee this); the
  /// copy-on-write in the merge paths keeps even a misuse memory-safe.
  void SeedShared(std::shared_ptr<const std::vector<Entry>> rows) {
    if (!rows || rows->empty()) return;
    SpineBatch batch;
    batch.min_version = UINT32_MAX;
    batch.max_version = 0;
    for (const Entry& e : *rows) {
      batch.min_version = std::min(batch.min_version, e.time.version);
      batch.max_version = std::max(batch.max_version, e.time.version);
    }
    total_entries_ += rows->size();
    peak_entries_ = std::max(peak_entries_, total_entries_);
    batch.shared = std::move(rows);
    spine_.push_back(std::move(batch));
    CheckSpineInvariants();
  }

  /// A consolidated snapshot of the full history: every entry (spine +
  /// tail), sorted by EntryLess, equal (key, value, time) triples merged,
  /// zero diffs dropped. Pure — the trace and its accounting are untouched.
  std::shared_ptr<const std::vector<Entry>> ExportConsolidated() const {
    auto out = std::make_shared<std::vector<Entry>>();
    out->reserve(total_entries_);
    for (const SpineBatch& batch : spine_) {
      const std::vector<Entry>& rows = batch.rows();
      out->insert(out->end(), rows.begin(), rows.end());
    }
    out->insert(out->end(), tail_.begin(), tail_.end());
    std::sort(out->begin(), out->end(), EntryLess);
    size_t w = 0;
    for (size_t i = 0; i < out->size();) {
      size_t j = i;
      Diff total = 0;
      while (j < out->size() && (*out)[j].key == (*out)[i].key &&
             (*out)[j].value == (*out)[i].value &&
             (*out)[j].time == (*out)[i].time) {
        total += (*out)[j].diff;
        ++j;
      }
      if (total != 0) {
        (*out)[w] = (*out)[i];
        (*out)[w].diff = total;
        ++w;
      }
      i = j;
    }
    out->resize(w);
    return out;
  }

 private:
  // Tail seal threshold: bounds the linear tail scan every probe pays and
  // the batch size below which sorting is pointless.
  static constexpr size_t kTailSealThreshold = 64;

  struct SpineBatch {
    std::vector<Entry> entries;  // sorted by (key, value, lex time)
    // Alternative shared storage: a batch seeded from the process-level
    // arrangement cache (SeedShared) aliases the immutable cached snapshot
    // instead of owning a copy. At most one of shared/entries is populated.
    std::shared_ptr<const std::vector<Entry>> shared;
    uint32_t min_version = 0;    // minimum version in `entries`
    uint32_t max_version = 0;    // maximum version in `entries`

    const std::vector<Entry>& rows() const {
      return shared ? *shared : entries;
    }
    // Copy-on-write: mutating paths (rewrites, merges) first take ownership.
    // Seeded traces receive no inserts and stay at the sealed frontier, so
    // in practice this never fires for them — it is the safety net that
    // keeps the cache decoupled from spine maintenance.
    void Materialize() {
      if (shared) {
        entries = *shared;
        shared.reset();
      }
    }
  };

  // Merges the whole spine into one batch rewritten to the sealed frontier.
  void FullMerge() {
    Timer compaction_timer;
    inserts_since_compaction_ = 0;
    while (spine_.size() > 1) {
      SpineBatch b = std::move(spine_.back());
      spine_.pop_back();
      SpineBatch a = std::move(spine_.back());
      spine_.pop_back();
      SpineBatch merged = MergeBatches(std::move(a), std::move(b));
      if (!merged.entries.empty()) spine_.push_back(std::move(merged));
    }
    if (!spine_.empty()) {
      Rewrite(&spine_.front());
      if (spine_.front().rows().empty()) spine_.clear();
    }
    SpineCompactionNanos()->Observe(
        static_cast<uint64_t>(compaction_timer.Nanos()));
    CheckSpineInvariants();
  }

  // The one probe loop behind Accumulate and AccumulateWithFutures: the
  // key's entries at or below `time` become value-sorted runs merged into
  // `out`; every other entry goes to future(time, value, diff).
  template <typename FutureFn>
  void Probe(const K& key, const Time& time, Batch<V>* out,
             FutureFn&& future) const {
    Batch<V>& matches = accumulate_scratch_;
    matches.clear();
    auto& runs = accumulate_runs_;
    runs.clear();
    size_t run_start = 0;
    auto visit = [&](const Entry& e) {
      if (e.time.LessEq(time)) {
        matches.push_back(Update<V>{e.value, e.diff});
      } else {
        future(e.time, e.value, e.diff);
      }
    };
    for (const SpineBatch& batch : spine_) {
      auto [lo, hi] = KeyRange(batch, key);
      for (auto it = lo; it != hi; ++it) visit(*it);
      if (matches.size() > run_start) {
        runs.push_back({run_start, matches.size()});
        run_start = matches.size();
      }
    }
    for (const Entry& e : tail_) {
      if (e.key == key) visit(e);
    }
    if (matches.size() > run_start) {
      std::sort(matches.begin() + run_start, matches.end(),
                [](const Update<V>& a, const Update<V>& b) {
                  return a.data < b.data;
                });
      runs.push_back({run_start, matches.size()});
    }
    MergeRuns(out);
  }

  // Merges accumulate_runs_ (value-sorted runs inside accumulate_scratch_)
  // into net non-zero (value, count) pairs appended to `out`.
  void MergeRuns(Batch<V>* out) const {
    const Batch<V>& matches = accumulate_scratch_;
    auto& runs = accumulate_runs_;
    // k is small: a linear scan over run heads beats a heap.
    for (;;) {
      const V* min_value = nullptr;
      for (const auto& [pos, end] : runs) {
        if (pos < end &&
            (min_value == nullptr || matches[pos].data < *min_value)) {
          min_value = &matches[pos].data;
        }
      }
      if (min_value == nullptr) return;
      Diff total = 0;
      for (auto& [pos, end] : runs) {
        while (pos < end && matches[pos].data == *min_value) {
          total += matches[pos].diff;
          ++pos;
        }
      }
      if (total != 0) out->push_back(Update<V>{*min_value, total});
    }
  }

  static bool EntryLess(const Entry& a, const Entry& b) {
    if (a.key < b.key) return true;
    if (b.key < a.key) return false;
    if (a.value < b.value) return true;
    if (b.value < a.value) return false;
    if (a.time.LexLess(b.time)) return true;
    if (b.time.LexLess(a.time)) return false;
    // Distinct times can be LexLess-equal across scope depths (<1> vs
    // <1,0>, zero-padded). Break the tie on depth so EntryLess is a total
    // order on distinct (key, value, time) triples: a LexLess tie at equal
    // depth implies identical iters, hence equal times. Without this,
    // consolidation in MergeBatches (which treats a two-way LexLess tie as
    // equality) could merge entries the product order still tells apart.
    return a.time.depth < b.time.depth;
  }

  static std::pair<typename std::vector<Entry>::const_iterator,
                   typename std::vector<Entry>::const_iterator>
  KeyRange(const SpineBatch& batch, const K& key) {
    const std::vector<Entry>& rows = batch.rows();
    // Sorted batch: front/back bound the key space, cutting most probes
    // before the binary search.
    if (rows.empty() || key < rows.front().key || rows.back().key < key) {
      return {rows.end(), rows.end()};
    }
    auto lo = std::lower_bound(
        rows.begin(), rows.end(), key,
        [](const Entry& e, const K& k) { return e.key < k; });
    // The caller walks the whole run, so a linear seek of its end costs no
    // more than that walk.
    auto hi = lo;
    while (hi != rows.end() && hi->key == key) ++hi;
    return {lo, hi};
  }

  // Sorts and consolidates a batch's entries: equal (key, value, time)
  // triples merge, zero-diff results drop. Recomputes the version range.
  void SortAndConsolidate(SpineBatch* batch) {
    std::vector<Entry>* entries = &batch->entries;
    std::sort(entries->begin(), entries->end(), EntryLess);
    size_t out = 0;
    uint32_t min_version = UINT32_MAX;
    uint32_t max_version = 0;
    for (size_t i = 0; i < entries->size();) {
      size_t j = i;
      Diff total = 0;
      while (j < entries->size() && (*entries)[j].key == (*entries)[i].key &&
             (*entries)[j].value == (*entries)[i].value &&
             (*entries)[j].time == (*entries)[i].time) {
        total += (*entries)[j].diff;
        ++j;
      }
      if (total != 0) {
        (*entries)[out] = std::move((*entries)[i]);
        (*entries)[out].diff = total;
        min_version = std::min(min_version, (*entries)[out].time.version);
        max_version = std::max(max_version, (*entries)[out].time.version);
        ++out;
      }
      i = j;
    }
    total_entries_ -= entries->size() - out;
    entries_reclaimed_ += entries->size() - out;
    entries->resize(out);
    batch->min_version =
        min_version == UINT32_MAX ? sealed_version_ : min_version;
    batch->max_version = out == 0 ? sealed_version_ : max_version;
  }

  void SealTail() {
    if (tail_.empty()) return;
    Timer seal_timer;
    SpineBatch batch;
    batch.entries = std::move(tail_);
    tail_.clear();
    SortAndConsolidate(&batch);
    if (batch.entries.empty()) return;
    spine_.push_back(std::move(batch));
    // Geometric invariant: each batch at least twice the size of the next
    // younger one, restored by merging from the young end.
    while (spine_.size() >= 2 &&
           spine_[spine_.size() - 2].rows().size() <
               2 * spine_.back().rows().size()) {
      SpineBatch b = std::move(spine_.back());
      spine_.pop_back();
      SpineBatch a = std::move(spine_.back());
      spine_.pop_back();
      SpineBatch merged = MergeBatches(std::move(a), std::move(b));
      if (!merged.entries.empty()) spine_.push_back(std::move(merged));
    }
    SpineMergeNanos()->Observe(static_cast<uint64_t>(seal_timer.Nanos()));
    CheckSpineInvariants();
  }

  // Rewrites versions below the sealed frontier up to it. The rewrite can
  // reorder and equate entries of the same (key, value) — different
  // iteration vectors at different old versions land on the same sealed
  // version — so in general the batch is re-sorted and re-consolidated.
  // A batch whose entries all sit at one version (the usual shape after a
  // previous full compaction brought it to the then-frontier) is exempt:
  // clamping a uniform version preserves the (key, value, lex time) order
  // (ties already broke on iterations) and can equate no two entries, so
  // resealing a quiescent spine is O(n) instead of O(n log n).
  void Rewrite(SpineBatch* batch) {
    if (batch->min_version >= sealed_version_) return;
    batch->Materialize();
    if (batch->min_version == batch->max_version) {
      for (Entry& e : batch->entries) e.time.version = sealed_version_;
      batch->min_version = batch->max_version = sealed_version_;
      return;
    }
    for (Entry& e : batch->entries) {
      if (e.time.version < sealed_version_) e.time.version = sealed_version_;
    }
    SortAndConsolidate(batch);
  }

  // Merge-time compaction: both inputs are brought to the sealed frontier
  // first, then merged with cancellation of equal (key, value, time)
  // entries.
  SpineBatch MergeBatches(SpineBatch&& a, SpineBatch&& b) {
    ++num_merges_;
    a.Materialize();
    b.Materialize();
    Rewrite(&a);
    Rewrite(&b);
    SpineBatch merged;
    merged.entries.reserve(a.entries.size() + b.entries.size());
    size_t i = 0, j = 0, dropped = 0;
    while (i < a.entries.size() && j < b.entries.size()) {
      if (EntryLess(a.entries[i], b.entries[j])) {
        merged.entries.push_back(std::move(a.entries[i++]));
      } else if (EntryLess(b.entries[j], a.entries[i])) {
        merged.entries.push_back(std::move(b.entries[j++]));
      } else {
        // Equal (key, value, time): consolidate across the batch boundary.
        Entry e = std::move(a.entries[i++]);
        e.diff += b.entries[j++].diff;
        dropped += 1 + (e.diff == 0);
        if (e.diff != 0) merged.entries.push_back(std::move(e));
      }
    }
    merged.entries.insert(merged.entries.end(),
                          std::make_move_iterator(a.entries.begin() + i),
                          std::make_move_iterator(a.entries.end()));
    merged.entries.insert(merged.entries.end(),
                          std::make_move_iterator(b.entries.begin() + j),
                          std::make_move_iterator(b.entries.end()));
    // min(a.min, b.min) is only a lower bound — cancellation may have
    // removed the very entries that carried it; recompute exactly so the
    // metadata stays tight (and the paranoid invariant can be strict).
    merged.min_version = UINT32_MAX;
    merged.max_version = 0;
    for (const Entry& e : merged.entries) {
      merged.min_version = std::min(merged.min_version, e.time.version);
      merged.max_version = std::max(merged.max_version, e.time.version);
    }
    if (merged.entries.empty()) {
      merged.min_version = merged.max_version = sealed_version_;
    }
    total_entries_ -= dropped;
    entries_reclaimed_ += dropped;
    return merged;
  }

  std::vector<SpineBatch> spine_;
  std::vector<Entry> tail_;
  mutable Batch<V> accumulate_scratch_;
  // (pos, end) cursors of the value-sorted runs Accumulate merges.
  mutable std::vector<std::pair<size_t, size_t>> accumulate_runs_;
  size_t total_entries_ = 0;
  size_t peak_entries_ = 0;
  uint64_t entries_reclaimed_ = 0;
  size_t inserts_since_compaction_ = 0;
  uint64_t insert_seq_ = 0;  // cumulative inserts; drives the fuzz hooks
  uint64_t num_merges_ = 0;
  uint32_t sealed_version_ = 0;
};

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_TRACE_H_
