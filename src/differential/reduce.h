// Differential group-by-key reduction.
//
// For each key, the operator keeps the key's input history and the output
// history it has emitted. When diffs for a key arrive at time t it
// re-evaluates the user function at every "interesting" time — the
// lub-closure of {t} over the key's input history — and emits output
// corrections `f(input@u) - output@u`. This is DD's reduce restricted to
// totally ordered versions; the closure argument for correctness under
// arbitrary processing order is spelled out in DESIGN.md §3.1.
//
// At scope depth ≤ 1 the history is a persistent per-key *iteration-major*
// index (KeyState), not a trace: at any evaluation time every history
// entry's version is ≤ the current version (entries are only inserted at
// already-processed times), so membership of an entry in the accumulation
// depends on its innermost iteration coordinate alone. Keeping the history
// sorted by iteration with a cursor makes each evaluation O(entries between
// the previous and current iteration) — independent of how many versions or
// epochs it spans — and lets retract/insert pairs landing at the same
// iteration in different epochs cancel, which a trace can never do (it must
// keep version distinctions until they seal). Traces are kept only where
// something reads them: the input trace at depth ≥ 2 (nested Iterate, where
// the iteration-scalar argument fails), the output trace at depth ≥ 2 or
// when arranged() shares it downstream, and both as a shadow in
// GRAPHSURGE_PARANOID builds, which cross-check every evaluation against
// them.
//
// The user function's signature picks the input side. A multiset reduce's
// function reads the key's consolidated values, so its history keeps every
// (iteration, value) entry. An additive reduce's function reads only the
// key's weighted count — DD's count / reduce_abelian — so its history is
// one (iteration, total) entry per iteration and its accumulation a single
// running total: an update costs O(1) instead of a walk over the key's
// values. Weights travel in the diff (Weigh, operators.h), and a total of 0
// emits nothing. Scheduling, the output side and the depth ≥ 2 trace path
// are shared by both.
#ifndef GRAPHSURGE_DIFFERENTIAL_REDUCE_H_
#define GRAPHSURGE_DIFFERENTIAL_REDUCE_H_

#include <algorithm>
#include <map>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "differential/arrange.h"
#include "differential/dataflow.h"
#include "differential/exchange.h"
#include "differential/operators.h"
#include "differential/trace.h"

namespace gs::differential {

/// Reduce with user function
///   void fn(const K& key, const Batch<V>& input, Batch<Out>* output)
/// where `input` is the key's consolidated value multiset (counts normally
/// positive; transiently negative counts are possible mid-fixpoint and must
/// be tolerated) and `output` receives the desired output multiset.
/// Keys whose input multiset is empty produce no output (DD convention).
///
/// An additive reduce instead takes
///   void fn(const K& key, Diff total, Batch<Out>* output)
/// where `total` is the sum of the key's input diffs (values are ignored;
/// put weights into the diffs with Weigh). fn is called only for a non-zero
/// total: a key whose total is 0 produces no output.
///
/// The input is either owned (stream constructor: the per-key histories are
/// built from the exchanged batches themselves) or shared (Arranged
/// constructor: a key's first evaluation reads its history from the
/// arrangement's trace). arranged() exposes the output as an arrangement
/// for downstream sharing; only such a reduce keeps an output trace at
/// depth ≤ 1, and sharing it is sound because the deltas are inserted into
/// the output trace before they are published.
template <typename K, typename V, typename Out, typename Fn>
class ReduceOp : public OperatorBase {
  static constexpr bool kAdditive =
      std::is_invocable_v<Fn&, const K&, Diff, Batch<Out>*>;

 public:
  ReduceOp(Dataflow* dataflow, Stream<std::pair<K, V>> in, Fn fn)
      : OperatorBase(dataflow, "reduce"),
        fn_(std::move(fn)),
        input_(&owned_input_) {
    in.publisher()->Subscribe(
        [this](const Time& t, const Batch<std::pair<K, V>>& b) {
          port_.Append(t, b);
          RequestRun(t);
        });
  }

  ReduceOp(Dataflow* dataflow, const Arranged<K, V>& in, Fn fn)
      : OperatorBase(dataflow, "reduce"),
        fn_(std::move(fn)),
        input_(in.trace()) {
    dataflow->stats().arrangement_shares++;
    in.deltas().publisher()->Subscribe(
        [this](const Time& t, const Batch<std::pair<K, V>>& b) {
          port_.Append(t, b);
          RequestRun(t);
        });
  }

  Stream<std::pair<K, Out>> stream() {
    return Stream<std::pair<K, Out>>(dataflow_, &output_);
  }

  /// The output history as a shared arrangement (already key-partitioned:
  /// the input was exchanged by key and the output is keyed the same way).
  /// Exposing the output as an arrangement also arms the process-level
  /// arrangement cache for it: a reduce whose output other dataflows could
  /// rebuild identically (e.g. the DistinctArranged adjacency) is exactly
  /// one whose output is shared downstream. Must be called before the
  /// dataflow runs: the output trace is written only from then on.
  Arranged<K, Out> arranged() {
    GS_CHECK(states_.empty()) << "arranged() after the reduce has run";
    output_traced_ = true;
    ArmCache();
    return Arranged<K, Out>(&output_trace_, stream());
  }

  void OnStepBegin(uint32_t version) override {
    if (!import_ || version != 0) return;
    // Import mode: replay the cached output deltas downstream instead of
    // evaluating. All snapshot entries sit at Time(0) — the builder only
    // qualified because every evaluation landed there.
    Batch<std::pair<K, Out>> replay;
    replay.reserve(seeded_rows_->size());
    for (const auto& e : *seeded_rows_) {
      replay.push_back(Update<std::pair<K, Out>>{{e.key, e.value}, e.diff});
    }
    seeded_rows_.reset();
    if (!replay.empty()) output_.Publish(dataflow_, Time(0), std::move(replay));
  }

  void OnVersionSealed(uint32_t version) override {
    if (input_ == &owned_input_) owned_input_.CompactTo(version);
    output_trace_.CompactTo(version);
    if (export_) {
      if (version == 0) {
        dataflow_->options().arrcache->PutRows(
            static_cast<int>(order()),
            static_cast<int>(dataflow_->worker_index()),
            output_trace_.ExportConsolidated());
      }
      export_ = false;
    }
  }

  void OnEpochSealed(uint32_t last_version) override {
    if (input_ == &owned_input_) owned_input_.CompactEpoch(last_version);
    output_trace_.CompactEpoch(last_version);
  }

  void CollectMemory(OperatorMemory* out) const override {
    // The shared-arrangement input trace is accounted by its owning
    // ArrangeOp/ReduceOp, never double-counted here.
    if (input_ == &owned_input_) out->AddTrace(owned_input_);
    out->AddTrace(output_trace_);
    // The KeyState histories are the reduce's history at depth ≤ 1, so they
    // count as trace bytes (not as trace entries or batches, which are
    // Trace rows). Their size is maintained incrementally — every seal
    // calls this, so walking the whole key map here would dwarf the work
    // being measured. The small per-key accumulations are not counted.
    out->trace_bytes += states_bytes_;
    out->trace_high_water_bytes += states_high_water_bytes_;
    out->queued_bytes += port_.buffered_bytes();
  }

 private:
#if GRAPHSURGE_PARANOID
  // Paranoid builds write both traces as a shadow of the KeyState
  // histories, so EvaluateKeyAt can cross-check every evaluation.
  static constexpr bool kShadowTraces = true;
#else
  static constexpr bool kShadowTraces = false;
#endif

  /// One entry of the iteration-major history: an update with its version
  /// coordinate dropped. Sound as an evaluation index because probes only
  /// ever look backward along the version axis (see the file header): at
  /// probe time (v, i), entry ≤ probe ⇔ entry.iter ≤ i.
  template <typename U>
  struct IterEntry {
    uint32_t iter;
    U value;
    Diff diff;
  };

  // The input side's history entry and accumulation. An additive reduce
  // drops the values (their weights already sit in the diffs), keeping one
  // entry per iteration and a running total.
  using InEntry = IterEntry<std::conditional_t<kAdditive, Unit, V>>;
  using InAcc = std::conditional_t<kAdditive, Diff, Batch<V>>;

  /// Persistent per-key evaluation state at depth ≤ 1 — the key's input and
  /// output histories in iteration-major form, plus running accumulations.
  ///
  /// Invariants (built == true):
  ///   - `hist` holds exactly the key's input history (the per-(value,
  ///     iteration) diff sums of every update delivered for the key),
  ///     sorted by iteration; `out_hist` likewise for the emitted output.
  ///     An additive `hist` holds the per-iteration totals instead, at most
  ///     one non-zero entry per iteration.
  ///   - `acc` is the consolidated sum of hist[0, pos), where [0, pos) is
  ///     exactly the entries with iter ≤ cur_iter (additive: their total);
  ///     `out_acc`/`out_pos` do the same for the output.
  /// Maintained incrementally from the key's slice of each arriving batch
  /// (batch keys are always evaluated at the batch's time; a shared
  /// arrangement inserts exactly the batches it delivers) and from each
  /// emitted delta. Depth ≥ 2 times (nested Iterate) leave the
  /// iteration-scalar regime and walk the traces per evaluation instead.
  struct KeyState {
    std::vector<InEntry> hist;             // sorted by iter
    std::vector<IterEntry<Out>> out_hist;  // sorted by iter
    InAcc acc{};
    Batch<Out> out_acc;
    /// Snapshots of (acc, pos) / (out_acc, out_pos) at iteration 0. Every
    /// version's first evaluation of a key lands at iteration 0, so the
    /// cursor's once-per-version backward sweep (from wherever the previous
    /// version converged) is replaced by restoring these — O(accumulation)
    /// instead of O(entries between the iterations).
    InAcc base_acc{};
    Batch<Out> base_out_acc;
    size_t base_pos = 0;
    size_t base_out_pos = 0;
    size_t pos = 0;      // hist[0, pos) ⇔ iter ≤ cur_iter
    size_t out_pos = 0;  // out_hist[0, out_pos) ⇔ iter ≤ cur_iter
    uint32_t cur_iter = 0;
    size_t hist_lwm = 0;  // size after the last consolidation
    size_t out_lwm = 0;
    bool built = false;
  };
  struct KeyHash {
    size_t operator()(const K& k) const {
      return static_cast<size_t>(HashValue(k));
    }
  };

  // Processing model: a key touched at time t is (re-)evaluated at t only.
  // "Interesting" future times — lubs of t with the key's history — are
  // *scheduled* as pending visits rather than evaluated eagerly; when that
  // time is reached the visit coalesces with any diffs that arrive there
  // anyway. This deferral is what keeps differential re-execution
  // proportional to the change volume (the eager alternative evaluates
  // O(#iterations²) times per key per version).
  // Checks the run's arrangement-cache transaction once, when the output
  // is first exposed as a shared arrangement (arranged()).
  void ArmCache() {
    if (cache_checked_) return;
    cache_checked_ = true;
    ArrCacheTxn* txn = dataflow_->options().arrcache.get();
    if (txn == nullptr) return;
    if (txn->importing()) {
      seeded_rows_ = txn->GetRows<typename Trace<K, Out>::Entry>(
          static_cast<int>(order()),
          static_cast<int>(dataflow_->worker_index()));
      if (seeded_rows_ != nullptr) {
        output_trace_.SeedShared(seeded_rows_);
        import_ = true;
      }
    } else if (txn->building()) {
      export_ = true;
    }
  }

  void RunAt(const Time& time) override {
    if (import_) {
      // Cached slots exist only for reduces whose every evaluation landed
      // at Time(0) during the build; op orders are deterministic per
      // (computation, workers), so this operator's input can only arrive
      // there too. The input deltas are already reflected in the seeded
      // output snapshot — discard them.
      GS_CHECK(time == Time(0))
          << "imported reduce received activity at " << time.ToString();
      port_.Take(time);
      return;
    }
    if (!(time == Time(0))) export_ = false;  // multi-time: not cacheable
    Batch<std::pair<K, V>> batch = port_.Take(time);
    // Sort the batch by key: each key's new updates form one contiguous
    // range handed to EvaluateKeyAt, which folds them into the key's
    // iteration-major history.
    std::sort(batch.begin(), batch.end(),
              [](const Update<std::pair<K, V>>& a,
                 const Update<std::pair<K, V>>& b) {
                return a.data.first < b.data.first;
              });
    if (input_ == &owned_input_ && (time.depth > 1 || kShadowTraces)) {
      for (const auto& u : batch) {
        owned_input_.Insert(u.data.first, u.data.second, time, u.diff);
      }
    }
    std::vector<K> keys;
    auto pending = pending_keys_.find(time);
    if (pending != pending_keys_.end()) {
      keys = std::move(pending->second);
      pending_keys_.erase(pending);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    if (keys.empty() && batch.empty()) return;

    Batch<std::pair<K, Out>> out;
    // Walk the sorted batch and the sorted pending-visit keys in tandem so
    // each key is evaluated once, with its batch range (possibly empty).
    size_t b = 0, p = 0;
    while (b < batch.size() || p < keys.size()) {
      const K* key;
      size_t b_end = b;
      if (b < batch.size() &&
          (p >= keys.size() || !(keys[p] < batch[b].data.first))) {
        key = &batch[b].data.first;
        while (b_end < batch.size() && batch[b_end].data.first == *key) {
          ++b_end;
        }
        if (p < keys.size() && *key == keys[p]) ++p;  // coalesce the visit
      } else {
        key = &keys[p++];
      }
      EvaluateKeyAt(*key, time, batch.data() + b, batch.data() + b_end, &out);
      b = b_end;
    }
    // All per-key deltas may cancel (e.g. a retraction and re-assertion of
    // the same minimum); publishing the empty batch would still bump stats
    // and wake subscribers for nothing.
    if (!out.empty()) output_.Publish(dataflow_, time, std::move(out));
  }

  // Registers a future re-evaluation of `key` at `u`. Duplicates are fine:
  // RunAt sorts and uniques the visit list, so the pending containers can
  // be plain append-only vectors (no per-visit node allocation).
  void ScheduleKeyVisit(const Time& u, const K& key) {
    pending_keys_[u].push_back(key);
    RequestRun(u);  // deduplicated by OperatorBase
  }

  // Schedules a visit of `key` at (time.version, iter) for every distinct
  // iteration in hist[pos, end) — the lubs of `time` with the entries still
  // ahead of the cursor. Called when the key's input changes (new batch
  // deltas or first build): the lub-closure at depth ≤ 1 is exactly "every
  // future iteration present in the history at the current version", and
  // within one version those lubs are the same at every later evaluation,
  // so pure scheduled visits never need to re-schedule.
  template <typename U>
  void ScheduleTailVisits(const Time& time,
                          const std::vector<IterEntry<U>>& hist, size_t pos,
                          const K& key) {
    if (pos >= hist.size()) return;
    // A depth-0 probe's lub with any entry collapses to the probe time
    // itself (no iteration coordinate to raise) — nothing to schedule.
    if (time.depth == 0) return;
    Time u = time;
    uint32_t last = 0;
    bool first = true;
    for (size_t i = pos; i < hist.size(); ++i) {
      if (first || hist[i].iter != last) {
        first = false;
        last = hist[i].iter;
        u.iters[time.depth - 1] = last;
        ScheduleKeyVisit(u, key);
      }
    }
  }

  // Adds `diff` to `value`'s count in the sorted accumulation, keeping it
  // sorted by value. Counts may reach zero; the zombie entry is left in
  // place (user functions tolerate zero counts mid-fixpoint) and purged
  // lazily once the accumulation grows past PurgeZeros' threshold — far
  // cheaper than re-consolidating the whole batch on every cursor move.
  template <typename U>
  static void AccAdd(Batch<U>* acc, const U& value, Diff diff) {
    auto it = std::lower_bound(
        acc->begin(), acc->end(), value,
        [](const Update<U>& u, const U& v) { return u.data < v; });
    if (it != acc->end() && it->data == value) {
      it->diff += diff;
      return;
    }
    acc->insert(it, Update<U>{value, diff});
  }
  // An additive accumulation is the running total itself.
  static void AccAdd(Diff* acc, const Unit&, Diff diff) { *acc += diff; }

  template <typename U>
  static void PurgeZeros(Batch<U>* acc) {
    if (acc->size() < 64) return;
    acc->erase(std::remove_if(acc->begin(), acc->end(),
                              [](const Update<U>& u) { return u.diff == 0; }),
               acc->end());
  }
  static void PurgeZeros(Diff*) {}

  // Moves the cursor of (hist, pos, acc) to iteration `iter`, folding
  // crossed entries into `acc` (negated when moving backward — a new
  // version can re-enter the loop at a lower iteration than the previous
  // version converged at).
  template <typename U, typename Acc>
  static void SeekCursor(std::vector<IterEntry<U>>* hist, size_t* pos,
                         uint32_t iter, Acc* acc) {
    while (*pos < hist->size() && (*hist)[*pos].iter <= iter) {
      const IterEntry<U>& e = (*hist)[(*pos)++];
      AccAdd(acc, e.value, e.diff);
    }
    while (*pos > 0 && (*hist)[*pos - 1].iter > iter) {
      const IterEntry<U>& e = (*hist)[--(*pos)];
      AccAdd(acc, e.value, -e.diff);
    }
  }

  /// Index of the first entry with iter > `iter` in a sorted history.
  template <typename U>
  static size_t PrefixEnd(const std::vector<IterEntry<U>>& hist,
                          uint32_t iter) {
    return static_cast<size_t>(
        std::partition_point(hist.begin(), hist.end(),
                             [iter](const IterEntry<U>& e) {
                               return e.iter <= iter;
                             }) -
        hist.begin());
  }

  // Consolidates `hist` by (iteration, value), dropping entries that sum to
  // zero. Iterations are never merged with each other — probes at
  // intermediate iterations still tell them apart — so the prefix sums by
  // iteration are preserved and only a cursor index needs recomputing.
  template <typename U>
  static void ConsolidateHist(std::vector<IterEntry<U>>* hist) {
    std::sort(hist->begin(), hist->end(),
              [](const IterEntry<U>& a, const IterEntry<U>& b) {
                if (a.iter != b.iter) return a.iter < b.iter;
                return a.value < b.value;
              });
    size_t out = 0;
    for (size_t i = 0; i < hist->size();) {
      size_t j = i;
      Diff total = 0;
      while (j < hist->size() && (*hist)[j].iter == (*hist)[i].iter &&
             (*hist)[j].value == (*hist)[i].value) {
        total += (*hist)[j].diff;
        ++j;
      }
      if (total != 0) {
        (*hist)[out] = (*hist)[i];
        (*hist)[out].diff = total;
        ++out;
      }
      i = j;
    }
    hist->resize(out);
  }

  // Consolidates `hist` once it has grown 2× past the last consolidated
  // size: cross-epoch retract/insert pairs landing at the same iteration
  // cancel, keeping the evaluation index near the converged-history size.
  // `acc` stays valid; the cursor index is recomputed.
  template <typename U>
  static bool MaybeConsolidateHist(std::vector<IterEntry<U>>* hist,
                                   size_t* pos, size_t* lwm,
                                   uint32_t cur_iter) {
    if (hist->size() < 32 || hist->size() < 2 * *lwm) return false;
    ConsolidateHist(hist);
    *lwm = hist->size();
    *pos = PrefixEnd(*hist, cur_iter);
    return true;
  }

  static InEntry MakeInEntry(uint32_t iter, const V& value, Diff diff) {
    if constexpr (kAdditive) {
      return InEntry{iter, Unit{}, diff};
    } else {
      return InEntry{iter, value, diff};
    }
  }

  // Adds `bytes` to the KeyState history size, tracking its high-water mark.
  void GrowStatesBytes(size_t bytes) {
    states_bytes_ += bytes;
    states_high_water_bytes_ =
        std::max(states_high_water_bytes_, states_bytes_);
  }

  // First touch of a key: builds its iteration-major history and parks the
  // cursor at `time`. The key has never been evaluated, so it has emitted
  // no output. An owned-input reduce evaluates every key at every time it
  // receives input, so the key's input history is exactly [nb, ne), its
  // slice of the batch arriving now; a shared arrangement's trace is
  // walked instead.
  void BuildKeyState(const K& key, const Time& time,
                     const Update<std::pair<K, V>>* nb,
                     const Update<std::pair<K, V>>* ne, KeyState* state) {
    const uint32_t iter0 = time.iters[0];
    if (input_ == &owned_input_) {
      for (const auto* u = nb; u != ne; ++u) {
        state->hist.push_back(MakeInEntry(iter0, u->data.second, u->diff));
      }
    } else {
      input_->ForEach(key, [&](const V& value, const Time& t, Diff diff) {
        state->hist.push_back(MakeInEntry(t.iters[0], value, diff));
      });
      std::sort(state->hist.begin(), state->hist.end(),
                [](const InEntry& a, const InEntry& b) {
                  return a.iter < b.iter;
                });
    }
    if constexpr (kAdditive) ConsolidateHist(&state->hist);
    state->hist_lwm = state->hist.size();
    SeekCursor(&state->hist, &state->pos, 0, &state->acc);
    state->base_acc = state->acc;
    state->base_pos = state->pos;
    SeekCursor(&state->hist, &state->pos, iter0, &state->acc);
    state->cur_iter = iter0;
    state->built = true;
    GrowStatesBytes(state->hist.size() * sizeof(InEntry));
    ScheduleTailVisits(time, state->hist, state->pos, key);
  }

  // Folds the key's new deltas [nb, ne), which arrived at the cursor's
  // iteration, into its input history and accumulations.
  void FoldInput(KeyState* state, const Update<std::pair<K, V>>* nb,
                 const Update<std::pair<K, V>>* ne) {
    const uint32_t iter0 = state->cur_iter;
    if constexpr (kAdditive) {
      Diff delta = 0;
      for (const auto* u = nb; u != ne; ++u) delta += u->diff;
      state->acc += delta;
      if (iter0 == 0) state->base_acc += delta;
      // hist[0, pos) ends with this iteration's entry, if it has one; an
      // entry whose total cancels to 0 is dropped.
      if (state->pos > 0 && state->hist[state->pos - 1].iter == iter0) {
        Diff& total = state->hist[state->pos - 1].diff;
        total += delta;
        if (total == 0) {
          state->hist.erase(state->hist.begin() + --state->pos);
          if (iter0 == 0) --state->base_pos;
          states_bytes_ -= sizeof(InEntry);
        }
      } else if (delta != 0) {
        state->hist.insert(state->hist.begin() + state->pos++,
                           InEntry{iter0, Unit{}, delta});
        if (iter0 == 0) ++state->base_pos;
        GrowStatesBytes(sizeof(InEntry));
      }
    } else {
      for (const auto* u = nb; u != ne; ++u) {
        state->hist.insert(state->hist.begin() + state->pos,
                           InEntry{iter0, u->data.second, u->diff});
        ++state->pos;
        AccAdd(&state->acc, u->data.second, u->diff);
        if (iter0 == 0) {
          AccAdd(&state->base_acc, u->data.second, u->diff);
          ++state->base_pos;
        }
      }
      if (iter0 == 0) PurgeZeros(&state->base_acc);
      GrowStatesBytes(static_cast<size_t>(ne - nb) * sizeof(InEntry));
      size_t before = state->hist.size();
      if (MaybeConsolidateHist(&state->hist, &state->pos, &state->hist_lwm,
                               iter0)) {
        state->base_pos = PrefixEnd(state->hist, 0u);
      }
      states_bytes_ -= (before - state->hist.size()) * sizeof(InEntry);
    }
  }

  // Fills `desired` with fn's output for an accumulated input. An empty
  // input — for an additive reduce, a zero total — desires nothing.
  void Desire(const K& key, const Batch<V>& input, Batch<Out>* desired) {
    if constexpr (kAdditive) {
      Diff total = 0;
      for (const Update<V>& u : input) total += u.diff;
      Desire(key, total, desired);
    } else if (!input.empty()) {
      fn_(key, input, desired);
      Consolidate(desired);
    }
  }
  void Desire(const K& key, Diff total, Batch<Out>* desired) {
    if (total == 0) return;
    fn_(key, total, desired);
    Consolidate(desired);
  }

  static size_t AccSize(const Batch<V>& acc) { return acc.size(); }
  static size_t AccSize(Diff) { return 1; }

  // Evaluates `key` at exactly `time`; [nb, ne) is the key's slice of the
  // batch that arrived there, folded into the key's history here.
  void EvaluateKeyAt(const K& key, const Time& time,
                     const Update<std::pair<K, V>>* nb,
                     const Update<std::pair<K, V>>* ne,
                     Batch<std::pair<K, Out>>* out) {
    // No early-out on an empty input history: eager spine consolidation can
    // cancel a key's input to nothing while an output retraction is still
    // owed, so the (empty input → empty desired → negative delta) path must
    // always run.
    if (input_ != &owned_input_) dataflow_->stats().arrangement_probes += 1;
    dataflow_->stats().reduce_evaluations++;

    if (time.depth > 1) {
      EvaluateDeepKeyAt(key, time, out);
      return;
    }
    const uint32_t iter0 = time.iters[0];  // zero-padded → 0 at depth 0

    KeyState& state = states_[key];
    bool was_built = state.built;
    if (!state.built) {
      BuildKeyState(key, time, nb, ne, &state);
    } else {
      if (iter0 == 0 && state.cur_iter > 0) {
        state.acc = state.base_acc;
        state.out_acc = state.base_out_acc;
        state.pos = state.base_pos;
        state.out_pos = state.base_out_pos;
      } else {
        SeekCursor(&state.hist, &state.pos, iter0, &state.acc);
        SeekCursor(&state.out_hist, &state.out_pos, iter0, &state.out_acc);
        PurgeZeros(&state.acc);
        PurgeZeros(&state.out_acc);
      }
      state.cur_iter = iter0;
    }
    if (was_built && nb != ne) {
      // Input changed at `time`: schedule the lub-closure over the entries
      // ahead of the cursor, then fold the new deltas into the prefix.
      ScheduleTailVisits(time, state.hist, state.pos, key);
      FoldInput(&state, nb, ne);
    }
#if GRAPHSURGE_PARANOID
    // Cross-check the history against a walk of the shadow traces (skipped
    // when the fuzzer plants a lost-insert bug in a trace on purpose).
    if (fuzz::GlobalHooks().drop_insert_at == 0) {
      Batch<V> check;
      input_->Accumulate(key, time, &check);
      if constexpr (kAdditive) {
        Diff check_total = 0;
        for (const Update<V>& u : check) check_total += u.diff;
        GS_CHECK(check_total == state.acc)
            << "additive input total " << state.acc
            << " diverged from trace total " << check_total << " at "
            << time.ToString();
      } else {
        Batch<V> mirror = state.acc;
        Consolidate(&mirror);
        GS_CHECK(SameBatch(check, mirror))
            << "iteration-major input history diverged from trace at "
            << time.ToString();
      }
      Batch<Out> out_check;
      output_trace_.Accumulate(key, time, &out_check);
      Batch<Out> out_mirror = state.out_acc;
      Consolidate(&out_mirror);
      GS_CHECK(SameBatch(out_check, out_mirror))
          << "iteration-major output history diverged from trace at "
          << time.ToString();
    }
#endif
    Batch<Out>& desired = scratch_desired_;
    desired.clear();
    if constexpr (!kAdditive) {
      // The user function must see a genuinely empty batch when every count
      // has cancelled — zombie zero-count entries would make sum-style
      // aggregates emit a spurious zero record — so drop them eagerly here
      // (PurgeZeros elsewhere is threshold-gated for cursor-move cost only).
      state.acc.erase(
          std::remove_if(state.acc.begin(), state.acc.end(),
                         [](const Update<V>& u) { return u.diff == 0; }),
          state.acc.end());
    }
    Desire(key, state.acc, &desired);

    // delta = desired - current (both consolidated & sorted).
    const Batch<Out>& current = state.out_acc;
    Batch<Out>& delta = scratch_delta_;
    delta.clear();
    size_t i = 0, j = 0;
    while (i < desired.size() || j < current.size()) {
      if (j >= current.size() ||
          (i < desired.size() && desired[i].data < current[j].data)) {
        delta.push_back(desired[i++]);
      } else if (i >= desired.size() || current[j].data < desired[i].data) {
        if (current[j].diff != 0) {
          delta.push_back(Update<Out>{current[j].data, -current[j].diff});
        }
        ++j;
      } else {
        Diff d = desired[i].diff - current[j].diff;
        if (d != 0) delta.push_back(Update<Out>{desired[i].data, d});
        ++i;
        ++j;
      }
    }
    if (delta.empty()) return;
    dataflow_->stats().shard_records += AccSize(state.acc) + delta.size();
    for (const Update<Out>& d : delta) {
      if (output_traced_ || kShadowTraces) {
        output_trace_.Insert(key, d.data, time, d.diff);
      }
      state.out_hist.insert(state.out_hist.begin() + state.out_pos,
                            IterEntry<Out>{iter0, d.data, d.diff});
      ++state.out_pos;
      out->push_back(Update<std::pair<K, Out>>{{key, d.data}, d.diff});
    }
    GrowStatesBytes(delta.size() * sizeof(IterEntry<Out>));
    // The output at `time` now equals `desired` by construction.
    state.out_acc = desired;
    if (iter0 == 0) {
      state.base_out_acc = desired;
      state.base_out_pos = state.out_pos;
    }
    size_t out_before = state.out_hist.size();
    if (MaybeConsolidateHist(&state.out_hist, &state.out_pos, &state.out_lwm,
                             state.cur_iter)) {
      state.base_out_pos = PrefixEnd(state.out_hist, 0u);
    }
    states_bytes_ -=
        (out_before - state.out_hist.size()) * sizeof(IterEntry<Out>);
  }

#if GRAPHSURGE_PARANOID
  template <typename U>
  static bool SameBatch(const Batch<U>& a, const Batch<U>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i].data == b[i].data) || a[i].diff != b[i].diff) return false;
    }
    return true;
  }
#endif

  // Depth ≥ 2 evaluation (nested Iterate): outside the iteration-scalar
  // regime KeyState's membership rule breaks, so both traces are written
  // and every evaluation accumulates straight from them and re-derives the
  // interesting times.
  void EvaluateDeepKeyAt(const K& key, const Time& time,
                         Batch<std::pair<K, Out>>* out) {
    Batch<V>& in_u = scratch_in_;
    in_u.clear();
    scratch_future_.clear();
    input_->AccumulateWithFutures(key, time, &in_u, &scratch_future_);
    if (!scratch_future_.empty()) {
      scratch_lubs_.clear();
      for (const auto& fe : scratch_future_) {
        scratch_lubs_.push_back(time.Lub(fe.first));
      }
      std::sort(scratch_lubs_.begin(), scratch_lubs_.end(), TimeLexLess{});
      scratch_lubs_.erase(
          std::unique(scratch_lubs_.begin(), scratch_lubs_.end()),
          scratch_lubs_.end());
      for (const Time& u : scratch_lubs_) ScheduleKeyVisit(u, key);
    }

    Batch<Out>& desired = scratch_desired_;
    desired.clear();
    Desire(key, in_u, &desired);

    Batch<Out>& current = scratch_current_;
    current.clear();
    output_trace_.Accumulate(key, time, &current);

    Batch<Out>& delta = scratch_delta_;
    delta.clear();
    size_t i = 0, j = 0;
    while (i < desired.size() || j < current.size()) {
      if (j >= current.size() ||
          (i < desired.size() && desired[i].data < current[j].data)) {
        delta.push_back(desired[i++]);
      } else if (i >= desired.size() || current[j].data < desired[i].data) {
        delta.push_back(Update<Out>{current[j].data, -current[j].diff});
        ++j;
      } else {
        Diff d = desired[i].diff - current[j].diff;
        if (d != 0) delta.push_back(Update<Out>{desired[i].data, d});
        ++i;
        ++j;
      }
    }
    if (delta.empty()) return;
    dataflow_->stats().shard_records += in_u.size() + delta.size();
    for (const Update<Out>& d : delta) {
      output_trace_.Insert(key, d.data, time, d.diff);
      out->push_back(Update<std::pair<K, Out>>{{key, d.data}, d.diff});
    }
  }

  Fn fn_;
  InputPort<std::pair<K, V>> port_;
  std::map<Time, std::vector<K>, TimeLexLess> pending_keys_;
  // Written only at depth ≥ 2 or as the paranoid shadow.
  Trace<K, V> owned_input_;
  const Trace<K, V>* input_;  // &owned_input_ or a shared arrangement
  // Written at depth ≥ 2, once arranged() shares it, or as the shadow.
  Trace<K, Out> output_trace_;
  bool output_traced_ = false;  // arranged() was called
  Publisher<std::pair<K, Out>> output_;
  std::unordered_map<K, KeyState, KeyHash> states_;
  size_t states_bytes_ = 0;  // history bytes across states_, kept in sync
  size_t states_high_water_bytes_ = 0;
  Batch<V> scratch_in_;
  Batch<Out> scratch_desired_;
  Batch<Out> scratch_current_;
  Batch<Out> scratch_delta_;
  std::vector<Time> scratch_lubs_;
  std::vector<std::pair<Time, Update<V>>> scratch_future_;
  // Process-level arrangement cache participation (see ArmCache).
  bool cache_checked_ = false;
  bool import_ = false;  // output seeded from the cache; skip evaluation
  bool export_ = false;  // builder run; snapshot the output at version 0 seal
  std::shared_ptr<const std::vector<typename Trace<K, Out>::Entry>>
      seeded_rows_;
};

/// Groups a keyed stream and applies `fn` per key (see ReduceOp). Reduce is
/// a key-repartitioning boundary: in sharded execution the input is
/// exchanged by key hash first, so each shard evaluates only the keys it
/// owns.
template <typename Out, typename K, typename V, typename Fn>
Stream<std::pair<K, Out>> Reduce(Stream<std::pair<K, V>> in, Fn fn) {
  in = ExchangeByKey(in);
  auto* op = in.dataflow()->template AddOperator<ReduceOp<K, V, Out, Fn>>(
      in, std::move(fn));
  return op->stream();
}

/// Keeps, per key, the minimum value with multiplicity one (e.g. shortest
/// distance, smallest component label). Values with non-positive net counts
/// are ignored.
template <typename K, typename V>
Stream<std::pair<K, V>> ReduceMin(Stream<std::pair<K, V>> in) {
  return Reduce<V>(in, [](const K&, const Batch<V>& input, Batch<V>* output) {
    const V* best = nullptr;
    for (const Update<V>& u : input) {
      if (u.diff > 0 && (best == nullptr || u.data < *best)) best = &u.data;
    }
    if (best != nullptr) output->push_back(Update<V>{*best, 1});
  });
}

/// Keeps, per key, the maximum value with multiplicity one.
template <typename K, typename V>
Stream<std::pair<K, V>> ReduceMax(Stream<std::pair<K, V>> in) {
  return Reduce<V>(in, [](const K&, const Batch<V>& input, Batch<V>* output) {
    const V* best = nullptr;
    for (const Update<V>& u : input) {
      if (u.diff > 0 && (best == nullptr || *best < u.data)) best = &u.data;
    }
    if (best != nullptr) output->push_back(Update<V>{*best, 1});
  });
}

/// Per-key count of records (with multiplicity), emitted while non-zero.
/// An additive reduce over weight 1.
template <typename K, typename V>
Stream<std::pair<K, int64_t>> Count(Stream<std::pair<K, V>> in) {
  return Reduce<int64_t>(
      Weigh(in, [](const V&) { return Diff{1}; }),
      [](const K&, Diff total, Batch<int64_t>* output) {
        output->push_back(Update<int64_t>{total, 1});
      });
}

/// Set-semantics projection: every record present with positive count
/// appears exactly once. An additive reduce over weight 1.
template <typename D>
Stream<D> Distinct(Stream<D> in) {
  auto keyed = in.Map([](const D& d) { return std::make_pair(d, Unit{}); });
  auto reduced = Reduce<bool>(
      keyed, [](const D&, Diff total, Batch<bool>* output) {
        if (total > 0) output->push_back(Update<bool>{true, 1});
      });
  return reduced.Map([](const std::pair<D, bool>& p) { return p.first; });
}

/// Groups a shared arrangement and applies `fn` per key. No input index is
/// built — the reduce reads the arrangement's trace directly.
template <typename Out, typename K, typename V, typename Fn>
Stream<std::pair<K, Out>> ReduceArranged(const Arranged<K, V>& in, Fn fn) {
  auto* op =
      in.dataflow()->template AddOperator<ReduceOp<K, V, Out, Fn>>(
          in, std::move(fn));
  return op->stream();
}

/// Per-key set-semantics projection producing a shared arrangement: each
/// (key, value) with positive net count appears exactly once, and the
/// deduplicated index is owned by the reduce's output trace — the canonical
/// way to build a deduplicated adjacency arrangement (key = src,
/// value = dst) that many joins then probe for free.
template <typename K, typename V>
Arranged<K, V> DistinctArranged(Stream<std::pair<K, V>> in) {
  in = ExchangeByKey(in);
  auto fn = [](const K&, const Batch<V>& input, Batch<V>* output) {
    // `input` is consolidated: one entry per distinct value with its net
    // count.
    for (const Update<V>& u : input) {
      if (u.diff > 0) output->push_back(Update<V>{u.data, 1});
    }
  };
  auto* op =
      in.dataflow()->template AddOperator<ReduceOp<K, V, V, decltype(fn)>>(
          in, std::move(fn));
  return op->arranged();
}

/// Per-key count over a shared arrangement, itself exposed as an
/// arrangement (e.g. out-degrees over an arranged edge set).
template <typename K, typename V>
Arranged<K, int64_t> CountArranged(const Arranged<K, V>& in) {
  auto fn = [](const K&, const Batch<V>& input, Batch<int64_t>* output) {
    Diff total = 0;
    for (const Update<V>& u : input) total += u.diff;
    if (total != 0) output->push_back(Update<int64_t>{total, 1});
  };
  auto* op =
      in.dataflow()
          ->template AddOperator<ReduceOp<K, V, int64_t, decltype(fn)>>(
              in, std::move(fn));
  return op->arranged();
}

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_REDUCE_H_
