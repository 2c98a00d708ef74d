// Shared arrangements: build a keyed trace once, share it by reference.
//
// Arrange(stream) indexes a keyed stream into a Trace owned by a single
// ArrangeOp per shard and hands out Arranged<K, V> — a cheap handle pairing
// the immutable view of that trace with the stream of deltas that built it.
// Downstream consumers (JoinArranged, reduce-over-arrangement in reduce.h)
// probe the shared trace by const reference instead of each maintaining a
// private copy of the same index, so a collection joined n times is stored
// once, compacted once, and exchanged once.
//
// Correctness of sharing (DESIGN.md §3.3): the bilinear join discipline
// "probe the other side's trace containing exactly the batches processed
// earlier" survives the split of insert (ArrangeOp) from probe (consumer)
// because (a) the scheduler breaks ties on equal lex times by operator
// creation order and the ArrangeOp always precedes its consumers, so at any
// consumer run the shared trace already contains every arrangement delta
// delivered to that consumer's port, and (b) a consumer therefore processes
// stream-side deltas against the full shared trace but arrangement-side
// deltas only against its *own* stream-side trace — each (δl, δr) pair is
// counted exactly once. For arranged⋈arranged both shared traces contain
// the concurrent deltas of the other side, so the doubly-counted concurrent
// product is subtracted once per run.
//
// Loops: Arranged::Enter re-times the delta stream into the scope (iteration
// coordinate 0) but keeps pointing at the same trace — the zero-extension
// semantics of Time::LessEq/Lub make outer-depth trace entries directly
// probe-able from inner times, so entering an arrangement costs one linear
// operator and no state.
#ifndef GRAPHSURGE_DIFFERENTIAL_ARRANGE_H_
#define GRAPHSURGE_DIFFERENTIAL_ARRANGE_H_

#include <algorithm>
#include <map>
#include <utility>

#include "differential/arrcache.h"
#include "differential/dataflow.h"
#include "differential/exchange.h"
#include "differential/iterate.h"
#include "differential/trace.h"

namespace gs::differential {

/// Owns the shard-local trace of an exchanged keyed stream and republishes
/// the deltas after indexing them, so every subscriber of stream() observes
/// a trace that already contains the batch it was just handed.
template <typename K, typename V>
class ArrangeOp : public OperatorBase {
 public:
  ArrangeOp(Dataflow* dataflow, Stream<std::pair<K, V>> in)
      : OperatorBase(dataflow, "arrange") {
    in.publisher()->Subscribe(
        [this](const Time& t, const Batch<std::pair<K, V>>& b) {
          port_.Append(t, b);
          RequestRun(t);
        });
    // Process-level arrangement cache (arrcache.h). A reader run with a
    // cached snapshot for this operator seeds the trace up front and skips
    // indexing; a builder run exports its trace when version 0 seals —
    // unless activity at any other time disqualifies it (see RunAt).
    if (ArrCacheTxn* txn = dataflow->options().arrcache.get()) {
      if (txn->importing()) {
        auto rows = txn->GetRows<typename Trace<K, V>::Entry>(
            static_cast<int>(order()),
            static_cast<int>(dataflow->worker_index()));
        if (rows != nullptr) {
          trace_.SeedShared(std::move(rows));
          import_ = true;
        }
      } else if (txn->building()) {
        export_ = true;
      }
    }
  }

  const Trace<K, V>* trace() const { return &trace_; }
  Stream<std::pair<K, V>> stream() {
    return Stream<std::pair<K, V>>(dataflow_, &output_);
  }

  void OnVersionSealed(uint32_t version) override {
    trace_.CompactTo(version);
    if (export_) {
      // Only a pure version-0 arrangement snapshot equals its own final
      // history at every consumer execution (see arrcache.h); anything
      // beyond version 0 was already disqualified in RunAt.
      if (version == 0) {
        dataflow_->options().arrcache->PutRows(
            static_cast<int>(order()),
            static_cast<int>(dataflow_->worker_index()),
            trace_.ExportConsolidated());
      }
      export_ = false;
    }
  }

  void OnEpochSealed(uint32_t last_version) override {
    trace_.CompactEpoch(last_version);
  }

  void CollectMemory(OperatorMemory* out) const override {
    out->AddTrace(trace_);
    out->queued_bytes += port_.buffered_bytes();
  }

 private:
  void RunAt(const Time& time) override {
    Batch<std::pair<K, V>> batch = port_.Take(time);
    if (batch.empty()) return;
    if (!(time == Time(0))) export_ = false;  // multi-time: not cacheable
    if (import_) {
      // The seeded trace already holds exactly these entries (the cached
      // snapshot was exported from an identical run); only republish.
      // Cached slots exist only for operators that proved all activity
      // lands at Time(0) during the build, and op orders are deterministic
      // per (computation, workers), so imported activity elsewhere is a
      // structural impossibility.
      GS_CHECK(time == Time(0))
          << "imported arrangement received activity at " << time.ToString();
    } else {
      for (const auto& u : batch) {
        trace_.Insert(u.data.first, u.data.second, time, u.diff);
      }
    }
    output_.Publish(dataflow_, time, std::move(batch));
  }

  InputPort<std::pair<K, V>> port_;
  Trace<K, V> trace_;
  Publisher<std::pair<K, V>> output_;
  bool import_ = false;  // trace seeded from the cache; skip indexing
  bool export_ = false;  // builder run; snapshot the trace at version 0 seal
};

/// Handle to a shared arrangement: the (single-writer) trace plus the delta
/// stream that feeds it. Copyable and cheap — copies share the same trace.
template <typename K, typename V>
class Arranged {
 public:
  Arranged() = default;
  Arranged(const Trace<K, V>* trace, Stream<std::pair<K, V>> deltas)
      : trace_(trace), deltas_(deltas) {}

  const Trace<K, V>* trace() const { return trace_; }
  Stream<std::pair<K, V>> deltas() const { return deltas_; }
  Dataflow* dataflow() const { return deltas_.dataflow(); }
  bool valid() const { return trace_ != nullptr; }

  /// Brings the arrangement into an iterative scope: the deltas are entered
  /// (iteration coordinate pinned at 0), the trace is shared as-is.
  Arranged Enter(LoopScope& scope) const {
    return Arranged(trace_, scope.Enter(deltas_));
  }

 private:
  const Trace<K, V>* trace_ = nullptr;
  Stream<std::pair<K, V>> deltas_;
};

/// Arranges a keyed stream: exchanges it by key (so the shard-local trace
/// holds exactly the keys this worker owns) and indexes it once.
template <typename K, typename V>
Arranged<K, V> Arrange(Stream<std::pair<K, V>> in) {
  in = ExchangeByKey(in);
  auto* op = in.dataflow()->template AddOperator<ArrangeOp<K, V>>(in);
  return Arranged<K, V>(op->trace(), op->stream());
}

/// stream ⋈ arranged. Owns a trace for the stream side only; the arranged
/// side is probed through the shared trace.
template <typename K, typename V1, typename V2, typename Out, typename Fn>
class JoinStreamArrangedOp : public OperatorBase {
 public:
  JoinStreamArrangedOp(Dataflow* dataflow, Stream<std::pair<K, V1>> left,
                       const Arranged<K, V2>& right, Fn fn)
      : OperatorBase(dataflow, "join_arranged"),
        fn_(std::move(fn)),
        right_trace_(right.trace()) {
    dataflow->stats().arrangement_shares++;
    left.publisher()->Subscribe(
        [this](const Time& t, const Batch<std::pair<K, V1>>& b) {
          left_port_.Append(t, b);
          RequestRun(t);
        });
    right.deltas().publisher()->Subscribe(
        [this](const Time& t, const Batch<std::pair<K, V2>>& b) {
          right_port_.Append(t, b);
          RequestRun(t);
        });
  }

  Stream<Out> stream() { return Stream<Out>(dataflow_, &output_); }

  void OnVersionSealed(uint32_t version) override {
    left_.CompactTo(version);
  }

  void OnEpochSealed(uint32_t last_version) override {
    left_.CompactEpoch(last_version);
  }

  void CollectMemory(OperatorMemory* out) const override {
    out->AddTrace(left_);
    out->queued_bytes +=
        left_port_.buffered_bytes() + right_port_.buffered_bytes();
  }

 private:
  using OutBuckets = std::map<Time, Batch<Out>, TimeLexLess>;

  void RunAt(const Time& time) override {
    Batch<std::pair<K, V1>> left_batch = left_port_.Take(time);
    Batch<std::pair<K, V2>> right_batch = right_port_.Take(time);
    OutBuckets out;
    // Arrangement deltas join this op's own left trace, which excludes the
    // concurrent left batch (not yet inserted); left deltas then join the
    // shared trace, which includes the concurrent arrangement batch (the
    // ArrangeOp ran first) — each (δl, δr) pair contributes exactly once.
    for (const auto& u : right_batch) {
      const K& key = u.data.first;
      left_.ForEach(key, [&](const V1& value, const Time& entry_time,
                             Diff entry_diff) {
        dataflow_->stats().join_matches++;
        dataflow_->stats().shard_records++;
        out[time.Lub(entry_time)].push_back(Update<Out>{
            fn_(key, value, u.data.second), entry_diff * u.diff});
      });
    }
    for (const auto& u : left_batch) {
      const K& key = u.data.first;
      dataflow_->stats().arrangement_probes++;
      right_trace_->ForEach(key, [&](const V2& value, const Time& entry_time,
                                     Diff entry_diff) {
        dataflow_->stats().join_matches++;
        dataflow_->stats().shard_records++;
        out[time.Lub(entry_time)].push_back(Update<Out>{
            fn_(key, u.data.second, value), u.diff * entry_diff});
      });
      left_.Insert(key, u.data.second, time, u.diff);
    }
    for (auto& [t, batch] : out) {
      output_.Publish(dataflow_, t, std::move(batch));
    }
  }

  Fn fn_;
  InputPort<std::pair<K, V1>> left_port_;
  InputPort<std::pair<K, V2>> right_port_;
  Trace<K, V1> left_;
  const Trace<K, V2>* right_trace_;
  Publisher<Out> output_;
};

/// arranged ⋈ arranged. Owns no trace at all: both sides probe the other's
/// shared trace; because each shared trace also contains its own side's
/// concurrent deltas (both ArrangeOps ran before this consumer at any tied
/// time), the concurrent δa×δb product is counted twice by the probes and
/// subtracted once.
template <typename K, typename V1, typename V2, typename Out, typename Fn>
class JoinArrangedArrangedOp : public OperatorBase {
 public:
  JoinArrangedArrangedOp(Dataflow* dataflow, const Arranged<K, V1>& left,
                         const Arranged<K, V2>& right, Fn fn)
      : OperatorBase(dataflow, "join_arranged"),
        fn_(std::move(fn)),
        left_trace_(left.trace()),
        right_trace_(right.trace()) {
    dataflow->stats().arrangement_shares += 2;
    left.deltas().publisher()->Subscribe(
        [this](const Time& t, const Batch<std::pair<K, V1>>& b) {
          left_port_.Append(t, b);
          RequestRun(t);
        });
    right.deltas().publisher()->Subscribe(
        [this](const Time& t, const Batch<std::pair<K, V2>>& b) {
          right_port_.Append(t, b);
          RequestRun(t);
        });
  }

  Stream<Out> stream() { return Stream<Out>(dataflow_, &output_); }

  void CollectMemory(OperatorMemory* out) const override {
    out->queued_bytes +=
        left_port_.buffered_bytes() + right_port_.buffered_bytes();
  }

 private:
  using OutBuckets = std::map<Time, Batch<Out>, TimeLexLess>;

  void RunAt(const Time& time) override {
    Batch<std::pair<K, V1>> left_batch = left_port_.Take(time);
    Batch<std::pair<K, V2>> right_batch = right_port_.Take(time);
    OutBuckets out;
    for (const auto& u : left_batch) {
      const K& key = u.data.first;
      dataflow_->stats().arrangement_probes++;
      right_trace_->ForEach(key, [&](const V2& value, const Time& entry_time,
                                     Diff entry_diff) {
        dataflow_->stats().join_matches++;
        dataflow_->stats().shard_records++;
        out[time.Lub(entry_time)].push_back(Update<Out>{
            fn_(key, u.data.second, value), u.diff * entry_diff});
      });
    }
    for (const auto& u : right_batch) {
      const K& key = u.data.first;
      dataflow_->stats().arrangement_probes++;
      left_trace_->ForEach(key, [&](const V1& value, const Time& entry_time,
                                    Diff entry_diff) {
        dataflow_->stats().join_matches++;
        dataflow_->stats().shard_records++;
        out[time.Lub(entry_time)].push_back(Update<Out>{
            fn_(key, value, u.data.second), entry_diff * u.diff});
      });
    }
    // Subtract the doubly-counted concurrent product. Both batches reached
    // the shared traces at times whose lub with `time` is exactly `time`,
    // so the correction lands at `time`.
    if (!left_batch.empty() && !right_batch.empty()) {
      auto key_less = [](const auto& a, const auto& b) {
        return a.data.first < b.data.first;
      };
      std::sort(left_batch.begin(), left_batch.end(), key_less);
      std::sort(right_batch.begin(), right_batch.end(), key_less);
      size_t i = 0, j = 0;
      while (i < left_batch.size() && j < right_batch.size()) {
        const K& lk = left_batch[i].data.first;
        const K& rk = right_batch[j].data.first;
        if (lk < rk) {
          ++i;
        } else if (rk < lk) {
          ++j;
        } else {
          size_t i_end = i, j_end = j;
          while (i_end < left_batch.size() &&
                 left_batch[i_end].data.first == lk) {
            ++i_end;
          }
          while (j_end < right_batch.size() &&
                 right_batch[j_end].data.first == lk) {
            ++j_end;
          }
          for (size_t a = i; a < i_end; ++a) {
            for (size_t b = j; b < j_end; ++b) {
              out[time].push_back(Update<Out>{
                  fn_(lk, left_batch[a].data.second,
                      right_batch[b].data.second),
                  -left_batch[a].diff * right_batch[b].diff});
            }
          }
          i = i_end;
          j = j_end;
        }
      }
    }
    for (auto& [t, batch] : out) {
      output_.Publish(dataflow_, t, std::move(batch));
    }
  }

  Fn fn_;
  InputPort<std::pair<K, V1>> left_port_;
  InputPort<std::pair<K, V2>> right_port_;
  const Trace<K, V1>* left_trace_;
  const Trace<K, V2>* right_trace_;
  Publisher<Out> output_;
};

/// Joins a keyed stream against a shared arrangement; fn(key, v1, v2) with
/// v1 from the stream, v2 from the arrangement. Only the stream side is
/// exchanged — the arrangement is already partitioned by key.
template <typename K, typename V1, typename V2, typename Fn>
auto JoinArranged(Stream<std::pair<K, V1>> left, const Arranged<K, V2>& right,
                  Fn fn) {
  using Out = std::decay_t<decltype(fn(std::declval<const K&>(),
                                       std::declval<const V1&>(),
                                       std::declval<const V2&>()))>;
  left = ExchangeByKey(left);
  auto* op = left.dataflow()
                 ->template AddOperator<
                     JoinStreamArrangedOp<K, V1, V2, Out, Fn>>(
                     left, right, std::move(fn));
  return op->stream();
}

/// Arrangement-first overload; fn(key, v1, v2) with v1 from the arrangement.
template <typename K, typename V1, typename V2, typename Fn>
auto JoinArranged(const Arranged<K, V1>& left, Stream<std::pair<K, V2>> right,
                  Fn fn) {
  auto flipped = [fn = std::move(fn)](const K& key, const V2& r,
                                      const V1& l) { return fn(key, l, r); };
  return JoinArranged(right, left, std::move(flipped));
}

/// Joins two shared arrangements; no per-join index is built at all.
template <typename K, typename V1, typename V2, typename Fn>
auto JoinArranged(const Arranged<K, V1>& left, const Arranged<K, V2>& right,
                  Fn fn) {
  using Out = std::decay_t<decltype(fn(std::declval<const K&>(),
                                       std::declval<const V1&>(),
                                       std::declval<const V2&>()))>;
  auto* op = left.dataflow()
                 ->template AddOperator<
                     JoinArrangedArrangedOp<K, V1, V2, Out, Fn>>(
                     left, right, std::move(fn));
  return op->stream();
}

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_ARRANGE_H_
