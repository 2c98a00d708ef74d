// Differential binary join on keyed streams.
//
// δ(A ⋈ B) = Σ over pairs (δA at ta, δB at tb) of matched records, emitted
// at lub(ta, tb). Each pair is counted exactly once: when a batch is
// processed on one input it joins against the other input's trace, which
// contains exactly the batches processed earlier; the batch is then added
// to its own trace. This bilinear form is correct under any processing
// order (DESIGN.md §3.1).
#ifndef GRAPHSURGE_DIFFERENTIAL_JOIN_H_
#define GRAPHSURGE_DIFFERENTIAL_JOIN_H_

#include <map>
#include <utility>

#include "differential/dataflow.h"
#include "differential/exchange.h"
#include "differential/trace.h"

namespace gs::differential {

template <typename K, typename V1, typename V2, typename Out, typename Fn>
class JoinOp : public OperatorBase {
 public:
  JoinOp(Dataflow* dataflow, Stream<std::pair<K, V1>> left,
         Stream<std::pair<K, V2>> right, Fn fn)
      : OperatorBase(dataflow, "join"), fn_(std::move(fn)) {
    left.publisher()->Subscribe(
        [this](const Time& t, const Batch<std::pair<K, V1>>& b) {
          left_port_.Append(t, b);
          RequestRun(t);
        });
    right.publisher()->Subscribe(
        [this](const Time& t, const Batch<std::pair<K, V2>>& b) {
          right_port_.Append(t, b);
          RequestRun(t);
        });
  }

  Stream<Out> stream() { return Stream<Out>(dataflow_, &output_); }

  void OnVersionSealed(uint32_t version) override {
    left_.CompactTo(version);
    right_.CompactTo(version);
  }

  void OnEpochSealed(uint32_t last_version) override {
    left_.CompactEpoch(last_version);
    right_.CompactEpoch(last_version);
  }

  void CollectMemory(OperatorMemory* out) const override {
    out->AddTrace(left_);
    out->AddTrace(right_);
    out->queued_bytes +=
        left_port_.buffered_bytes() + right_port_.buffered_bytes();
  }

 private:
  using OutBuckets = std::map<Time, Batch<Out>, TimeLexLess>;

  void RunAt(const Time& time) override {
    Batch<std::pair<K, V1>> left_batch = left_port_.Take(time);
    Batch<std::pair<K, V2>> right_batch = right_port_.Take(time);
    OutBuckets out;
    // Process left against the right trace *before* the concurrent right
    // batch is added, then right against the left trace *including* the
    // concurrent left batch — each (δl, δr) pair contributes exactly once.
    for (const auto& u : left_batch) {
      const K& key = u.data.first;
      right_.ForEach(key, [&](const V2& value, const Time& entry_time,
                              Diff entry_diff) {
        dataflow_->stats().join_matches++;
        dataflow_->stats().shard_records++;
        out[time.Lub(entry_time)].push_back(Update<Out>{
            fn_(key, u.data.second, value), u.diff * entry_diff});
      });
      left_.Insert(key, u.data.second, time, u.diff);
    }
    for (const auto& u : right_batch) {
      const K& key = u.data.first;
      left_.ForEach(key, [&](const V1& value, const Time& entry_time,
                             Diff entry_diff) {
        dataflow_->stats().join_matches++;
        dataflow_->stats().shard_records++;
        out[time.Lub(entry_time)].push_back(Update<Out>{
            fn_(key, value, u.data.second), entry_diff * u.diff});
      });
      right_.Insert(key, u.data.second, time, u.diff);
    }
    for (auto& [t, batch] : out) {
      output_.Publish(dataflow_, t, std::move(batch));
    }
  }

  Fn fn_;
  InputPort<std::pair<K, V1>> left_port_;
  InputPort<std::pair<K, V2>> right_port_;
  Trace<K, V1> left_;
  Trace<K, V2> right_;
  Publisher<Out> output_;
};

/// Joins two keyed streams; fn(key, v1, v2) produces the output record.
/// Join is a key-repartitioning boundary: in sharded execution both inputs
/// are exchanged by key hash first, so each shard's traces hold exactly the
/// keys it owns and matching is shard-local.
template <typename K, typename V1, typename V2, typename Fn>
auto Join(Stream<std::pair<K, V1>> left, Stream<std::pair<K, V2>> right,
          Fn fn) {
  using Out = std::decay_t<decltype(fn(std::declval<const K&>(),
                                       std::declval<const V1&>(),
                                       std::declval<const V2&>()))>;
  left = ExchangeByKey(left);
  right = ExchangeByKey(right);
  auto* op =
      left.dataflow()->template AddOperator<JoinOp<K, V1, V2, Out, Fn>>(
          left, right, std::move(fn));
  return op->stream();
}

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_JOIN_H_
