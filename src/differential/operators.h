// Linear (stateless) operators and the Capture sink.
#ifndef GRAPHSURGE_DIFFERENTIAL_OPERATORS_H_
#define GRAPHSURGE_DIFFERENTIAL_OPERATORS_H_

#include <map>
#include <type_traits>
#include <vector>

#include "differential/dataflow.h"

namespace gs::differential {

template <typename In, typename Out, typename Fn>
class MapOp : public OperatorBase {
 public:
  MapOp(Dataflow* dataflow, Stream<In> in, Fn fn)
      : OperatorBase(dataflow, "map"), fn_(std::move(fn)) {
    in.publisher()->Subscribe([this](const Time& t, const Batch<In>& b) {
      OnInput(t, b);
    });
  }

  Stream<Out> stream() { return Stream<Out>(dataflow_, &output_); }

 private:
  void OnInput(const Time& time, const Batch<In>& batch) {
    Batch<Out> out;
    out.reserve(batch.size());
    for (const Update<In>& u : batch) {
      out.push_back(Update<Out>{fn_(u.data), u.diff});
    }
    output_.Publish(dataflow_, time, std::move(out));
  }

  Fn fn_;
  Publisher<Out> output_;
};

template <typename D, typename Fn>
class FilterOp : public OperatorBase {
 public:
  FilterOp(Dataflow* dataflow, Stream<D> in, Fn fn)
      : OperatorBase(dataflow, "filter"), fn_(std::move(fn)) {
    in.publisher()->Subscribe([this](const Time& t, const Batch<D>& b) {
      OnInput(t, b);
    });
  }

  Stream<D> stream() { return Stream<D>(dataflow_, &output_); }

 private:
  void OnInput(const Time& time, const Batch<D>& batch) {
    Batch<D> out;
    for (const Update<D>& u : batch) {
      if (fn_(u.data)) out.push_back(u);
    }
    output_.Publish(dataflow_, time, std::move(out));
  }

  Fn fn_;
  Publisher<D> output_;
};

/// Fn has signature void(const In&, std::vector<Out>*): it appends zero or
/// more output records per input record; each inherits the input's diff.
template <typename In, typename Out, typename Fn>
class FlatMapOp : public OperatorBase {
 public:
  FlatMapOp(Dataflow* dataflow, Stream<In> in, Fn fn)
      : OperatorBase(dataflow, "flat_map"), fn_(std::move(fn)) {
    in.publisher()->Subscribe([this](const Time& t, const Batch<In>& b) {
      OnInput(t, b);
    });
  }

  Stream<Out> stream() { return Stream<Out>(dataflow_, &output_); }

 private:
  void OnInput(const Time& time, const Batch<In>& batch) {
    Batch<Out> out;
    std::vector<Out> scratch;
    for (const Update<In>& u : batch) {
      scratch.clear();
      fn_(u.data, &scratch);
      for (Out& o : scratch) {
        out.push_back(Update<Out>{std::move(o), u.diff});
      }
    }
    output_.Publish(dataflow_, time, std::move(out));
  }

  Fn fn_;
  Publisher<Out> output_;
};

/// DD's `explode` for a keyed stream: (k, v) with diff d leaves as (k, Unit)
/// with diff weight(v) × d. Publish consolidates the batch, so one key's
/// records at one time leave as a single update carrying their weighted
/// sum — the pre-aggregation an additive Reduce (reduce.h) reads, done
/// before its exchange.
template <typename K, typename V, typename Fn>
class WeighOp : public OperatorBase {
 public:
  WeighOp(Dataflow* dataflow, Stream<std::pair<K, V>> in, Fn weight)
      : OperatorBase(dataflow, "weigh"), weight_(std::move(weight)) {
    in.publisher()->Subscribe(
        [this](const Time& t, const Batch<std::pair<K, V>>& b) {
          OnInput(t, b);
        });
  }

  Stream<std::pair<K, Unit>> stream() {
    return Stream<std::pair<K, Unit>>(dataflow_, &output_);
  }

 private:
  void OnInput(const Time& time, const Batch<std::pair<K, V>>& batch) {
    Batch<std::pair<K, Unit>> out;
    out.reserve(batch.size());
    for (const Update<std::pair<K, V>>& u : batch) {
      const Diff weight = static_cast<Diff>(weight_(u.data.second));
      Diff diff = 0;
      GS_CHECK(!__builtin_mul_overflow(weight, u.diff, &diff))
          << "weight × diff overflows at " << time.ToString();
      out.push_back(Update<std::pair<K, Unit>>{{u.data.first, Unit{}}, diff});
    }
    output_.Publish(dataflow_, time, std::move(out));
  }

  Fn weight_;
  Publisher<std::pair<K, Unit>> output_;
};

template <typename D>
class ConcatOp : public OperatorBase {
 public:
  ConcatOp(Dataflow* dataflow, Stream<D> a, Stream<D> b)
      : OperatorBase(dataflow, "concat") {
    auto forward = [this](const Time& t, const Batch<D>& batch) {
      Batch<D> copy = batch;
      output_.Publish(dataflow_, t, std::move(copy));
    };
    a.publisher()->Subscribe(forward);
    b.publisher()->Subscribe(forward);
  }

  Stream<D> stream() { return Stream<D>(dataflow_, &output_); }

 private:
  Publisher<D> output_;
};

template <typename D>
class NegateOp : public OperatorBase {
 public:
  NegateOp(Dataflow* dataflow, Stream<D> in)
      : OperatorBase(dataflow, "negate") {
    in.publisher()->Subscribe([this](const Time& t, const Batch<D>& b) {
      Batch<D> out = b;
      for (Update<D>& u : out) u.diff = -u.diff;
      output_.Publish(dataflow_, t, std::move(out));
    });
  }

  Stream<D> stream() { return Stream<D>(dataflow_, &output_); }

 private:
  Publisher<D> output_;
};

/// Pass-through that invokes a callback on every batch (debugging, traces).
template <typename D>
class InspectOp : public OperatorBase {
 public:
  InspectOp(Dataflow* dataflow, Stream<D> in,
            std::function<void(const Time&, const Batch<D>&)> fn)
      : OperatorBase(dataflow, "inspect"), fn_(std::move(fn)) {
    in.publisher()->Subscribe([this](const Time& t, const Batch<D>& b) {
      fn_(t, b);
      Batch<D> copy = b;
      output_.Publish(dataflow_, t, std::move(copy));
    });
  }

  Stream<D> stream() { return Stream<D>(dataflow_, &output_); }

 private:
  std::function<void(const Time&, const Batch<D>&)> fn_;
  Publisher<D> output_;
};

/// Terminal sink collecting output difference sets per version. Must be
/// attached outside all Iterate scopes (depth-0 times).
template <typename D>
class CaptureOp : public OperatorBase {
 public:
  CaptureOp(Dataflow* dataflow, Stream<D> in)
      : OperatorBase(dataflow, "capture") {
    in.publisher()->Subscribe([this](const Time& t, const Batch<D>& b) {
      GS_CHECK(t.depth == 0) << "Capture inside a loop scope";
      Batch<D>& sink = versions_[t.version];
      sink.insert(sink.end(), b.begin(), b.end());
    });
  }

  void OnVersionSealed(uint32_t version) override {
    auto it = versions_.find(version);
    if (it != versions_.end()) Consolidate(&it->second);
  }

  /// Difference set of `version` (empty if no change).
  Batch<D> VersionDiffs(uint32_t version) const {
    auto it = versions_.find(version);
    if (it == versions_.end()) return {};
    Batch<D> b = it->second;
    Consolidate(&b);
    return b;
  }

  /// Accumulated collection contents at `version` (sum of diffs ≤ version).
  Batch<D> AccumulatedAt(uint32_t version) const {
    Batch<D> all;
    for (const auto& [v, batch] : versions_) {
      if (v > version) break;
      all.insert(all.end(), batch.begin(), batch.end());
    }
    Consolidate(&all);
    return all;
  }

  const std::map<uint32_t, Batch<D>>& versions() const { return versions_; }

 private:
  std::map<uint32_t, Batch<D>> versions_;
};

// ---------------------------------------------------------------------------
// Fluent Stream methods and free-function spellings.

template <typename D>
template <typename Fn>
auto Stream<D>::Map(Fn fn) const {
  using Out = std::decay_t<decltype(fn(std::declval<const D&>()))>;
  auto* op = dataflow_->AddOperator<MapOp<D, Out, Fn>>(*this, std::move(fn));
  return op->stream();
}

template <typename D>
template <typename Fn>
Stream<D> Stream<D>::Filter(Fn fn) const {
  auto* op = dataflow_->AddOperator<FilterOp<D, Fn>>(*this, std::move(fn));
  return op->stream();
}

template <typename D>
template <typename Fn>
auto Stream<D>::FlatMap(Fn fn) const {
  // Deduce Out from the vector pointer parameter of Fn.
  using Traits = decltype(&Fn::operator());
  return FlatMapDeduce(*this, std::move(fn), Traits{});
}

// Helper deducing FlatMap's output type from Fn's second parameter.
template <typename D, typename Fn, typename C, typename In, typename Out>
auto FlatMapDeduce(const Stream<D>& in, Fn fn,
                   void (C::*)(In, std::vector<Out>*) const) {
  auto* op =
      in.dataflow()->template AddOperator<FlatMapOp<D, Out, Fn>>(in,
                                                                 std::move(fn));
  return op->stream();
}

/// Moves each record's weight into its diff (see WeighOp): the input an
/// additive Reduce sums.
template <typename K, typename V, typename Fn>
Stream<std::pair<K, Unit>> Weigh(Stream<std::pair<K, V>> in, Fn weight) {
  auto* op = in.dataflow()->template AddOperator<WeighOp<K, V, Fn>>(
      in, std::move(weight));
  return op->stream();
}

template <typename D>
Stream<D> Stream<D>::Concat(Stream<D> other) const {
  auto* op = dataflow_->AddOperator<ConcatOp<D>>(*this, other);
  return op->stream();
}

template <typename D>
Stream<D> Stream<D>::Negate() const {
  auto* op = dataflow_->AddOperator<NegateOp<D>>(*this);
  return op->stream();
}

template <typename D>
Stream<D> Stream<D>::InspectBatches(
    std::function<void(const Time&, const Batch<D>&)> fn) const {
  auto* op = dataflow_->AddOperator<InspectOp<D>>(*this, std::move(fn));
  return op->stream();
}

/// Attaches a capture sink and returns it (owned by the dataflow).
template <typename D>
CaptureOp<D>* Capture(Stream<D> stream) {
  return stream.dataflow()->template AddOperator<CaptureOp<D>>(stream);
}

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_OPERATORS_H_
