// Iterative (fixpoint) scopes.
//
// Iterate(input, body) computes the fixpoint of `body` applied to `input`:
// the loop variable at iteration 0 is the scope input; at iteration i+1 it
// is body's output at iteration i. The feedback stream is derived as
//
//   δfb(v, ı⃗, j) = δbody(v, ı⃗, j-1) - δinput(v, ı⃗, j-1)
//
// (input diffs only exist at j-1 = 0), i.e. `concat(body, negate(ingress))`
// delayed by one iteration — summing gives var@(v,·,j) = body@(v,·,j-1) as
// required. The loop terminates when body's diffs vanish (the scheduler
// drains); IterateOptions::max_iterations caps non-converging programs such
// as PageRank, which runs a fixed iteration count.
#ifndef GRAPHSURGE_DIFFERENTIAL_ITERATE_H_
#define GRAPHSURGE_DIFFERENTIAL_ITERATE_H_

#include <map>
#include <utility>

#include "differential/dataflow.h"
#include "differential/operators.h"

namespace gs::differential {

/// Scope ingress: lifts a stream into the loop by appending an iteration
/// coordinate fixed at 0. Outer diffs at (v, ı⃗) become (v, ı⃗, 0) and are
/// therefore ≤ every iteration of the loop — exactly how DD "enters" static
/// collections (e.g. edges) into iterative scopes.
template <typename D>
class EnterOp : public OperatorBase {
 public:
  EnterOp(Dataflow* dataflow, Stream<D> in)
      : OperatorBase(dataflow, "enter") {
    in.publisher()->Subscribe([this](const Time& t, const Batch<D>& b) {
      Batch<D> copy = b;
      output_.Publish(dataflow_, t.Entered(), std::move(copy));
    });
  }

  Stream<D> stream() { return Stream<D>(dataflow_, &output_); }

 private:
  Publisher<D> output_;
};

/// Scope egress: accumulates inner diffs per outer time and emits one
/// consolidated batch at the outer time once the inner loop has quiesced
/// for it. Uses a sentinel event at iteration ∞ so it sorts after all inner
/// work; late corrections simply trigger another (incremental) flush.
template <typename D>
class LeaveOp : public OperatorBase {
 public:
  LeaveOp(Dataflow* dataflow, Stream<D> in)
      : OperatorBase(dataflow, "leave") {
    in.publisher()->Subscribe([this](const Time& t, const Batch<D>& b) {
      OnInput(t, b);
    });
  }

  Stream<D> stream() { return Stream<D>(dataflow_, &output_); }

  void CollectMemory(OperatorMemory* out) const override {
    size_t pending = 0;
    for (const auto& [outer, held] : held_) pending += held.pending.size();
    out->queued_bytes += pending * sizeof(Update<D>);
  }

 private:
  struct Held {
    Batch<D> pending;
    bool flush_scheduled = false;
  };

  void OnInput(const Time& time, const Batch<D>& batch) {
    Time outer = time.Left();
    Held& held = held_[outer];
    held.pending.insert(held.pending.end(), batch.begin(), batch.end());
    if (!held.flush_scheduled) {
      held.flush_scheduled = true;
      Time sentinel = outer.Entered();
      sentinel.iters[sentinel.depth - 1] = kIterInfinity;
      dataflow_->scheduler().Schedule(sentinel, order(),
                                      [this, outer] { Flush(outer); });
    }
  }

  void Flush(const Time& outer) {
    auto it = held_.find(outer);
    if (it == held_.end()) return;
    it->second.flush_scheduled = false;
    Batch<D> batch = std::move(it->second.pending);
    it->second.pending.clear();
    output_.Publish(dataflow_, outer, std::move(batch));
  }

  std::map<Time, Held, TimeLexLess> held_;
  Publisher<D> output_;
};

/// The loop feedback edge: forwards diffs delayed by one iteration,
/// dropping anything beyond the iteration cap.
///
/// Feedback is a *buffered* operator: all diffs arriving at a time are
/// consolidated before being forwarded. This matters for loop bodies with a
/// linear pass-through of the loop variable (e.g. antijoin's
/// concat-negate): the pass-through diff and its cancelling counterpart
/// must annihilate here, otherwise they would circulate (and, with
/// synchronous linear delivery, recurse) forever. Buffering also bounds
/// call-stack depth: every dataflow cycle contains this scheduled hop.
template <typename D>
class FeedbackOp : public OperatorBase {
 public:
  FeedbackOp(Dataflow* dataflow, uint32_t max_iterations)
      : OperatorBase(dataflow, "feedback"), max_iterations_(max_iterations) {}

  Stream<D> stream() { return Stream<D>(dataflow_, &output_); }

  void ConnectForward(Stream<D> in) {
    in.publisher()->Subscribe([this](const Time& t, const Batch<D>& b) {
      port_.Append(t, b);
      RequestRun(t);
    });
  }

  void ConnectNegated(Stream<D> in) {
    in.publisher()->Subscribe([this](const Time& t, const Batch<D>& b) {
      Batch<D> negated = b;
      for (Update<D>& u : negated) u.diff = -u.diff;
      port_.Append(t, negated);
      RequestRun(t);
    });
  }

  void CollectMemory(OperatorMemory* out) const override {
    out->queued_bytes += port_.buffered_bytes();
  }

 private:
  void RunAt(const Time& time) override {
    Batch<D> batch = port_.Take(time);
    Time delayed = time.Delayed();
    if (delayed.inner_iteration() > max_iterations_) return;
    output_.Publish(dataflow_, delayed, std::move(batch));
  }

  InputPort<D> port_;
  uint32_t max_iterations_;
  Publisher<D> output_;
};

/// Handle passed to the loop body for bringing outer streams into scope.
class LoopScope {
 public:
  explicit LoopScope(Dataflow* dataflow) : dataflow_(dataflow) {}

  template <typename T>
  Stream<T> Enter(Stream<T> outer) {
    auto* op = dataflow_->AddOperator<EnterOp<T>>(outer);
    return op->stream();
  }

  /// Egresses a side stream out of the scope (consolidated per outer time).
  /// Used by computations that emit results from inside a loop, e.g. the
  /// SCC coloring algorithm assigning component ids per peeling round.
  template <typename T>
  Stream<T> Leave(Stream<T> inner) {
    auto* op = dataflow_->AddOperator<LeaveOp<T>>(inner);
    return op->stream();
  }

  Dataflow* dataflow() const { return dataflow_; }

 private:
  Dataflow* dataflow_;
};

struct IterateOptions {
  /// Maximum loop iteration index fed back (var@max is still computed).
  uint32_t max_iterations = 1u << 20;
};

/// Builds an iterative scope. `body` receives the scope and the loop
/// variable stream and returns the new value of the variable; the returned
/// stream is the fixpoint, at the scope's outer depth.
template <typename D, typename BodyFn>
Stream<D> Iterate(Stream<D> input, BodyFn body,
                  IterateOptions options = IterateOptions()) {
  Dataflow* df = input.dataflow();
  auto* ingress = df->AddOperator<EnterOp<D>>(input);
  auto* feedback = df->AddOperator<FeedbackOp<D>>(options.max_iterations);
  Stream<D> variable = ingress->stream().Concat(feedback->stream());
  LoopScope scope(df);
  Stream<D> result = body(scope, variable);
  feedback->ConnectForward(result);
  feedback->ConnectNegated(ingress->stream());
  auto* egress = df->AddOperator<LeaveOp<D>>(result);
  return egress->stream();
}

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_ITERATE_H_
