// The event scheduler: a priority queue over (lexicographic time, operator
// order, sequence) keys. Lexicographic time order is a linear extension of
// the product partial order, so on acyclic dataflow paths every diff at a
// time s ≤ t is applied before work at t runs. Across feedback edges strict
// ordering is impossible; engine correctness does not depend on it because
// stateful operators emit corrections for late-arriving diffs (DESIGN.md
// §3.1) — the ordering here is an efficiency heuristic.
//
// Because the sub-time ordering is a heuristic, Schedule exposes a fuzzing
// hook (the FuzzScheduler point, fuzz_hooks.h): when installed, the
// (op_order, seq) tie-breakers are deterministically scrambled from the
// fuzz seed, perturbing operator activation order among same-time events
// without ever reordering across distinct times — the frontier protocol's
// guarantees survive by construction.
//
// Threading: a Scheduler is owned by exactly one worker shard and is only
// ever touched by the thread currently running that shard's phase (see
// sharded.h); it needs no internal synchronization.
#ifndef GRAPHSURGE_DIFFERENTIAL_SCHEDULER_H_
#define GRAPHSURGE_DIFFERENTIAL_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "differential/fuzz_hooks.h"
#include "differential/time.h"

namespace gs::differential {

/// Total order key for scheduled events.
struct EventKey {
  Time time;
  uint32_t op_order = 0;  // creation order of the receiving operator
  uint64_t seq = 0;       // global tie-breaker (FIFO)

  bool operator>(const EventKey& other) const {
    if (!(time == other.time)) return other.time.LexLess(time);
    if (op_order != other.op_order) return op_order > other.op_order;
    return seq > other.seq;
  }
};

/// Min-heap event loop. Implemented as an explicit binary heap over a
/// vector (std::push_heap/std::pop_heap) rather than std::priority_queue:
/// the min element must be *moved out* before running it (re-entrant
/// Schedule calls from inside the action would otherwise invalidate it),
/// and priority_queue::top() only offers const access, forcing a
/// const_cast that is undefined behavior waiting to happen.
class Scheduler {
 public:
  void Schedule(const Time& time, uint32_t op_order,
                std::function<void()> action) {
    uint64_t seq = next_seq_++;
    // Fuzz hook (fuzz_hooks.h): the components below `time` are an
    // efficiency heuristic, so the fuzzer may scramble them to explore
    // alternative linear extensions of the time order. `time` itself is
    // never perturbed — the frontier protocol depends on it.
    const fuzz::Hooks& fz = fuzz::GlobalHooks();
    if (fz.scramble_op_order) {
      op_order = static_cast<uint32_t>(fuzz::Mix(fz.seed ^ (seq << 16) ^
                                                 op_order));
    }
    if (fz.scramble_seq) seq = fuzz::Mix(fz.seed ^ seq);
    heap_.push_back(Event{EventKey{time, op_order, seq}, std::move(action)});
    std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
    if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
  }

  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }
  uint64_t events_processed() const { return events_processed_; }

  /// High-water backlog since the last TakePeakPending — the scheduling
  /// pressure figure surfaced per worker in a dataflow's /statusz "sched"
  /// block. Reset per step so spikes are attributable to a version, not
  /// smeared across a run.
  uint64_t TakePeakPending() {
    uint64_t peak = peak_pending_;
    peak_pending_ = heap_.size();
    return peak;
  }

  /// Pops and runs the minimum event. Returns false if empty.
  bool RunOne() {
    if (heap_.empty()) return false;
    // pop_heap moves the minimum to the back, where it is legitimately
    // mutable; take the action and shrink *before* running it so re-entrant
    // Schedule calls cannot invalidate the event.
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    std::function<void()> action = std::move(heap_.back().action);
    heap_.pop_back();
    ++events_processed_;
    action();
    return true;
  }

  /// Key of the next pending event; only valid when !empty().
  const EventKey& PeekKey() const { return heap_.front().key; }

 private:
  struct Event {
    EventKey key;
    std::function<void()> action;
  };
  // Comparator yielding a min-heap on EventKey (heap algorithms build a
  // max-heap with respect to the comparator).
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      return a.key > b.key;
    }
  };

  std::vector<Event> heap_;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t peak_pending_ = 0;
};

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_SCHEDULER_H_
