// Deterministic fuzzing hook points for the differential engine.
//
// The property-based fuzzer (src/testing/) explores rare interleavings by
// perturbing the three degrees of freedom the engine's correctness argument
// says are free — and only those:
//
//   * scheduler tie-breaking: the (op_order, seq) components of EventKey are
//     an efficiency heuristic below the lexicographic time order
//     (scheduler.h). Scrambling `seq` is always safe. Scrambling `op_order`
//     is safe only for plans without shared arrangements: an arrangement
//     relies on its ArrangeOp running before its consumers at tied times
//     (arrange.h). Every named algorithm's plan is arranged, so the oracle
//     scrambles `op_order` only for random operator DAGs built with plain
//     joins.
//   * exchange delivery order: ExchangeInbox::Drain returns batches in push
//     order, but downstream operators bucket per timestamp and the
//     scheduler orders timestamps, so any permutation of one drain is
//     legal.
//   * trace maintenance points: CompactTo(sealed_version) is legal at any
//     moment no trace iteration is in flight (Insert call sites), and the
//     tail-seal threshold is a pure performance knob — forcing it to 1
//     simulates allocation pressure (maximum spine churn).
//
// Two fault hooks do change behavior on purpose:
//   * fail_after_events simulates a mid-run resource failure: the event-cap
//     check returns Status::Internal once the budget is hit. The fuzzer
//     verifies the engine tears down cleanly (memory gauges return to zero)
//     and that a fresh engine re-run succeeds.
//   * drop_insert_at is the hidden `--inject-bug` hook: a trace silently
//     swallows its Nth insert (a simulated lost-update/compaction-race
//     bug). It exists so the fuzzer's oracle, minimizer, and repro writer
//     can be demonstrated end to end against a real defect.
//
// Threading/determinism contract: hooks are plain globals written only
// while no engine threads are running (before a Dataflow/ShardedDataflow is
// constructed, cleared after it is destroyed — thread creation/join gives
// the needed happens-before). Every hook decision is a pure function of the
// installed seed and per-call-site counters, so a given (case, hook) pair
// replays identically.
#ifndef GRAPHSURGE_DIFFERENTIAL_FUZZ_HOOKS_H_
#define GRAPHSURGE_DIFFERENTIAL_FUZZ_HOOKS_H_

#include <cstddef>
#include <cstdint>

namespace gs::differential::fuzz {

/// splitmix64 finalizer: a cheap, stateless, high-quality mixing function.
/// All hook decisions derive from Mix(seed ^ counter) so they are pure and
/// replayable.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Hooks {
  /// Seed mixed into every hook decision.
  uint64_t seed = 0;

  /// Scheduler: replace the FIFO `seq` tie-breaker with Mix(seed ^ seq).
  /// Safe for every plan (ties at equal (time, op_order) are between
  /// re-requests that never coexist in the heap).
  bool scramble_seq = false;
  /// Scheduler: additionally scramble the `op_order` tie-breaker, fuzzing
  /// operator activation order among same-time events. Only safe for plans
  /// without shared arrangements (see header comment).
  bool scramble_op_order = false;

  /// Exchange: apply a deterministic permutation to each inbox drain.
  bool shuffle_exchange = false;

  /// Trace: run an extra CompactTo(sealed frontier) after every Nth insert
  /// (0 = off). Exercises mid-run compaction at points the normal engine
  /// never compacts.
  uint64_t compaction_period = 0;

  /// Trace: tail-seal threshold override (0 = kTailSealThreshold). 1 forces
  /// a sort/merge on every insert — the allocation-pressure fault.
  size_t tail_seal_threshold = 0;

  /// Hidden --inject-bug hook: each trace silently drops its Nth insert
  /// (0 = off). This IS a bug; the fuzzer must catch it.
  uint64_t drop_insert_at = 0;

  /// Injected allocation failure: Dataflow's event-cap check returns
  /// Status::Internal once this many events ran in one step (0 = off).
  uint64_t fail_after_events = 0;

  bool any() const {
    return scramble_seq || scramble_op_order || shuffle_exchange ||
           compaction_period != 0 || tail_seal_threshold != 0 ||
           drop_insert_at != 0 || fail_after_events != 0;
  }
};

/// The process-wide hook set. Zero-initialized (all hooks off) in normal
/// operation; the hot-path cost of consulting it is a few scalar loads.
inline Hooks& GlobalHooks() {
  static Hooks hooks;
  return hooks;
}

/// RAII installer: swaps the given hooks in, restores the previous set on
/// destruction. Must only be constructed/destructed while no engine threads
/// are running.
class ScopedHooks {
 public:
  explicit ScopedHooks(const Hooks& hooks) : previous_(GlobalHooks()) {
    GlobalHooks() = hooks;
  }
  ~ScopedHooks() { GlobalHooks() = previous_; }

  ScopedHooks(const ScopedHooks&) = delete;
  ScopedHooks& operator=(const ScopedHooks&) = delete;

 private:
  Hooks previous_;
};

}  // namespace gs::differential::fuzz

#endif  // GRAPHSURGE_DIFFERENTIAL_FUZZ_HOOKS_H_
