// The differential fuzzer's execution-mode oracle. Every case runs the
// same computation over the same view collection through independent
// execution paths:
//
//   ref              serial, no hooks — the golden run
//   serial-scrambled serial, full schedule fuzz (seq tie scrambling,
//                    injected compactions, tail-seal 1); op_order ties are
//                    scrambled too for random DAGs, whose golden shape uses
//                    plain joins (op_order ties are load-bearing for
//                    arrangements, so the named algorithms keep them)
//   serial-arranged  random DAGs only: the arranged-join shape with
//                    seq-only scrambling — the check that JoinArranged
//                    agrees with Join
//   sharded          multi-worker at the case's W, exchange-delivery
//                    shuffling on top of seq scrambling; a random DAG's
//                    join shape is picked by seed coin
//   scratch          per-view from-scratch strategy (no differential
//                    sharing at all)
//   reference        sequential non-dataflow implementations
//                    (algorithms/reference.h), per view — named algorithms
//                    only
//   fault            optional: the injected mid-run failure, which must
//                    surface as a clean Status, leave the memory gauges at
//                    zero, and not affect a subsequent clean run
//
// All modes must produce identical per-view results; any divergence is a
// bug in the engine (or an injected one). Log lines written to *log are a
// pure function of the case and the results — no timing, no pointers — so
// two invocations on the same case produce byte-identical logs.
#ifndef GRAPHSURGE_TESTING_ORACLE_H_
#define GRAPHSURGE_TESTING_ORACLE_H_

#include <cstdint>
#include <string>

#include "algorithms/reference.h"
#include "common/status.h"
#include "testing/fuzz_case.h"

namespace gs::testing {

/// Runs the case through every oracle mode. Ok() iff all modes agree and
/// every post-run invariant holds. Deterministic log lines are appended to
/// *log (never null).
Status RunOracle(const FuzzCase& c, std::string* log);

/// Ok() iff the arrangement memory gauges (gs_arrangement_bytes,
/// gs_arrangement_batches) and gs_engine_records_outstanding read zero —
/// i.e. no engine, failed steps included, leaked accounting. Only
/// meaningful while no dataflow engines are alive.
Status CheckArrangementGaugesZero();

/// Order-independent content hash of a result map (for log lines).
uint64_t HashResults(const analytics::ResultMap& results);

}  // namespace gs::testing

#endif  // GRAPHSURGE_TESTING_ORACLE_H_
