// FuzzComputation: turns a ProgramSpec (fuzz_case.h) into a differential
// dataflow using the real operator library — the named paper algorithms or
// a random operator DAG (map/filter/join/reduce/distinct/negate/iterate).
// Like every Computation it is a pure builder: the executor instantiates
// the plan once per engine (and once per worker shard in sharded mode).
//
// Named algorithms build their one (arranged) plan. A random DAG's joins
// take the shape picked at construction: JoinArranged over an arrangement,
// or plain Join. Random DAGs have no sequential reference, so running one
// DAG in both shapes is how the oracle checks JoinArranged against Join.
#ifndef GRAPHSURGE_TESTING_FUZZ_PROGRAM_H_
#define GRAPHSURGE_TESTING_FUZZ_PROGRAM_H_

#include <string>

#include "algorithms/computation.h"
#include "testing/fuzz_case.h"

namespace gs::testing {

class FuzzComputation : public analytics::Computation {
 public:
  /// `arranged_joins` picks the random DAG's join shape; named algorithms
  /// ignore it.
  FuzzComputation(ProgramSpec spec, bool arranged_joins)
      : spec_(std::move(spec)), arranged_joins_(arranged_joins) {}

  std::string name() const override { return "fuzz"; }
  analytics::ResultStream GraphAnalytics(
      analytics::EdgeStream edges) const override;

 private:
  ProgramSpec spec_;
  bool arranged_joins_;
};

}  // namespace gs::testing

#endif  // GRAPHSURGE_TESTING_FUZZ_PROGRAM_H_
