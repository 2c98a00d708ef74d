#include "testing/fuzz_program.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "differential/differential.h"

namespace gs::testing {

namespace dd = ::gs::differential;

using VV = analytics::VertexValue;  // (uint64 key, int64 value)
using KeyedU64 = std::pair<uint64_t, uint64_t>;

namespace {

/// Builds the converging min-label propagation loop: seed labels from the
/// child stream, propagate min(value) + increment along the (symmetrized,
/// deduplicated) edge relation. increment 0 is a WCC-style component min,
/// increment 1 a BFS-style distance; both are monotone fixed points, so the
/// loop converges regardless of schedule.
dd::Stream<VV> IterateMinProp(bool arranged_joins,
                              analytics::EdgeStream edges,
                              dd::Stream<VV> child, int64_t increment) {
  auto seeds = dd::ReduceMin(child);
  auto sym = edges.FlatMap(
      [](const WeightedEdge& e, std::vector<KeyedU64>* out) {
        out->push_back({e.src, e.dst});
        out->push_back({e.dst, e.src});
      });
  auto prop = [increment](const uint64_t&, const int64_t& v,
                          const uint64_t& dst) {
    return std::make_pair(dst, v + increment);
  };
  if (arranged_joins) {
    auto adjacency = dd::DistinctArranged(sym);
    return dd::Iterate<VV>(
        seeds, [&](dd::LoopScope& scope, dd::Stream<VV> inner) {
          auto adj_in = adjacency.Enter(scope);
          auto seeds_in = scope.Enter(seeds);
          auto messages = dd::JoinArranged(inner, adj_in, prop);
          return dd::ReduceMin(messages.Concat(seeds_in));
        });
  }
  auto adjacency = dd::Distinct(sym);
  return dd::Iterate<VV>(
      seeds, [&](dd::LoopScope& scope, dd::Stream<VV> inner) {
        auto adj_in = scope.Enter(adjacency);
        auto seeds_in = scope.Enter(seeds);
        auto messages = dd::Join(inner, adj_in, prop);
        return dd::ReduceMin(messages.Concat(seeds_in));
      });
}

dd::Stream<VV> BuildDag(bool arranged_joins, analytics::EdgeStream edges,
                        const std::vector<OpNode>& ops) {
  std::vector<dd::Stream<VV>> built;
  built.reserve(ops.size());
  // Total on any spec (minimization truncates programs to prefixes): out-of
  // -range children clamp to the previous node, a non-base node at index 0
  // degrades to a base.
  auto child = [&](int c) -> dd::Stream<VV> {
    if (c < 0 || c >= static_cast<int>(built.size())) c = built.size() - 1;
    return built[c];
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpNode& op = ops[i];
    OpNode::Kind kind = op.kind;
    if (i == 0 && kind != OpNode::Kind::kBaseSrcDst &&
        kind != OpNode::Kind::kBaseDstWeight) {
      kind = OpNode::Kind::kBaseSrcDst;
    }
    const int64_t a = op.a;
    const int64_t b = op.b;
    dd::Stream<VV> s = [&] {
      switch (kind) {
        case OpNode::Kind::kBaseSrcDst:
          return edges.Map([](const WeightedEdge& e) {
            return std::make_pair(e.src, static_cast<int64_t>(e.dst));
          });
        case OpNode::Kind::kBaseDstWeight:
          return edges.Map([](const WeightedEdge& e) {
            return std::make_pair(e.dst, e.weight);
          });
        case OpNode::Kind::kMap:
          if (b % 2 == 0) {
            return child(op.child0).Map([a](const VV& r) {
              return std::make_pair(r.first, r.second + a);
            });
          }
          return child(op.child0).Map([a](const VV& r) {
            return std::make_pair(r.first % static_cast<uint64_t>(a + 1),
                                  r.second);
          });
        case OpNode::Kind::kFilter:
          switch (b % 3) {
            case 0:
              return child(op.child0).Filter([a](const VV& r) {
                return ((r.second % 2) + 2) % 2 == a % 2;
              });
            case 1:
              return child(op.child0).Filter(
                  [a](const VV& r) { return r.second >= a; });
            default:
              return child(op.child0).Filter([a](const VV& r) {
                return r.first % 3 == static_cast<uint64_t>(a % 3);
              });
          }
        case OpNode::Kind::kJoin: {
          auto fn = [](const uint64_t& k, const int64_t& v1,
                       const int64_t& v2) {
            return std::make_pair(k, std::min(v1, v2));
          };
          if (arranged_joins) {
            return dd::JoinArranged(child(op.child0),
                                    dd::Arrange(child(op.child1)), fn);
          }
          return dd::Join(child(op.child0), child(op.child1), fn);
        }
        case OpNode::Kind::kReduceMin:
          return dd::ReduceMin(child(op.child0));
        case OpNode::Kind::kReduceMax:
          return dd::ReduceMax(child(op.child0));
        case OpNode::Kind::kCount:
          return dd::Count(child(op.child0));
        case OpNode::Kind::kDistinct:
          return dd::Distinct(child(op.child0));
        case OpNode::Kind::kConcatNegate: {
          // x + (-(x where v >= a)): matching records cancel to net zero,
          // driving genuinely negative diffs through downstream operators
          // while keeping accumulated multiplicities non-negative.
          auto x = child(op.child0);
          return x.Concat(
              x.Filter([a](const VV& r) { return r.second >= a; }).Negate());
        }
        case OpNode::Kind::kIterateMinProp:
          return IterateMinProp(arranged_joins, edges, child(op.child0),
                                a % 2);
      }
      return child(op.child0);  // unreachable
    }();
    built.push_back(std::move(s));
  }
  return built.back();
}

}  // namespace

analytics::ResultStream FuzzComputation::GraphAnalytics(
    analytics::EdgeStream edges) const {
  switch (spec_.algo) {
    case Algo::kWcc:
      return analytics::Wcc().GraphAnalytics(edges);
    case Algo::kBfs:
      return analytics::Bfs(static_cast<VertexId>(spec_.param))
          .GraphAnalytics(edges);
    case Algo::kBellmanFord:
      return analytics::BellmanFord(static_cast<VertexId>(spec_.param))
          .GraphAnalytics(edges);
    case Algo::kPageRank:
      return analytics::PageRank(static_cast<uint32_t>(spec_.param))
          .GraphAnalytics(edges);
    case Algo::kRandom:
      break;
  }
  dd::Stream<VV> root =
      spec_.ops.empty()
          ? edges.Map([](const WeightedEdge& e) {
              return std::make_pair(e.src, static_cast<int64_t>(e.dst));
            })
          : BuildDag(arranged_joins_, edges, spec_.ops);
  // The executor's capture path requires unit multiplicities; Distinct
  // normalizes whatever the random DAG produced.
  return dd::Distinct(root);
}

}  // namespace gs::testing
