// The five analytics computations evaluated in the paper (§7.1): weakly
// connected components, strongly connected components (doubly-iterative
// coloring), breadth-first search, PageRank, and multiple-pair shortest
// paths — plus single-source Bellman-Ford used by the paper's running
// example and Table 2. All are built on the differential API, so running
// them over a view collection shares computation across views.
#ifndef GRAPHSURGE_ALGORITHMS_ALGORITHMS_H_
#define GRAPHSURGE_ALGORITHMS_ALGORITHMS_H_

#include <memory>
#include <vector>

#include "algorithms/computation.h"

namespace gs::analytics {

/// Weakly connected components: every vertex is labeled with the minimum
/// vertex id in its (undirected) component.
class Wcc : public Computation {
 public:
  std::string name() const override { return "wcc"; }
  ResultStream GraphAnalytics(EdgeStream edges) const override;
};

/// Breadth-first search: hop distance from `source` (unweighted).
/// Unreachable vertices produce no output.
class Bfs : public Computation {
 public:
  explicit Bfs(VertexId source) : source_(source) {}
  std::string name() const override { return "bfs"; }
  ResultStream GraphAnalytics(EdgeStream edges) const override;

 private:
  VertexId source_;
};

/// Bellman-Ford single-source shortest paths over edge weights (the
/// paper's running differential example, Figure 2 / Table 1). Weights must
/// be non-negative for termination.
class BellmanFord : public Computation {
 public:
  explicit BellmanFord(VertexId source) : source_(source) {}
  std::string name() const override { return "bellman-ford"; }
  ResultStream GraphAnalytics(EdgeStream edges) const override;

 private:
  VertexId source_;
};

/// PageRank with fixed iteration count and damping 0.85. Ranks are
/// deterministic 64-bit fixed-point values scaled by kRankScale (integer
/// arithmetic end-to-end, so differential and from-scratch runs agree
/// bit-for-bit). rank_0(v) = base; rank_{i+1}(v) = base +
/// Σ_{(u,v)} damp(rank_i(u)) / outdeg(u).
class PageRank : public Computation {
 public:
  static constexpr int64_t kRankScale = 1000000;

  explicit PageRank(uint32_t iterations = 10) : iterations_(iterations) {}
  std::string name() const override { return "pagerank"; }
  ResultStream GraphAnalytics(EdgeStream edges) const override;

  static int64_t Base() { return kRankScale * 15 / 100; }
  static int64_t Damp(int64_t rank) { return rank * 85 / 100; }

 private:
  uint32_t iterations_;
};

/// Strongly connected components via the doubly-iterative coloring /
/// forward-backward peeling algorithm (Orzan; the paper's SCC workload):
/// outer loop peels settled SCCs, inner loops propagate colors forward and
/// membership backward. Every vertex incident to an edge is labeled with
/// the maximum vertex id of its SCC.
class Scc : public Computation {
 public:
  std::string name() const override { return "scc"; }
  ResultStream GraphAnalytics(EdgeStream edges) const override;
};

/// Multiple-pair shortest paths: Bellman-Ford from each pair's source run
/// in one dataflow; the result key packs (vertex << 8 | source index).
/// At most 256 pairs; vertex ids must fit in 56 bits.
class Mpsp : public Computation {
 public:
  explicit Mpsp(std::vector<std::pair<VertexId, VertexId>> pairs)
      : pairs_(std::move(pairs)) {}
  std::string name() const override { return "mpsp"; }
  // One dataflow branch per source pair: the operator graph depends on the
  // pair count, so runs with different counts must never share cache slots.
  std::string cache_tag() const override {
    return "mpsp#" + std::to_string(pairs_.size());
  }
  ResultStream GraphAnalytics(EdgeStream edges) const override;

  static uint64_t PackKey(VertexId v, size_t pair_index) {
    return (v << 8) | static_cast<uint64_t>(pair_index);
  }
  static VertexId UnpackVertex(uint64_t key) { return key >> 8; }
  static size_t UnpackPair(uint64_t key) { return key & 0xFF; }

  const std::vector<std::pair<VertexId, VertexId>>& pairs() const {
    return pairs_;
  }

 private:
  std::vector<std::pair<VertexId, VertexId>> pairs_;
};

}  // namespace gs::analytics

#endif  // GRAPHSURGE_ALGORITHMS_ALGORITHMS_H_
