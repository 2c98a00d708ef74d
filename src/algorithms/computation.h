// The analytics computation API (paper §3.1.2, Listing 2).
//
// A Computation builds a differential dataflow that consumes the
// Graphsurge edge stream of a view and produces per-vertex results. All
// computations produce (key, int64 value) records: component ids, BFS
// levels, fixed-point PageRank ranks, or packed (vertex, source) distance
// keys for MPSP — one uniform result type keeps the view-collection
// executor fully generic, mirroring the paper's `type ResultValue`.
#ifndef GRAPHSURGE_ALGORITHMS_COMPUTATION_H_
#define GRAPHSURGE_ALGORITHMS_COMPUTATION_H_

#include <memory>
#include <string>
#include <utility>

#include "differential/differential.h"
#include "graph/types.h"

namespace gs::analytics {

/// Per-vertex result record: (key, value). For most computations the key is
/// the vertex id; MPSP packs (vertex, source-index).
using VertexValue = std::pair<uint64_t, int64_t>;

/// The edge stream type fed to computations. Unweighted algorithms ignore
/// the weight component.
using EdgeStream = differential::Stream<WeightedEdge>;
using ResultStream = differential::Stream<VertexValue>;

/// Paper Listing 2: users implement graph_analytics to turn the view's edge
/// stream, its only input, into a result collection. Implementations must
/// be pure dataflow builders (no execution state) so one instance can build
/// many dataflows.
class Computation {
 public:
  virtual ~Computation() = default;

  /// Short identifier ("wcc", "pagerank", ...) used in reports.
  virtual std::string name() const = 0;

  /// Key fragment identifying the dataflow *shape* this computation builds,
  /// used by the shared-arrangement cache (differential/arrcache.h): two
  /// computations with equal cache_tag() must construct operator graphs
  /// with identical operator orders whose cacheable arrangements hold
  /// identical content given the same edge input. Parameters that only
  /// enter as stream values (BFS/Bellman-Ford sources, PageRank iteration
  /// counts) need not be included — the cached adjacency arrangements are
  /// source-independent, which is exactly what makes them shareable across
  /// queries. Parameters that change the operator graph itself (MPSP's
  /// pair count) must be.
  virtual std::string cache_tag() const { return name(); }

  /// Builds the analytics dataflow over `edges`, inside the dataflow that
  /// owns the stream.
  virtual ResultStream GraphAnalytics(EdgeStream edges) const = 0;
};

}  // namespace gs::analytics

#endif  // GRAPHSURGE_ALGORITHMS_COMPUTATION_H_
