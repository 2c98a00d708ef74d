// The property graph: an edge stream plus columnar node/edge property
// stores (the paper's Graph Store + Node Property Store).
#ifndef GRAPHSURGE_GRAPH_GRAPH_H_
#define GRAPHSURGE_GRAPH_GRAPH_H_

#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "graph/property_table.h"
#include "graph/types.h"

namespace gs {

/// A directed property graph with dense internal vertex IDs [0, num_nodes).
/// Edges are stored as a stream (insertion order preserved) and referenced
/// by dense EdgeId; views and difference streams are defined over EdgeIds.
///
/// Streaming mutations (graph/mutation.h) never renumber: removed nodes and
/// edges are tombstoned in place so every EdgeId/VertexId stays valid for
/// the lifetime of the graph, and view collections keyed by EdgeId survive
/// graph-update epochs unchanged. A graph with no removals carries no
/// tombstone storage at all.
class PropertyGraph {
 public:
  PropertyGraph() = default;

  /// Creates `n` nodes with no properties; returns the first new id.
  VertexId AddNodes(size_t n);

  /// Appends an edge and returns its EdgeId. Endpoints must exist.
  StatusOr<EdgeId> AddEdge(VertexId src, VertexId dst);

  /// Tombstones an edge (the id stays valid; edge_alive turns false).
  Status RemoveEdge(EdgeId id);
  /// Tombstones a node. Incident edges are NOT removed here — the mutation
  /// applier (graph/mutation.h) removes them so the effects are observable.
  Status RemoveNode(VertexId id);

  bool edge_alive(EdgeId id) const {
    return edge_alive_.empty() || edge_alive_.Test(id);
  }
  bool node_alive(VertexId id) const {
    return node_alive_.empty() || node_alive_.Test(id);
  }
  /// One 64-edge word of the alive bitmap (bit j = edge 64w+j alive); the
  /// batch data plane ANDs these into selection masks. All-ones when no
  /// edge was ever removed.
  uint64_t edge_alive_word(size_t w) const {
    return edge_alive_.empty() ? ~uint64_t{0} : edge_alive_.word(w);
  }
  /// Edges minus tombstones (num_edges() counts all ids ever allocated).
  size_t num_live_edges() const { return edges_.size() - dead_edges_; }
  size_t num_live_nodes() const { return num_nodes_ - dead_nodes_; }

  /// Graph-update epoch: the number of mutation batches applied so far
  /// (bumped by graph/mutation.h's ApplyMutationBatch). Epoch 0 is the
  /// as-loaded snapshot.
  uint64_t mutation_epoch() const { return mutation_epoch_; }
  void BumpMutationEpoch() { ++mutation_epoch_; }

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edges_.size(); }

  const Edge& edge(EdgeId id) const { return edges_[id]; }
  const std::vector<Edge>& edges() const { return edges_; }

  PropertyTable& node_properties() { return node_props_; }
  const PropertyTable& node_properties() const { return node_props_; }
  PropertyTable& edge_properties() { return edge_props_; }
  const PropertyTable& edge_properties() const { return edge_props_; }

  /// Resolves an edge to a weighted edge using `weight_column` if present
  /// (int or double, rounded), otherwise weight 1. `weight_column` must
  /// pass CheckWeightColumn.
  WeightedEdge ResolveWeighted(EdgeId id, int weight_column) const;

  /// Ok if `weight_column` is -1 (unweighted) or an int or double edge
  /// property column; InvalidArgument otherwise.
  Status CheckWeightColumn(int weight_column) const;

  /// Returns the edge-property column index to use as weight, or -1.
  int FindWeightColumn(const std::string& name) const;

  /// Verifies internal consistency (property table row counts match node
  /// and edge counts, endpoints in range).
  Status Validate() const;

 private:
  size_t num_nodes_ = 0;
  std::vector<Edge> edges_;
  PropertyTable node_props_;
  PropertyTable edge_props_;
  /// Tombstone bitmaps; empty means "all alive" (the common static case).
  Bitset edge_alive_;
  Bitset node_alive_;
  size_t dead_edges_ = 0;
  size_t dead_nodes_ = 0;
  uint64_t mutation_epoch_ = 0;
};

}  // namespace gs

#endif  // GRAPHSURGE_GRAPH_GRAPH_H_
