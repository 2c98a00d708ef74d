#include "graph/graph.h"

namespace gs {

VertexId PropertyGraph::AddNodes(size_t n) {
  VertexId first = num_nodes_;
  num_nodes_ += n;
  if (!node_alive_.empty()) node_alive_.Resize(num_nodes_, true);
  return first;
}

StatusOr<EdgeId> PropertyGraph::AddEdge(VertexId src, VertexId dst) {
  if (src >= num_nodes_ || dst >= num_nodes_) {
    return Status::OutOfRange("edge endpoint out of range: " +
                              std::to_string(src) + "->" +
                              std::to_string(dst));
  }
  if (!node_alive(src) || !node_alive(dst)) {
    return Status::FailedPrecondition("edge endpoint is a removed node: " +
                                      std::to_string(src) + "->" +
                                      std::to_string(dst));
  }
  edges_.push_back(Edge{src, dst});
  if (!edge_alive_.empty()) edge_alive_.PushBack(true);
  return static_cast<EdgeId>(edges_.size() - 1);
}

Status PropertyGraph::RemoveEdge(EdgeId id) {
  if (id >= edges_.size()) {
    return Status::OutOfRange("edge id out of range: " + std::to_string(id));
  }
  if (edge_alive_.empty()) edge_alive_.Assign(edges_.size(), true);
  if (!edge_alive_.Test(id)) {
    return Status::FailedPrecondition("edge " + std::to_string(id) +
                                      " already removed");
  }
  edge_alive_.Reset(id);
  ++dead_edges_;
  return Status::Ok();
}

Status PropertyGraph::RemoveNode(VertexId id) {
  if (id >= num_nodes_) {
    return Status::OutOfRange("node id out of range: " + std::to_string(id));
  }
  if (node_alive_.empty()) node_alive_.Assign(num_nodes_, true);
  if (!node_alive_.Test(id)) {
    return Status::FailedPrecondition("node " + std::to_string(id) +
                                      " already removed");
  }
  node_alive_.Reset(id);
  ++dead_nodes_;
  return Status::Ok();
}

WeightedEdge PropertyGraph::ResolveWeighted(EdgeId id,
                                            int weight_column) const {
  const Edge& e = edges_[id];
  int64_t w = 1;
  if (weight_column >= 0) {
    const Column& col = edge_props_.column(static_cast<size_t>(weight_column));
    if (!col.IsNull(id)) {
      if (col.type() == PropertyType::kInt) {
        w = col.GetInt(id);
      } else if (col.type() == PropertyType::kDouble) {
        w = static_cast<int64_t>(col.GetDouble(id));
      }
    }
  }
  return WeightedEdge{e.src, e.dst, w};
}

Status PropertyGraph::CheckWeightColumn(int weight_column) const {
  if (weight_column == -1) return Status::Ok();
  const std::string name = "weight column " + std::to_string(weight_column);
  if (weight_column < 0 ||
      static_cast<size_t>(weight_column) >= edge_props_.num_columns()) {
    return Status::InvalidArgument(
        name + " does not exist (the graph has " +
        std::to_string(edge_props_.num_columns()) + " edge columns)");
  }
  const PropertyType t =
      edge_props_.column(static_cast<size_t>(weight_column)).type();
  if (t != PropertyType::kInt && t != PropertyType::kDouble) {
    return Status::InvalidArgument(name + " has type " + PropertyTypeName(t) +
                                   "; expected int or double");
  }
  return Status::Ok();
}

int PropertyGraph::FindWeightColumn(const std::string& name) const {
  auto idx = edge_props_.ColumnIndex(name);
  if (!idx.ok()) return -1;
  PropertyType t = edge_props_.column(*idx).type();
  if (t != PropertyType::kInt && t != PropertyType::kDouble) return -1;
  return static_cast<int>(*idx);
}

Status PropertyGraph::Validate() const {
  if (node_props_.num_columns() > 0 && node_props_.num_rows() != num_nodes_) {
    return Status::Internal("node property rows != node count");
  }
  if (edge_props_.num_columns() > 0 &&
      edge_props_.num_rows() != edges_.size()) {
    return Status::Internal("edge property rows != edge count");
  }
  for (const Edge& e : edges_) {
    if (e.src >= num_nodes_ || e.dst >= num_nodes_) {
      return Status::Internal("edge endpoint out of range");
    }
  }
  return Status::Ok();
}

}  // namespace gs
