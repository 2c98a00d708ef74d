#include "views/collection.h"

#include <unordered_map>

#include "common/logging.h"
#include "common/timer.h"
#include "gvdl/predicate.h"
#include "ordering/optimizer.h"

namespace gs::views {

namespace {

// Shared tail of materialization: order → diff stream → metadata. Takes the
// EBM by value and retains it (with `predicates`, definition order) on the
// result so the collection stays incrementally maintainable.
MaterializedCollection Finalize(const PropertyGraph& graph,
                                std::string name,
                                std::vector<std::string> def_names,
                                EdgeBooleanMatrix ebm_in,
                                std::vector<std::function<bool(EdgeId)>>
                                    predicates,
                                const MaterializeOptions& options,
                                Timer* timer) {
  MaterializedCollection mc;
  mc.name = std::move(name);
  mc.ebm = std::make_shared<EdgeBooleanMatrix>(std::move(ebm_in));
  mc.predicates = std::move(predicates);
  mc.graph_epoch = graph.mutation_epoch();
  const EdgeBooleanMatrix& ebm = *mc.ebm;

  double ordering_seconds = 0;
  std::vector<size_t> order;
  uint64_t identity_ds = 0;
  bool identity_ds_known = false;
  if (!options.explicit_order.empty()) {
    order = options.explicit_order;
    GS_CHECK(order.size() == ebm.num_views());
    mc.order_source = "explicit";
    identity_ds = ebm.DifferenceCount(ordering::IdentityOrder(ebm.num_views()));
    identity_ds_known = true;
  } else if (options.use_ordering) {
    ordering::OrderingResult ores =
        ordering::OrderCollection(ebm, options.pool);
    order = std::move(ores.order);
    ordering_seconds = ores.seconds;
    mc.order_source = "ordered";
    identity_ds = ores.identity_difference_count;
    identity_ds_known = true;
  } else {
    order = ordering::IdentityOrder(ebm.num_views());
  }

  mc.order = order;
  mc.view_names.reserve(order.size());
  for (size_t idx : order) mc.view_names.push_back(def_names[idx]);

  mc.diffs = EdgeDifferenceStream::FromMatrix(ebm, order, options.pool);
  mc.view_sizes.reserve(order.size());
  mc.diff_sizes.reserve(order.size());
  for (size_t t = 0; t < order.size(); ++t) {
    mc.view_sizes.push_back(ebm.ColumnOnes(order[t]));
    mc.diff_sizes.push_back(mc.diffs.DiffSize(t));
  }
  mc.total_diffs = mc.diffs.TotalDiffs();
  mc.identity_ds = identity_ds_known ? identity_ds : mc.total_diffs;
  mc.ordering_seconds = ordering_seconds;
  mc.creation_seconds = timer->Seconds();
  return mc;
}

}  // namespace

StatusOr<MaterializedCollection> MaterializeCollection(
    const PropertyGraph& graph, const gvdl::ViewCollectionDef& def,
    const MaterializeOptions& options) {
  Timer timer;
  std::vector<std::string> names;
  std::vector<gvdl::BatchPredicateProgram> programs;
  programs.reserve(def.views.size());
  for (const auto& member : def.views) {
    GS_ASSIGN_OR_RETURN(
        gvdl::BatchPredicateProgram prog,
        gvdl::BatchPredicateProgram::Compile(member.predicate, graph));
    programs.push_back(std::move(prog));
    names.push_back(member.name);
  }
  EdgeBooleanMatrix ebm =
      EdgeBooleanMatrix::ComputeFromPrograms(graph, programs, options.pool);
  // The compiled programs are retained on the collection so incremental
  // maintenance re-evaluates touched edges word-at-a-time.
  MaterializedCollection mc =
      Finalize(graph, def.name, std::move(names), std::move(ebm), {}, options,
               &timer);
  mc.programs = std::move(programs);
  mc.base_graph = def.on;
  return mc;
}

StatusOr<MaterializedCollection> MaterializeCollectionWith(
    const PropertyGraph& graph, const std::string& name,
    const std::vector<std::string>& view_names,
    const std::vector<std::function<bool(EdgeId)>>& predicates,
    const MaterializeOptions& options) {
  if (view_names.size() != predicates.size()) {
    return Status::InvalidArgument("view_names/predicates size mismatch");
  }
  if (predicates.empty()) {
    return Status::InvalidArgument("collection must have at least one view");
  }
  Timer timer;
  EdgeBooleanMatrix ebm =
      EdgeBooleanMatrix::ComputeWith(graph, predicates, options.pool);
  return Finalize(graph, name, view_names, std::move(ebm), predicates,
                  options, &timer);
}

MaterializedCollection CollectionFromDiffBatches(
    const std::string& name, const std::string& base_graph,
    std::vector<std::vector<EdgeDiff>> batches) {
  MaterializedCollection mc;
  mc.name = name;
  mc.base_graph = base_graph;

  uint64_t current_size = 0;
  for (size_t t = 0; t < batches.size(); ++t) {
    int64_t delta = 0;
    for (const EdgeDiff& d : batches[t]) delta += d.diff;
    current_size = static_cast<uint64_t>(
        static_cast<int64_t>(current_size) + delta);
    mc.view_sizes.push_back(current_size);
    mc.diff_sizes.push_back(batches[t].size());
    mc.total_diffs += batches[t].size();
    mc.view_names.push_back(std::string("v").append(std::to_string(t)));
    mc.order.push_back(t);
  }
  mc.diffs = EdgeDifferenceStream::FromBatches(std::move(batches));
  mc.identity_ds = mc.total_diffs;
  return mc;
}

Status UpdateCollectionForMutations(MaterializedCollection* mc,
                                    const PropertyGraph& graph,
                                    const std::vector<EdgeId>& touched_edges) {
  if (!mc->maintainable()) {
    return Status::FailedPrecondition(
        "collection '" + mc->name +
        "' is not maintainable (no retained predicates/EBM)");
  }
  size_t num_views =
      mc->programs.empty() ? mc->predicates.size() : mc->programs.size();
  if (num_views != mc->ebm->num_views()) {
    return Status::Internal("collection '" + mc->name +
                            "': predicate/EBM view count mismatch");
  }
  EdgeBooleanMatrix& ebm = *mc->ebm;
  if (graph.num_edges() > ebm.num_edges()) ebm.Resize(graph.num_edges());

  if (!mc->programs.empty()) {
    // Word path: coalesce the (sorted) touched edges into runs of adjacent
    // 64-edge words and re-evaluate whole words through the batch programs.
    // Untouched lanes recompute to their current values (predicates are
    // deterministic and their inputs unchanged), so whole-word stores are
    // equivalent to per-bit updates.
    for (gvdl::BatchPredicateProgram& prog : mc->programs) {
      prog.Prepare(graph);
    }
    gvdl::BatchEvalScratch scratch;
    std::vector<uint64_t> buf;
    size_t i = 0;
    while (i < touched_edges.size()) {
      size_t w0 = touched_edges[i] >> 6;
      size_t w1 = w0 + 1;
      size_t j = i + 1;
      for (; j < touched_edges.size(); ++j) {
        size_t w = touched_edges[j] >> 6;
        if (w >= w1 + 1) break;  // gap: start a new run
        w1 = std::max(w1, w + 1);
      }
      size_t begin = w0 * 64;
      size_t end = std::min(graph.num_edges(), w1 * 64);
      buf.resize(w1 - w0);
      for (size_t v = 0; v < mc->programs.size(); ++v) {
        mc->programs[v].EvalEdges(graph, begin, end, buf.data(), scratch);
        for (size_t w = w0; w < w1; ++w) {
          // Tombstoned edges leave every view.
          ebm.SetColumnWord(v, w, buf[w - w0] & graph.edge_alive_word(w));
        }
      }
      i = j;
    }
  } else {
    // Per-edge fallback for programmatic (closure-defined) collections.
    for (EdgeId e : touched_edges) {
      bool alive = graph.edge_alive(e);
      for (size_t v = 0; v < mc->predicates.size(); ++v) {
        ebm.Set(e, v, alive && mc->predicates[v](e));
      }
    }
  }

  mc->diffs.UpdateEdges(touched_edges, ebm, mc->order);

  // Refresh metadata: sizes change with membership, the order does not.
  for (size_t t = 0; t < mc->order.size(); ++t) {
    mc->view_sizes[t] = ebm.ColumnOnes(mc->order[t]);
    mc->diff_sizes[t] = mc->diffs.DiffSize(t);
  }
  mc->total_diffs = mc->diffs.TotalDiffs();
  mc->graph_epoch = graph.mutation_epoch();
  return Status::Ok();
}

StatusOr<PropertyGraph> MaterializeFilteredView(
    const PropertyGraph& graph, const gvdl::ExprPtr& predicate,
    ThreadPool* pool) {
  GS_ASSIGN_OR_RETURN(gvdl::CompiledEdgePredicate compiled,
                      gvdl::CompiledEdgePredicate::Compile(predicate, graph));
  PropertyGraph view;
  view.AddNodes(graph.num_nodes());
  // Copy node property schema + rows.
  const PropertyTable& nt = graph.node_properties();
  for (size_t c = 0; c < nt.num_columns(); ++c) {
    GS_RETURN_IF_ERROR(view.node_properties().AddColumn(
        nt.column_name(c), nt.column(c).type()));
  }
  for (size_t r = 0; r < graph.num_nodes(); ++r) {
    std::vector<PropertyValue> row;
    row.reserve(nt.num_columns());
    for (size_t c = 0; c < nt.num_columns(); ++c) row.push_back(nt.Get(r, c));
    if (nt.num_columns() > 0) {
      GS_RETURN_IF_ERROR(view.node_properties().AppendRow(row));
    }
  }
  const PropertyTable& et = graph.edge_properties();
  for (size_t c = 0; c < et.num_columns(); ++c) {
    GS_RETURN_IF_ERROR(view.edge_properties().AddColumn(
        et.column_name(c), et.column(c).type()));
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (!graph.edge_alive(e) || !compiled.Evaluate(e)) continue;
    GS_RETURN_IF_ERROR(view.AddEdge(graph.edge(e).src, graph.edge(e).dst)
                           .status());
    if (et.num_columns() > 0) {
      std::vector<PropertyValue> row;
      row.reserve(et.num_columns());
      for (size_t c = 0; c < et.num_columns(); ++c) row.push_back(et.Get(e, c));
      GS_RETURN_IF_ERROR(view.edge_properties().AppendRow(row));
    }
  }
  return view;
}

}  // namespace gs::views
