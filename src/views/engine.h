// The differential computation instance shared by the batch executor
// (executor.cc) and the live view-collection runner (live.h): a
// ShardedDataflow with the computation's dataflow built once per worker
// shard, hash-partitioned edge inputs, and consolidated cross-shard result
// captures.
#ifndef GRAPHSURGE_VIEWS_ENGINE_H_
#define GRAPHSURGE_VIEWS_ENGINE_H_

#include <vector>

#include "algorithms/computation.h"
#include "common/hash.h"
#include "differential/differential.h"
#include "graph/types.h"

namespace gs::views::detail {

/// One differential computation instance. A "split" (scratch run) discards
/// the previous instance and seeds a new one with the full view.
///
/// The instance is a ShardedDataflow of options.num_workers worker shards;
/// the computation's dataflow is built once per shard (Computations are pure
/// builders) and input edges are hash-partitioned across the shards'
/// inputs. Results live wherever the final keyed operator placed them, so
/// per-version output is the consolidated union of all shards' captures —
/// byte-identical to a single-worker run (DESIGN.md §3.1; the consolidated
/// per-version difference set is execution-order independent).
struct Engine {
  differential::ShardedDataflow dataflow;
  std::vector<differential::Input<WeightedEdge>> edges;
  std::vector<differential::CaptureOp<analytics::VertexValue>*> captures;

  Engine(const analytics::Computation& computation,
         const differential::DataflowOptions& options)
      : dataflow(options) {
    edges.reserve(dataflow.num_workers());
    captures.reserve(dataflow.num_workers());
    for (size_t w = 0; w < dataflow.num_workers(); ++w) {
      edges.emplace_back(dataflow.worker(w));
      captures.push_back(differential::Capture(
          computation.GraphAnalytics(edges[w].stream())));
    }
  }

  void Send(const WeightedEdge& edge, differential::Diff diff) {
    edges[dataflow.OwnerOfHash(HashValue(edge))].Send(edge, diff);
  }

  Status Step() { return dataflow.Step(); }

  /// Seals a graph-update epoch on every shard (full trace compaction; see
  /// Dataflow::SealEpoch). Live runs call this after the last view of each
  /// epoch was stepped.
  void SealEpoch() { dataflow.SealEpoch(); }

  differential::Batch<analytics::VertexValue> VersionDiffs(
      uint32_t version) const {
    differential::Batch<analytics::VertexValue> all;
    for (const auto* capture : captures) {
      differential::Batch<analytics::VertexValue> b =
          capture->VersionDiffs(version);
      all.insert(all.end(), b.begin(), b.end());
    }
    differential::Consolidate(&all);
    return all;
  }

  differential::Batch<analytics::VertexValue> AccumulatedAt(
      uint32_t version) const {
    differential::Batch<analytics::VertexValue> all;
    for (const auto* capture : captures) {
      differential::Batch<analytics::VertexValue> b =
          capture->AccumulatedAt(version);
      all.insert(all.end(), b.begin(), b.end());
    }
    differential::Consolidate(&all);
    return all;
  }
};

}  // namespace gs::views::detail

#endif  // GRAPHSURGE_VIEWS_ENGINE_H_
