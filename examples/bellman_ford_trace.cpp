// The paper's running differential example (Figure 2 / Figure 3 /
// Table 1): Bellman-Ford shortest paths maintained across three versions
// of a tiny weighted graph, printing the output difference sets. Observe
// that after version G0 only O(1) differences flow, regardless of how much
// unrelated graph surrounds the changed edges.
//
// Build & run:  ./build/examples/bellman_ford_trace
#include <cstdio>

#include "algorithms/algorithms.h"
#include "differential/differential.h"
#include "graph/types.h"

namespace dd = gs::differential;

int main() {
  // Vertices: 0 = s, 1 = w1, 2 = w2, 3 = w3 — plus an unrelated component
  // (the paper's "billions of z_jk vertices", scaled down) that the updates
  // never touch.
  dd::Dataflow df;
  dd::Input<gs::WeightedEdge> edges(&df);
  gs::analytics::BellmanFord bf(/*source=*/0);
  auto result = bf.GraphAnalytics(edges.stream());
  auto* capture = dd::Capture(result.InspectBatches(
      [](const dd::Time& t, const dd::Batch<gs::analytics::VertexValue>& b) {
        for (const auto& u : b) {
          std::printf("  δD %s (v%llu, dist %lld) %+lld\n",
                      t.ToString().c_str(),
                      static_cast<unsigned long long>(u.data.first),
                      static_cast<long long>(u.data.second),
                      static_cast<long long>(u.diff));
        }
      }));
  (void)capture;

  std::printf("G0: s->w1 cost 2, s->w2 cost 10, w1->w2 cost 2, w2->w3 cost "
              "2, plus an untouched 1000-vertex chain\n");
  edges.Send({0, 1, 2}, 1);
  edges.Send({0, 2, 10}, 1);
  edges.Send({1, 2, 2}, 1);
  edges.Send({2, 3, 2}, 1);
  // The unrelated z-chain, rooted at s so it has distances too.
  edges.Send({0, 100, 1}, 1);
  for (gs::VertexId z = 100; z < 1100; ++z) edges.Send({z, z + 1, 1}, 1);
  GS_CHECK(df.Step().ok());
  uint64_t updates_g0 = df.stats().updates_published;
  std::printf("(G0 published %llu update records)\n\n",
              static_cast<unsigned long long>(updates_g0));

  std::printf("G1: change (s,w1) cost 2 -> 1 (Table 1, column G1)\n");
  edges.Send({0, 1, 2}, -1);
  edges.Send({0, 1, 1}, 1);
  GS_CHECK(df.Step().ok());
  uint64_t updates_g1 = df.stats().updates_published - updates_g0;
  std::printf("(G1 published %llu update records — the z-chain was never "
              "revisited)\n\n",
              static_cast<unsigned long long>(updates_g1));

  std::printf("G2: change (s,w2) cost 10 -> 1 (Table 1, column G2)\n");
  edges.Send({0, 2, 10}, -1);
  edges.Send({0, 2, 1}, 1);
  GS_CHECK(df.Step().ok());
  uint64_t updates_g2 =
      df.stats().updates_published - updates_g0 - updates_g1;
  std::printf("(G2 published %llu update records)\n",
              static_cast<unsigned long long>(updates_g2));
  return 0;
}
