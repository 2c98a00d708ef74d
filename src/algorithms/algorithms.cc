#include "algorithms/algorithms.h"

#include <tuple>

#include "common/logging.h"

namespace gs::analytics {

namespace dd = ::gs::differential;

using KeyedU64 = std::pair<uint64_t, uint64_t>;

namespace {

/// All distinct vertices incident to any edge.
dd::Stream<uint64_t> VerticesOf(EdgeStream edges) {
  auto endpoints =
      edges.FlatMap([](const WeightedEdge& e, std::vector<uint64_t>* out) {
        out->push_back(e.src);
        out->push_back(e.dst);
      });
  return dd::Distinct(endpoints);
}

/// Antijoin: records of `in` whose key appears in `present` are removed.
/// Implemented as in - semijoin(in, present); `present` must hold each key
/// with multiplicity exactly one (e.g. a Distinct output).
template <typename K, typename V>
dd::Stream<std::pair<K, V>> Antijoin(dd::Stream<std::pair<K, V>> in,
                                     dd::Stream<std::pair<K, bool>> present) {
  auto matched = dd::Join(
      in, present,
      [](const K& k, const V& v, const bool&) { return std::make_pair(k, v); });
  return in.Concat(matched.Negate());
}

}  // namespace

ResultStream Wcc::GraphAnalytics(EdgeStream edges) const {
  // Undirected, deduplicated adjacency (parallel edges would multiply join
  // outputs without changing the result).
  auto sym = edges.FlatMap([](const WeightedEdge& e,
                              std::vector<KeyedU64>* out) {
    out->push_back({e.src, e.dst});
    out->push_back({e.dst, e.src});
  });
  auto labels0 = VerticesOf(edges).Map(
      [](const uint64_t& v) { return std::make_pair(v, static_cast<int64_t>(v)); });
  auto propagate = [](const uint64_t&, const int64_t& label,
                      const uint64_t& dst) {
    return std::make_pair(dst, label);
  };

  // The deduplicated adjacency lives in the distinct-reduce's output
  // trace; the loop probes it by reference instead of re-indexing it.
  auto adjacency = dd::DistinctArranged(sym);
  return dd::Iterate<VertexValue>(
      labels0, [&](dd::LoopScope& scope, dd::Stream<VertexValue> inner) {
        auto adj_in = adjacency.Enter(scope);
        auto labels0_in = scope.Enter(labels0);
        auto messages = dd::JoinArranged(inner, adj_in, propagate);
        return dd::ReduceMin(messages.Concat(labels0_in));
      });
}

ResultStream Bfs::GraphAnalytics(EdgeStream edges) const {
  auto hops = edges.Map(
      [](const WeightedEdge& e) { return KeyedU64{e.src, e.dst}; });
  // The root exists only if the source has an outgoing edge in this view —
  // the paper picks the first vertex with an outgoing edge.
  VertexId source = source_;
  auto roots = dd::Distinct(
      edges.Filter([source](const WeightedEdge& e) { return e.src == source; })
          .Map([source](const WeightedEdge&) {
            return std::make_pair(source, int64_t{0});
          }));
  auto step = [](const uint64_t&, const int64_t& dist, const uint64_t& dst) {
    return std::make_pair(dst, dist + 1);
  };

  auto adjacency = dd::DistinctArranged(hops);
  return dd::Iterate<VertexValue>(
      roots, [&](dd::LoopScope& scope, dd::Stream<VertexValue> inner) {
        auto adj_in = adjacency.Enter(scope);
        auto roots_in = scope.Enter(roots);
        auto messages = dd::JoinArranged(inner, adj_in, step);
        return dd::ReduceMin(messages.Concat(roots_in));
      });
}

ResultStream BellmanFord::GraphAnalytics(EdgeStream edges) const {
  // Keep (dst, weight) pairs distinct — parallel equal-weight edges dedupe,
  // different weights both participate and ReduceMin picks the best.
  auto weighted = edges.Map([](const WeightedEdge& e) {
    return std::make_pair(e.src, std::make_pair(e.dst, e.weight));
  });
  VertexId source = source_;
  auto roots = dd::Distinct(
      edges.Filter([source](const WeightedEdge& e) { return e.src == source; })
          .Map([source](const WeightedEdge&) {
            return std::make_pair(source, int64_t{0});
          }));
  auto relax = [](const uint64_t&, const int64_t& dist,
                  const std::pair<uint64_t, int64_t>& edge) {
    return std::make_pair(edge.first, dist + edge.second);
  };

  auto adjacency = dd::DistinctArranged(weighted);
  return dd::Iterate<VertexValue>(
      roots, [&](dd::LoopScope& scope, dd::Stream<VertexValue> inner) {
        auto adj_in = adjacency.Enter(scope);
        auto roots_in = scope.Enter(roots);
        auto messages = dd::JoinArranged(inner, adj_in, relax);
        return dd::ReduceMin(messages.Concat(roots_in));
      });
}

ResultStream PageRank::GraphAnalytics(EdgeStream edges) const {
  GS_CHECK(iterations_ >= 1);
  // Out-edges keep multiplicity: each parallel edge carries its own share.
  auto out_edges = edges.Map(
      [](const WeightedEdge& e) { return KeyedU64{e.src, e.dst}; });
  auto base_ranks = VerticesOf(edges).Map([](const uint64_t& v) {
    return std::make_pair(v, Base());
  });
  auto to_share = [](const uint64_t& v, const int64_t& rank,
                     const int64_t& deg) {
    return std::make_pair(v, Damp(rank) / deg);
  };
  auto to_contribution = [](const uint64_t&, const int64_t& share,
                            const uint64_t& dst) {
    return std::make_pair(dst, share);
  };
  // rank = base + Σ contributions. The weight step moves the base rank and
  // each share into its update's diff, so an additive reduce keeps one
  // running total per vertex and iteration. Base() > 0 and every share is
  // ≥ 0, so a live vertex's total is never the 0 that would emit nothing.
  auto as_weight = [](const int64_t& rank) { return rank; };
  auto sum_ranks = [](const uint64_t&, dd::Diff total,
                      dd::Batch<int64_t>* out) {
    out->push_back(dd::Update<int64_t>{total, 1});
  };

  dd::IterateOptions options;
  options.max_iterations = iterations_ - 1;

  // The edge set is arranged once; the same trace backs the degree count
  // and the contribution join, and the degree count's output trace backs
  // the share join — no operator-private edge or degree index remains.
  auto edges_arr = dd::Arrange(out_edges);
  auto degrees_arr = dd::CountArranged(edges_arr);  // (v, outdeg)
  return dd::Iterate<VertexValue>(
      base_ranks,
      [&](dd::LoopScope& scope, dd::Stream<VertexValue> ranks) {
        auto degrees_in = degrees_arr.Enter(scope);
        auto edges_in = edges_arr.Enter(scope);
        auto base_in = scope.Enter(base_ranks);
        // Per-vertex share of its rank along each out-edge.
        auto shares = dd::JoinArranged(ranks, degrees_in, to_share);
        auto contributions =
            dd::JoinArranged(shares, edges_in, to_contribution);
        return dd::Reduce<int64_t>(
            dd::Weigh(contributions.Concat(base_in), as_weight), sum_ranks);
      },
      options);
}

ResultStream Mpsp::GraphAnalytics(EdgeStream edges) const {
  GS_CHECK(pairs_.size() <= kMaxPairs) << "MPSP supports at most 256 pairs";
  using Tagged = std::pair<uint64_t, std::pair<int64_t, int64_t>>;

  auto weighted = edges.Map([](const WeightedEdge& e) {
    return std::make_pair(e.src, std::make_pair(e.dst, e.weight));
  });

  // One root per pair whose source has an outgoing edge, tagged with the
  // pair index so propagations stay independent.
  dd::Stream<Tagged> roots;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    VertexId source = pairs_[i].first;
    auto root_i = dd::Distinct(
        edges
            .Filter(
                [source](const WeightedEdge& e) { return e.src == source; })
            .Map([source, i](const WeightedEdge&) {
              return Tagged{source, {static_cast<int64_t>(i), 0}};
            }));
    roots = roots.valid() ? roots.Concat(root_i) : root_i;
  }
  if (!roots.valid()) {
    // No pairs: an empty result stream derived from the edges.
    return edges.Filter([](const WeightedEdge&) { return false; })
        .Map([](const WeightedEdge& e) {
          return std::make_pair(e.src, int64_t{0});
        });
  }

  auto relax = [](const uint64_t&, const std::pair<int64_t, int64_t>& tag_dist,
                  const std::pair<uint64_t, int64_t>& edge) {
    return Tagged{edge.first, {tag_dist.first, tag_dist.second + edge.second}};
  };

  auto adjacency = dd::DistinctArranged(weighted);
  auto dists = dd::Iterate<Tagged>(
      roots, [&](dd::LoopScope& scope, dd::Stream<Tagged> inner) {
        auto adj_in = adjacency.Enter(scope);
        auto messages = dd::JoinArranged(inner, adj_in, relax);
        auto roots_in = scope.Enter(roots);
        // Min distance per (vertex, pair-index).
        auto keyed = messages.Concat(roots_in).Map([](const Tagged& t) {
          return std::make_pair(PackKey(t.first, t.second.first),
                                t.second.second);
        });
        auto best = dd::ReduceMin(keyed);
        return best.Map([](const VertexValue& kv) {
          return Tagged{
              UnpackVertex(kv.first),
              {static_cast<int64_t>(UnpackPair(kv.first)), kv.second}};
        });
      });
  return dists.Map([](const Tagged& t) {
    return std::make_pair(PackKey(t.first, t.second.first), t.second.second);
  });
}

ResultStream Scc::GraphAnalytics(EdgeStream edges) const {
  // The outer loop variable carries tagged records: kind 0 = an active edge
  // (src, dst) of the not-yet-settled subgraph, kind 1 = a final assignment
  // (vertex, scc-id). Assignments ride along unchanged once produced, so
  // the loop's final value contains the union over all peeling rounds —
  // an egress of the per-round members alone would be retracted when the
  // next round's shrunken active set recomputes them.
  using SccRec = std::tuple<int64_t, uint64_t, int64_t>;
  static constexpr int64_t kEdge = 0;
  static constexpr int64_t kAssign = 1;

  // Active subgraph representation: real edges plus a self-loop marker per
  // active vertex (markers keep vertices alive after their edges settle).
  auto base_edges = edges.Map(
      [](const WeightedEdge& e) { return KeyedU64{e.src, e.dst}; });
  auto markers = VerticesOf(edges).Map(
      [](const uint64_t& v) { return KeyedU64{v, v}; });
  auto active0 = dd::Distinct(base_edges.Concat(markers));
  auto state0 = active0.Map([](const KeyedU64& e) {
    return SccRec{kEdge, e.first, static_cast<int64_t>(e.second)};
  });

  auto final_state = dd::Iterate<SccRec>(
      state0, [&](dd::LoopScope& outer, dd::Stream<SccRec> state) {
        auto active = state
                          .Filter([](const SccRec& r) {
                            return std::get<0>(r) == kEdge;
                          })
                          .Map([](const SccRec& r) {
                            return KeyedU64{
                                std::get<1>(r),
                                static_cast<uint64_t>(std::get<2>(r))};
                          });
        auto carried_assignments = state.Filter(
            [](const SccRec& r) { return std::get<0>(r) == kAssign; });
        auto vertices = dd::Distinct(
            active.FlatMap([](const KeyedU64& e, std::vector<uint64_t>* out) {
              out->push_back(e.first);
              out->push_back(e.second);
            }));
        auto init_colors = vertices.Map([](const uint64_t& v) {
          return std::make_pair(v, static_cast<int64_t>(v));
        });

        auto move_color = [](const uint64_t&, const int64_t& color,
                             const uint64_t& dst) {
          return std::make_pair(dst, color);
        };
        auto attach_src_color = [](const uint64_t& src, const uint64_t& dst,
                                   const int64_t& color) {
          return std::make_pair(dst, std::make_pair(src, color));
        };
        auto compare_colors = [](const uint64_t& dst,
                                 const std::pair<uint64_t, int64_t>& src_col,
                                 const int64_t& dst_color) {
          return std::make_tuple(dst, src_col.first,
                                 src_col.second == dst_color);
        };
        auto keep_same_color =
            [](const std::tuple<uint64_t, uint64_t, bool>& t) {
              return std::get<2>(t);
            };
        auto reverse_edge = [](const std::tuple<uint64_t, uint64_t, bool>& t) {
          return KeyedU64{std::get<0>(t), std::get<1>(t)};
        };
        auto move_member = [](const uint64_t&, const int64_t& color,
                              const uint64_t& upstream) {
          return std::make_pair(upstream, color);
        };

        // Inner loop 1: forward color propagation — col(v) = max id with a
        // path to v in the active subgraph. Then edges whose endpoints share
        // a color (membership may only flow through them), reversed for
        // backward propagation: (dst, src). The active edge set is indexed
        // once per peeling round and shared between the color loop and the
        // src-color join, and the color collection is arranged once for
        // both sides of the same-color test.
        auto active_arr = dd::Arrange(active);
        auto colors = dd::Iterate<VertexValue>(
            init_colors,
            [&](dd::LoopScope& inner, dd::Stream<VertexValue> c) {
              auto edges_in = active_arr.Enter(inner);
              auto init_in = inner.Enter(init_colors);
              auto moved = dd::JoinArranged(c, edges_in, move_color);
              return dd::ReduceMax(moved.Concat(init_in));
            });
        auto colors_arr = dd::Arrange(colors);
        auto with_src_color =
            dd::JoinArranged(active_arr, colors_arr, attach_src_color);
        auto same_color_rev =
            dd::JoinArranged(with_src_color, colors_arr, compare_colors)
                .Filter(keep_same_color)
                .Map(reverse_edge);

        // Roots: vertices that are their own color.
        auto roots = colors.Filter([](const VertexValue& vc) {
          return vc.first == static_cast<uint64_t>(vc.second);
        });

        // Inner loop 2: backward membership — v joins the SCC of color c if
        // some same-color edge (v, w) has member w.
        auto rev_arr = dd::Arrange(same_color_rev);
        auto members = dd::Iterate<VertexValue>(
            roots, [&](dd::LoopScope& inner, dd::Stream<VertexValue> m) {
              auto rev_in = rev_arr.Enter(inner);
              auto roots_in = inner.Enter(roots);
              auto moved = dd::JoinArranged(m, rev_in, move_member);
              return dd::ReduceMin(moved.Concat(roots_in));
            });

        // Remove settled vertices: antijoin on src, then on dst.
        auto settled = members.Map([](const VertexValue& vc) {
          return std::make_pair(vc.first, true);
        });
        auto pruned_src = Antijoin(active, settled);
        auto by_dst = pruned_src.Map(
            [](const KeyedU64& e) { return KeyedU64{e.second, e.first}; });
        auto pruned = Antijoin(by_dst, settled).Map([](const KeyedU64& e) {
          return KeyedU64{e.second, e.first};
        });

        // Next state: remaining edges + carried and newly settled vertices.
        auto pruned_tagged = pruned.Map([](const KeyedU64& e) {
          return SccRec{kEdge, e.first, static_cast<int64_t>(e.second)};
        });
        auto new_assignments = members.Map([](const VertexValue& vc) {
          return SccRec{kAssign, vc.first, vc.second};
        });
        return pruned_tagged.Concat(carried_assignments)
            .Concat(new_assignments);
      });

  return final_state
      .Filter([](const SccRec& r) { return std::get<0>(r) == kAssign; })
      .Map([](const SccRec& r) {
        return std::make_pair(std::get<1>(r), std::get<2>(r));
      });
}

}  // namespace gs::analytics
