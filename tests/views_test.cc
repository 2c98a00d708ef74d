// EBM computation, difference streams, and collection materialization.
#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "graph/generators.h"
#include "gvdl/parser.h"
#include "gvdl/predicate.h"
#include "views/collection.h"
#include "views/diff_stream.h"
#include "views/ebm.h"

namespace gs::views {
namespace {

gvdl::ExprPtr Pred(const std::string& text) {
  auto p = gvdl::ParsePredicate(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

TEST(EbmTest, ComputeMatchesDirectEvaluation) {
  PropertyGraph g = MakeCallGraphExample();
  std::vector<gvdl::ExprPtr> preds = {Pred("year = 2019"),
                                      Pred("duration <= 10"),
                                      Pred("src.city = 'LA'")};
  auto ebm = EdgeBooleanMatrix::Compute(g, preds, nullptr);
  ASSERT_TRUE(ebm.ok()) << ebm.status().ToString();
  for (size_t v = 0; v < preds.size(); ++v) {
    auto compiled = gvdl::CompiledEdgePredicate::Compile(preds[v], g);
    ASSERT_TRUE(compiled.ok());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(ebm->Get(e, v), compiled->Evaluate(e))
          << "edge " << e << " view " << v;
    }
  }
}

TEST(EbmTest, ParallelComputeMatchesSerial) {
  TemporalGraphOptions topts;
  topts.num_nodes = 200;
  topts.num_edges = 5000;
  PropertyGraph g = GenerateTemporalGraph(topts);
  std::vector<gvdl::ExprPtr> preds;
  for (int i = 1; i <= 7; ++i) {
    preds.push_back(
        Pred("timestamp <= " + std::to_string(i * 120000)));
  }
  auto serial = EdgeBooleanMatrix::Compute(g, preds, nullptr);
  ThreadPool pool(4);
  auto parallel = EdgeBooleanMatrix::Compute(g, preds, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  for (size_t v = 0; v < preds.size(); ++v) {
    EXPECT_EQ(serial->ColumnOnes(v), parallel->ColumnOnes(v));
    EXPECT_EQ(serial->HammingDistance(v, (v + 1) % preds.size()),
              parallel->HammingDistance(v, (v + 1) % preds.size()));
  }
}

TEST(EbmTest, HammingAndDifferenceCount) {
  // Figure 5's example matrix: 5 edges × 3 views.
  EdgeBooleanMatrix ebm(5, 3);
  // Columns: GV1 = {e0,e1,e4}, GV2 = {e3,e4}, GV3 = {e1,e2,e3,e4}.
  for (EdgeId e : {0, 1, 4}) ebm.Set(e, 0, true);
  for (EdgeId e : {3, 4}) ebm.Set(e, 1, true);
  for (EdgeId e : {1, 2, 3, 4}) ebm.Set(e, 2, true);

  EXPECT_EQ(ebm.ColumnOnes(0), 3u);
  EXPECT_EQ(ebm.HammingDistance(0, 1), 3u);  // e0,e1 leave; e3 enters
  EXPECT_EQ(ebm.HammingDistance(1, 2), 2u);
  EXPECT_EQ(ebm.HammingDistance(0, EdgeBooleanMatrix::kZeroColumn), 3u);

  // Figure 5b: difference stream for order (GV1, GV2, GV3) has 8 diffs.
  EXPECT_EQ(ebm.DifferenceCount({0, 1, 2}), 8u);
  // ds = |GV1| + H(1,2) + H(2,3) = 3 + 3 + 2.
  EXPECT_EQ(ebm.DifferenceCount({2, 1, 0}), 4u + 2u + 3u);
}

TEST(DiffStreamTest, MatchesFigure5) {
  EdgeBooleanMatrix ebm(5, 3);
  for (EdgeId e : {0, 1, 4}) ebm.Set(e, 0, true);
  for (EdgeId e : {3, 4}) ebm.Set(e, 1, true);
  for (EdgeId e : {1, 2, 3, 4}) ebm.Set(e, 2, true);

  auto stream = EdgeDifferenceStream::FromMatrix(ebm, {0, 1, 2}, nullptr);
  ASSERT_EQ(stream.num_views(), 3u);
  // δC1 = +e0 +e1 +e4; δC2 = -e0 -e1 +e3; δC3 = +e1 +e2.
  EXPECT_EQ(stream.ViewDiffs(0),
            (std::vector<EdgeDiff>{{0, 1}, {1, 1}, {4, 1}}));
  EXPECT_EQ(stream.ViewDiffs(1),
            (std::vector<EdgeDiff>{{0, -1}, {1, -1}, {3, 1}}));
  EXPECT_EQ(stream.ViewDiffs(2), (std::vector<EdgeDiff>{{1, 1}, {2, 1}}));
  EXPECT_EQ(stream.TotalDiffs(), 8u);
}

TEST(DiffStreamTest, ReconstructionInvariant) {
  // Property: accumulating δC through t reproduces exactly the edges whose
  // EBM bit is set for the view at position t — for random matrices and
  // random orders.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    size_t edges = 1 + rng.Index(200);
    size_t views = 1 + rng.Index(8);
    EdgeBooleanMatrix ebm(edges, views);
    for (EdgeId e = 0; e < edges; ++e) {
      for (size_t v = 0; v < views; ++v) {
        ebm.Set(e, v, rng.Bernoulli(0.4));
      }
    }
    std::vector<size_t> order(views);
    std::iota(order.begin(), order.end(), size_t{0});
    rng.Shuffle(&order);

    auto stream = EdgeDifferenceStream::FromMatrix(ebm, order, nullptr);
    EXPECT_EQ(stream.TotalDiffs(), ebm.DifferenceCount(order));
    for (size_t t = 0; t < views; ++t) {
      std::vector<EdgeId> expected;
      for (EdgeId e = 0; e < edges; ++e) {
        if (ebm.Get(e, order[t])) expected.push_back(e);
      }
      EXPECT_EQ(stream.Reconstruct(t), expected)
          << "trial " << trial << " view position " << t;
    }
  }
}

TEST(DiffStreamTest, ParallelMatchesSerial) {
  Rng rng(9);
  EdgeBooleanMatrix ebm(5000, 6);
  for (EdgeId e = 0; e < 5000; ++e) {
    for (size_t v = 0; v < 6; ++v) ebm.Set(e, v, rng.Bernoulli(0.3));
  }
  std::vector<size_t> order = {3, 1, 5, 0, 2, 4};
  auto serial = EdgeDifferenceStream::FromMatrix(ebm, order, nullptr);
  ThreadPool pool(4);
  auto parallel = EdgeDifferenceStream::FromMatrix(ebm, order, &pool);
  ASSERT_EQ(serial.num_views(), parallel.num_views());
  for (size_t t = 0; t < order.size(); ++t) {
    EXPECT_EQ(serial.Reconstruct(t), parallel.Reconstruct(t));
  }
}

TEST(CollectionTest, MaterializeListing3StyleCollection) {
  PropertyGraph g = MakeCallGraphExample();
  auto stmt = gvdl::Parse(
      "create view collection call-analysis on Calls "
      "[D5: duration <= 5], [D15: duration <= 15], [D34: duration <= 34]");
  ASSERT_TRUE(stmt.ok());
  const auto& def = std::get<gvdl::ViewCollectionDef>(*stmt);
  MaterializeOptions opts;
  auto mc = MaterializeCollection(g, def, opts);
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();
  EXPECT_EQ(mc->num_views(), 3u);
  EXPECT_EQ(mc->base_graph, "Calls");
  // Inclusion chain: only additions after the first view.
  EXPECT_EQ(mc->view_sizes[2], g.num_edges());
  EXPECT_EQ(mc->total_diffs, g.num_edges());
  EXPECT_EQ(mc->view_names[0], "D5");
  EXPECT_GT(mc->creation_seconds, 0.0);
}

TEST(CollectionTest, ExplicitOrderIsRespected) {
  PropertyGraph g = MakeCallGraphExample();
  auto stmt = gvdl::Parse(
      "create view collection c on Calls "
      "[a: duration <= 5], [b: duration <= 15], [c: duration <= 34]");
  ASSERT_TRUE(stmt.ok());
  const auto& def = std::get<gvdl::ViewCollectionDef>(*stmt);
  MaterializeOptions opts;
  opts.explicit_order = {2, 0, 1};
  auto mc = MaterializeCollection(g, def, opts);
  ASSERT_TRUE(mc.ok());
  EXPECT_EQ(mc->view_names,
            (std::vector<std::string>{"c", "a", "b"}));
}

TEST(CollectionTest, FromDiffBatches) {
  std::vector<std::vector<EdgeDiff>> batches = {
      {{0, 1}, {1, 1}, {2, 1}},
      {{1, -1}, {3, 1}},
  };
  auto mc = CollectionFromDiffBatches("perturb", "G", batches);
  EXPECT_EQ(mc.num_views(), 2u);
  EXPECT_EQ(mc.view_sizes, (std::vector<uint64_t>{3, 3}));
  EXPECT_EQ(mc.diff_sizes, (std::vector<uint64_t>{3, 2}));
  EXPECT_EQ(mc.diffs.Reconstruct(1), (std::vector<EdgeId>{0, 2, 3}));
}

TEST(CollectionTest, MaterializeFilteredViewSubgraph) {
  PropertyGraph g = MakeCallGraphExample();
  auto view = MaterializeFilteredView(g, Pred("year = 2019"), nullptr);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->num_nodes(), g.num_nodes());
  EXPECT_EQ(view->num_edges(), 8u);
  for (EdgeId e = 0; e < view->num_edges(); ++e) {
    EXPECT_EQ(view->edge_properties().GetByName(e, "year")->AsInt(), 2019);
  }
}

// A filtered view selects edges with the collections' batch evaluator; it
// must keep exactly the live edges the scalar reference selects, NULL cells
// and tombstones included, and reject what the reference rejects.
TEST(CollectionTest, FilteredViewMatchesScalarReferenceOnNullsAndTombstones) {
  PropertyGraph g;
  ASSERT_TRUE(
      g.node_properties().AddColumn("city", PropertyType::kString).ok());
  ASSERT_TRUE(g.edge_properties().AddColumn("year", PropertyType::kInt).ok());
  const size_t kNodes = 20;
  g.AddNodes(kNodes);
  for (size_t v = 0; v < kNodes; ++v) {
    // Every fifth city is NULL.
    PropertyValue city = v % 5 == 0 ? PropertyValue()
                                    : PropertyValue(v % 2 ? "LA" : "NY");
    ASSERT_TRUE(g.node_properties().AppendRow({city}).ok());
  }
  Rng rng(7);
  const size_t kEdges = 200;  // several 64-edge words, so the pool splits
  for (size_t i = 0; i < kEdges; ++i) {
    auto e = g.AddEdge(static_cast<VertexId>(rng.Index(kNodes)),
                       static_cast<VertexId>(rng.Index(kNodes)));
    ASSERT_TRUE(e.ok());
    // Every third year is NULL.
    const int64_t year_value = 2010 + static_cast<int64_t>(i % 12);
    PropertyValue year =
        i % 3 == 0 ? PropertyValue() : PropertyValue(year_value);
    ASSERT_TRUE(g.edge_properties().AppendRow({year}).ok());
  }
  ASSERT_TRUE(g.RemoveEdge(4).ok());
  ASSERT_TRUE(g.RemoveEdge(130).ok());

  ThreadPool pool(2);
  for (const char* text : {"year >= 2015", "src.city = dst.city",
                           "not year = 2019",
                           "year < 2013 or src.city = 'LA'"}) {
    auto view = MaterializeFilteredView(g, Pred(text), &pool);
    ASSERT_TRUE(view.ok()) << text << ": " << view.status().ToString();
    auto scalar = gvdl::CompiledEdgePredicate::Compile(Pred(text), g);
    ASSERT_TRUE(scalar.ok()) << text;
    std::vector<EdgeId> want;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (g.edge_alive(e) && scalar->Evaluate(e)) want.push_back(e);
    }
    ASSERT_EQ(view->num_edges(), want.size()) << text;
    for (EdgeId e = 0; e < view->num_edges(); ++e) {
      const EdgeId base = want[e];
      EXPECT_EQ(view->edge(e).src, g.edge(base).src) << text;
      EXPECT_EQ(view->edge(e).dst, g.edge(base).dst) << text;
      // ToString: PropertyValue's == is false for two NULLs.
      EXPECT_EQ(view->edge_properties().Get(e, 0).ToString(),
                g.edge_properties().Get(base, 0).ToString())
          << text;
    }
  }

  auto view = MaterializeFilteredView(g, Pred("nosuch > 1"), &pool);
  auto scalar = gvdl::CompiledEdgePredicate::Compile(Pred("nosuch > 1"), g);
  ASSERT_FALSE(view.ok());
  ASSERT_FALSE(scalar.ok());
  EXPECT_EQ(view.status().ToString(), scalar.status().ToString());
}

}  // namespace
}  // namespace gs::views
