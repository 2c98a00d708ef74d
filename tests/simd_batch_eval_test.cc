// Batch data plane cross-checks: the mask compare kernels against a
// per-row reference on randomized arrays (including NaNs, infinities, -0.0
// and integer extremes), and the batch predicate evaluator against the
// per-edge scalar compiler on randomized property tables with NULL cells,
// string prefix ties, and tombstoned edges.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "graph/graph.h"
#include "graph/mutation.h"
#include "gvdl/batch_eval.h"
#include "gvdl/parser.h"
#include "gvdl/predicate.h"
#include "views/collection.h"
#include "views/ebm.h"

namespace gs {
namespace {

constexpr simd::Cmp kAllOps[] = {simd::Cmp::kEq, simd::Cmp::kNe,
                                 simd::Cmp::kLt, simd::Cmp::kLe,
                                 simd::Cmp::kGt, simd::Cmp::kGe};

const size_t kLengths[] = {0, 1, 7, 63, 64, 65, 127, 128, 1000};

/// The ordered three-way compare of the kernel contract: a NaN on either
/// side is neither less nor greater, so it lands in "equal".
template <typename T>
int ThreeWay(T a, T b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

/// Per-row reference mask: bit i is ApplyCmp(op, three_way(i)). One extra
/// sentinel word of all ones follows the MaskWords(n) words; a kernel
/// writing past its last word would clobber it.
template <typename ThreeWayOfRow>
std::vector<uint64_t> ReferenceMask(size_t n, simd::Cmp op,
                                    ThreeWayOfRow&& three_way) {
  std::vector<uint64_t> mask(simd::MaskWords(n) + 1, 0);
  mask.back() = ~uint64_t{0};
  for (size_t i = 0; i < n; ++i) {
    if (simd::ApplyCmp(op, three_way(i))) {
      mask[i / 64] |= uint64_t{1} << (i % 64);
    }
  }
  return mask;
}

TEST(SimdKernelTest, I64MatchesPerRowReference) {
  Rng rng(7);
  for (size_t n : kLengths) {
    std::vector<int64_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      // Small range forces plenty of equal rows; sprinkle in extremes.
      a[i] = rng.Uniform(-4, 4);
      b[i] = rng.Uniform(-4, 4);
      if (rng.Bernoulli(0.05)) a[i] = std::numeric_limits<int64_t>::min();
      if (rng.Bernoulli(0.05)) b[i] = std::numeric_limits<int64_t>::max();
    }
    for (simd::Cmp op : kAllOps) {
      std::vector<uint64_t> got(simd::MaskWords(n) + 1, ~uint64_t{0});
      simd::CmpI64Const(a.data(), n, op, int64_t{2}, got.data());
      EXPECT_EQ(got, ReferenceMask(n, op, [&](size_t i) {
                  return ThreeWay(a[i], int64_t{2});
                }))
          << "I64Const n=" << n << " op=" << int(op);
      simd::CmpI64Pairs(a.data(), b.data(), n, op, got.data());
      EXPECT_EQ(got, ReferenceMask(n, op, [&](size_t i) {
                  return ThreeWay(a[i], b[i]);
                }))
          << "I64Pairs n=" << n << " op=" << int(op);
    }
  }
}

TEST(SimdKernelTest, U64MatchesPerRowReference) {
  Rng rng(8);
  for (size_t n : kLengths) {
    std::vector<uint64_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      // Values straddling the sign bit: unsigned order must not be read as
      // signed order.
      a[i] = static_cast<uint64_t>(rng.Uniform(-3, 3)) +
             (rng.Bernoulli(0.5) ? (uint64_t{1} << 63) : 0);
      b[i] = static_cast<uint64_t>(rng.Uniform(-3, 3)) +
             (rng.Bernoulli(0.5) ? (uint64_t{1} << 63) : 0);
    }
    for (simd::Cmp op : kAllOps) {
      std::vector<uint64_t> got(simd::MaskWords(n) + 1, ~uint64_t{0});
      simd::CmpU64Const(a.data(), n, op, uint64_t{1} << 63, got.data());
      EXPECT_EQ(got, ReferenceMask(n, op, [&](size_t i) {
                  return ThreeWay(a[i], uint64_t{1} << 63);
                }))
          << "U64Const n=" << n << " op=" << int(op);
      simd::CmpU64Pairs(a.data(), b.data(), n, op, got.data());
      EXPECT_EQ(got, ReferenceMask(n, op, [&](size_t i) {
                  return ThreeWay(a[i], b[i]);
                }))
          << "U64Pairs n=" << n << " op=" << int(op);
    }
  }
}

TEST(SimdKernelTest, F64MatchesPerRowReferenceIncludingNaN) {
  Rng rng(9);
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (size_t n : kLengths) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(-3, 3) * 0.5;
      b[i] = rng.Uniform(-3, 3) * 0.5;
      if (rng.Bernoulli(0.1)) a[i] = kNaN;
      if (rng.Bernoulli(0.1)) b[i] = kNaN;
      if (rng.Bernoulli(0.05)) a[i] = kInf;
      if (rng.Bernoulli(0.05)) b[i] = -kInf;
      if (rng.Bernoulli(0.05)) a[i] = -0.0;
    }
    for (simd::Cmp op : kAllOps) {
      std::vector<uint64_t> got(simd::MaskWords(n) + 1, ~uint64_t{0});
      simd::CmpF64Const(a.data(), n, op, 0.5, got.data());
      EXPECT_EQ(got, ReferenceMask(n, op, [&](size_t i) {
                  return ThreeWay(a[i], 0.5);
                }))
          << "F64Const n=" << n << " op=" << int(op);
      simd::CmpF64Pairs(a.data(), b.data(), n, op, got.data());
      EXPECT_EQ(got, ReferenceMask(n, op, [&](size_t i) {
                  return ThreeWay(a[i], b[i]);
                }))
          << "F64Pairs n=" << n << " op=" << int(op);
    }
  }
}

TEST(SimdKernelTest, BytesNonZeroMatchesPerRowReference) {
  Rng rng(10);
  for (size_t n : kLengths) {
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = rng.Bernoulli(0.5) ? static_cast<uint8_t>(rng.Uniform(1, 255))
                                : 0;
    }
    std::vector<uint64_t> got(simd::MaskWords(n) + 1, ~uint64_t{0});
    simd::BytesNonZero(v.data(), n, got.data());
    // "Non-zero" is "not equal to zero" under the same per-row rule.
    EXPECT_EQ(got, ReferenceMask(n, simd::Cmp::kNe, [&](size_t i) {
                return ThreeWay(v[i], uint8_t{0});
              }))
        << "BytesNonZero n=" << n;
  }
}

TEST(SimdKernelTest, StringPrefixOrdersLikeStringCompare) {
  // On strings whose first 8 bytes differ, the big-endian prefix compares
  // (as unsigned) exactly like the string; equal first 8 bytes give equal
  // prefixes regardless of what follows.
  const std::string samples[] = {"",        "a",        "ab",
                                 "abcdefgh", "abcdefgi", "abcdefghzzz",
                                 "abcdefghaaa", "\xff\xfe", "zzzzzzzzz",
                                 "Zebra",   "zebra"};
  for (const std::string& x : samples) {
    for (const std::string& y : samples) {
      uint64_t px = simd::StringPrefix(x);
      uint64_t py = simd::StringPrefix(y);
      std::string x8 = x.substr(0, 8), y8 = y.substr(0, 8);
      if (x8 == y8) {
        EXPECT_EQ(px, py) << x << " vs " << y;
      } else {
        EXPECT_EQ(px < py, x8 < y8) << x << " vs " << y;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batch evaluator vs the scalar per-edge compiler.

// A graph with every property type on both tables, NULL cells, and string
// values engineered to collide on their 8-byte prefixes.
PropertyGraph RandomGraph(Rng& rng, size_t num_nodes, size_t num_edges) {
  PropertyGraph g;
  g.AddNodes(num_nodes);
  auto& np = g.node_properties();
  EXPECT_TRUE(np.AddColumn("city", PropertyType::kString).ok());
  EXPECT_TRUE(np.AddColumn("score", PropertyType::kDouble).ok());
  EXPECT_TRUE(np.AddColumn("rank", PropertyType::kInt).ok());
  EXPECT_TRUE(np.AddColumn("flag", PropertyType::kBool).ok());
  const std::string cities[] = {"NY",       "LA",          "prefix88",
                                "prefix88a", "prefix88b",  "prefix88ab",
                                ""};
  auto cell = [&](PropertyValue v) {
    if (rng.Bernoulli(0.15)) v = PropertyValue::Null();
    return v;
  };
  for (size_t i = 0; i < num_nodes; ++i) {
    EXPECT_TRUE(np.AppendRow({cell(PropertyValue(cities[rng.Index(7)])),
                              cell(PropertyValue(rng.Uniform(-3, 3) * 0.5)),
                              cell(PropertyValue(rng.Uniform(-5, 5))),
                              cell(PropertyValue(rng.Bernoulli(0.5)))})
                    .ok());
  }
  auto& ep = g.edge_properties();
  EXPECT_TRUE(ep.AddColumn("duration", PropertyType::kInt).ok());
  EXPECT_TRUE(ep.AddColumn("weight", PropertyType::kDouble).ok());
  EXPECT_TRUE(ep.AddColumn("label", PropertyType::kString).ok());
  EXPECT_TRUE(ep.AddColumn("active", PropertyType::kBool).ok());
  const std::string labels[] = {"call", "sms", "prefix88", "prefix88x", ""};
  for (size_t i = 0; i < num_edges; ++i) {
    EXPECT_TRUE(
        g.AddEdge(rng.Index(num_nodes), rng.Index(num_nodes)).ok());
    EXPECT_TRUE(ep.AppendRow({cell(PropertyValue(rng.Uniform(0, 10))),
                              cell(PropertyValue(rng.UniformReal(0, 1))),
                              cell(PropertyValue(labels[rng.Index(5)])),
                              cell(PropertyValue(rng.Bernoulli(0.5)))})
                    .ok());
  }
  return g;
}

// A random GVDL predicate over the columns of RandomGraph, as source text.
std::string RandomPredicate(Rng& rng, int depth) {
  static const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
  if (depth > 0 && rng.Bernoulli(0.6)) {
    std::string a = RandomPredicate(rng, depth - 1);
    std::string b = RandomPredicate(rng, depth - 1);
    switch (rng.Index(3)) {
      case 0:
        return "(" + a + " and " + b + ")";
      case 1:
        return "(" + a + " or " + b + ")";
      default:
        return "not (" + a + ")";
    }
  }
  const char* op = ops[rng.Index(6)];
  switch (rng.Index(7)) {
    case 0:
      return std::string("duration ") + op + " " +
             std::to_string(rng.Uniform(0, 10));
    case 1:
      return std::string("weight ") + op + " 0.5";
    case 2: {
      const char* vals[] = {"'call'", "'prefix88'", "'prefix88x'", "''"};
      return std::string("label ") + op + " " + vals[rng.Index(4)];
    }
    case 3: {
      const char* side = rng.Bernoulli(0.5) ? "src" : "dst";
      const char* vals[] = {"'NY'", "'prefix88'", "'prefix88a'"};
      return std::string(side) + ".city " + op + " " + vals[rng.Index(3)];
    }
    case 4: {
      const char* side = rng.Bernoulli(0.5) ? "src" : "dst";
      return std::string(side) + ".score " + op + " 0.5";
    }
    case 5:
      return std::string("src.rank ") + op + " dst.rank";
    default:
      return std::string("src.score ") + op + " duration";
  }
}

TEST(BatchEvalTest, MatchesScalarCompilerOnRandomPredicates) {
  Rng rng(11);
  PropertyGraph g = RandomGraph(rng, 48, 500);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = RandomPredicate(rng, 3);
    auto expr = gvdl::ParsePredicate(text);
    ASSERT_TRUE(expr.ok()) << text;
    auto scalar = gvdl::CompiledEdgePredicate::Compile(*expr, g);
    auto batch = gvdl::BatchPredicateProgram::Compile(*expr, g);
    ASSERT_TRUE(scalar.ok()) << text << ": " << scalar.status().ToString();
    ASSERT_TRUE(batch.ok()) << text << ": " << batch.status().ToString();
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(batch->EvalEdge(g, e), scalar->Evaluate(e))
          << "edge " << e << " predicate: " << text;
    }
  }
}

TEST(BatchEvalTest, RejectsExactlyWhatScalarCompilerRejects) {
  Rng rng(12);
  PropertyGraph g = RandomGraph(rng, 8, 16);
  const char* bad[] = {
      "nosuchcolumn > 1",        "src.nosuch = 'x'",
      "duration > 'str'",        "label < 5",
      "src.city = dst.score",    "active > 1.5",
      "duration = src.city",
  };
  for (const char* text : bad) {
    auto expr = gvdl::ParsePredicate(text);
    ASSERT_TRUE(expr.ok()) << text;
    auto scalar = gvdl::CompiledEdgePredicate::Compile(*expr, g);
    auto batch = gvdl::BatchPredicateProgram::Compile(*expr, g);
    EXPECT_EQ(scalar.ok(), batch.ok()) << text;
    if (!scalar.ok() && !batch.ok()) {
      EXPECT_EQ(scalar.status().ToString(), batch.status().ToString()) << text;
    }
  }
  // Null literals are accepted by both (and always compare false).
  auto expr = gvdl::ParsePredicate("duration = null");
  if (expr.ok()) {
    auto scalar = gvdl::CompiledEdgePredicate::Compile(*expr, g);
    auto batch = gvdl::BatchPredicateProgram::Compile(*expr, g);
    EXPECT_EQ(scalar.ok(), batch.ok());
  }
}

TEST(BatchEvalTest, EbmComputeMasksTombstonedEdges) {
  Rng rng(13);
  PropertyGraph g = RandomGraph(rng, 32, 300);
  // Tombstone a random fifth of the edges.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (rng.Bernoulli(0.2)) {
      EXPECT_TRUE(g.RemoveEdge(e).ok());
    }
  }
  std::vector<std::string> texts;
  std::vector<gvdl::ExprPtr> exprs;
  for (int v = 0; v < 9; ++v) {
    texts.push_back(RandomPredicate(rng, 2));
    auto expr = gvdl::ParsePredicate(texts.back());
    ASSERT_TRUE(expr.ok()) << texts.back();
    exprs.push_back(*expr);
  }
  auto ebm = views::EdgeBooleanMatrix::Compute(g, exprs, nullptr);
  ASSERT_TRUE(ebm.ok()) << ebm.status().ToString();
  for (size_t v = 0; v < exprs.size(); ++v) {
    auto scalar = gvdl::CompiledEdgePredicate::Compile(exprs[v], g);
    ASSERT_TRUE(scalar.ok());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(ebm->Get(e, v), g.edge_alive(e) && scalar->Evaluate(e))
          << "view " << v << " (" << texts[v] << ") edge " << e;
    }
  }
}

TEST(BatchEvalTest, WordPathMaintenanceMatchesRematerialization) {
  Rng rng(14);
  PropertyGraph g = RandomGraph(rng, 32, 300);
  auto def = gvdl::Parse(
      "create view collection c on g\n"
      "[a: duration > 3 and src.city = 'prefix88'],\n"
      "[b: weight <= 0.5 or not (dst.score > 0.5)],\n"
      "[c: label = 'prefix88x' or src.rank >= dst.rank]");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  const auto* cdef = std::get_if<gvdl::ViewCollectionDef>(&*def);
  ASSERT_NE(cdef, nullptr);
  auto mc = views::MaterializeCollection(g, *cdef, {});
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();
  ASSERT_FALSE(mc->programs.empty());

  // Mutate: property flips, edge adds, edge removes — then maintain.
  MutationBatch batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back(Mutation::SetEdgeProperty(
        rng.Index(g.num_edges()), "duration",
        PropertyValue(rng.Uniform(0, 10))));
    batch.push_back(Mutation::SetNodeProperty(
        rng.Index(g.num_nodes()), "city", PropertyValue("prefix88")));
  }
  for (int i = 0; i < 10; ++i) {
    batch.push_back(Mutation::AddEdge(rng.Index(g.num_nodes()),
                                      rng.Index(g.num_nodes()), {}));
  }
  batch.push_back(Mutation::RemoveEdge(rng.Index(g.num_edges())));
  MutationEffects fx;
  ASSERT_TRUE(ApplyMutationBatch(&g, batch, &fx).ok());
  ASSERT_TRUE(views::UpdateCollectionForMutations(&*mc, g, fx.touched_edges)
                  .ok());

  auto fresh = views::MaterializeCollection(g, *cdef, {});
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(mc->ebm->num_edges(), fresh->ebm->num_edges());
  for (size_t v = 0; v < mc->ebm->num_views(); ++v) {
    for (EdgeId e = 0; e < mc->ebm->num_edges(); ++e) {
      ASSERT_EQ(mc->ebm->Get(e, v), fresh->ebm->Get(e, v))
          << "view " << v << " edge " << e;
    }
  }
  EXPECT_EQ(mc->view_sizes, fresh->view_sizes);
  EXPECT_EQ(mc->total_diffs, fresh->total_diffs);
}

}  // namespace
}  // namespace gs
