#include "testing/generators.h"

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "differential/fuzz_hooks.h"
#include "gvdl/parser.h"

namespace gs::testing {

namespace {

namespace fuzz = ::gs::differential::fuzz;

const char* kCompareOps[] = {"<", "<=", ">", ">=", "=", "!="};
const char* kTags[] = {"red", "green", "blue"};

/// One random atomic predicate over the generated schema.
std::string AtomicPredicate(Rng* rng) {
  switch (rng->Index(8)) {
    case 0:
      return std::string("w ") + kCompareOps[rng->Index(6)] + " " +
             std::to_string(rng->Uniform(0, 16));
    case 1:
      return std::string("kind ") + (rng->Bernoulli(0.5) ? "=" : "!=") + " " +
             std::to_string(rng->Uniform(0, 3));
    case 2:
      return std::string("src.grp ") + kCompareOps[rng->Index(6)] + " " +
             std::to_string(rng->Uniform(0, 4));
    case 3:
      return std::string("dst.grp ") + kCompareOps[rng->Index(6)] + " " +
             std::to_string(rng->Uniform(0, 4));
    case 4:
      return std::string("tag = '") + kTags[rng->Index(3)] + "'";
    case 5:
      return std::string(rng->Bernoulli(0.5) ? "src" : "dst") + ".hub = " +
             (rng->Bernoulli(0.5) ? "true" : "false");
    case 6:
      return "src.grp = dst.grp";
    default:
      // Guaranteed-full atom; keeps conjunctions from collapsing to empty
      // too often.
      return "w >= 0";
  }
}

/// Random predicate with and/or/not nesting up to `depth`.
/// (Built via += rather than operator+ chains: GCC 12 emits a spurious
/// -Wrestrict on `const char* + std::string&&` under -O2.)
std::string RandomPredicate(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.45)) return AtomicPredicate(rng);
  std::string out;
  switch (rng->Index(3)) {
    case 0:
      out += "(";
      out += RandomPredicate(rng, depth - 1);
      out += ") and (";
      out += RandomPredicate(rng, depth - 1);
      out += ")";
      break;
    case 1:
      out += "(";
      out += RandomPredicate(rng, depth - 1);
      out += ") or (";
      out += RandomPredicate(rng, depth - 1);
      out += ")";
      break;
    default:
      out += "not (";
      out += RandomPredicate(rng, depth - 1);
      out += ")";
      break;
  }
  return out;
}

ProgramSpec RandomProgram(Rng* rng, uint64_t num_nodes) {
  ProgramSpec spec;
  spec.algo = Algo::kRandom;
  size_t n_ops = 2 + rng->Index(7);
  int iterates = 0;
  for (size_t i = 0; i < n_ops; ++i) {
    OpNode op;
    if (i == 0) {
      op.kind = rng->Bernoulli(0.5) ? OpNode::Kind::kBaseSrcDst
                                    : OpNode::Kind::kBaseDstWeight;
    } else {
      // Weighted pick: maps/filters/reduces common, joins and the iterate
      // rarer (they dominate runtime), extra bases occasionally so joins
      // see genuinely different inputs.
      uint64_t roll = rng->Index(20);
      if (roll < 2) {
        op.kind = rng->Bernoulli(0.5) ? OpNode::Kind::kBaseSrcDst
                                      : OpNode::Kind::kBaseDstWeight;
      } else if (roll < 6) {
        op.kind = OpNode::Kind::kMap;
      } else if (roll < 9) {
        op.kind = OpNode::Kind::kFilter;
      } else if (roll < 11) {
        op.kind = OpNode::Kind::kJoin;
      } else if (roll < 13) {
        op.kind = OpNode::Kind::kReduceMin;
      } else if (roll < 14) {
        op.kind = OpNode::Kind::kReduceMax;
      } else if (roll < 15) {
        op.kind = OpNode::Kind::kCount;
      } else if (roll < 17) {
        op.kind = OpNode::Kind::kDistinct;
      } else if (roll < 19) {
        op.kind = OpNode::Kind::kConcatNegate;
      } else if (iterates < 1) {
        op.kind = OpNode::Kind::kIterateMinProp;
        ++iterates;
      } else {
        op.kind = OpNode::Kind::kMap;
      }
    }
    if (i > 0) {
      op.child0 = static_cast<int>(rng->Index(i));
      op.child1 = static_cast<int>(rng->Index(i));
    }
    op.a = rng->Uniform(0, 16);
    op.b = rng->Uniform(0, 7);
    spec.ops.push_back(op);
  }
  (void)num_nodes;
  return spec;
}

}  // namespace

FuzzCase GenerateCase(uint64_t case_seed, uint64_t max_nodes) {
  Rng rng(case_seed);
  FuzzCase c;
  c.case_seed = case_seed;
  if (max_nodes < 1) max_nodes = 1;
  c.num_nodes = 1 + rng.Index(max_nodes);

  // Edges: power-law sources (hubs), uniform destinations, with forced
  // self-loops and exact duplicates. Nodes the power law never picks stay
  // isolated; num_edges may be 0 (empty-graph views).
  uint64_t target_edges = rng.Index(3 * c.num_nodes + 1);
  for (uint64_t i = 0; i < target_edges; ++i) {
    if (!c.edges.empty() && rng.Bernoulli(0.1)) {
      c.edges.push_back(c.edges[rng.Index(c.edges.size())]);  // multi-edge
      continue;
    }
    FuzzEdge e;
    e.src = rng.PowerLaw(c.num_nodes, 1.2);
    e.dst = rng.Bernoulli(0.1) ? e.src : rng.Index(c.num_nodes);
    e.w = rng.Uniform(0, 16);
    e.kind = rng.Uniform(0, 3);
    c.edges.push_back(e);
  }

  // Views: 2–5 predicates; sometimes a guaranteed-empty view, sometimes a
  // disjoint consecutive pair (worst case for differential sharing: the
  // difference set is both views' union).
  size_t n_views = 2 + rng.Index(4);
  for (size_t v = 0; v < n_views; ++v) {
    if (rng.Bernoulli(0.12)) {
      c.predicates.push_back("w > 100");  // empty: w is in [0, 16]
      continue;
    }
    if (v + 1 < n_views && rng.Bernoulli(0.15)) {
      c.predicates.push_back("kind = 0");
      c.predicates.push_back("kind = 1");
      ++v;
      continue;
    }
    c.predicates.push_back(RandomPredicate(&rng, 2));
  }

  // Program: paper algorithms half the time (they have independent
  // sequential references), random operator DAGs the other half.
  switch (rng.Index(8)) {
    case 0:
      c.program.algo = Algo::kWcc;
      break;
    case 1:
      c.program.algo = Algo::kBfs;
      c.program.param = static_cast<int64_t>(rng.Index(c.num_nodes));
      break;
    case 2:
      c.program.algo = Algo::kBellmanFord;
      c.program.param = static_cast<int64_t>(rng.Index(c.num_nodes));
      break;
    case 3:
      c.program.algo = Algo::kPageRank;
      c.program.param = 1 + static_cast<int64_t>(rng.Index(4));
      break;
    default:
      c.program = RandomProgram(&rng, c.num_nodes);
      break;
  }

  static const uint64_t kWorkerChoices[] = {2, 3, 4, 7};
  c.workers = kWorkerChoices[rng.Index(4)];
  c.use_ordering = rng.Bernoulli(0.5);
  c.schedule_seed = fuzz::Mix(case_seed ^ 0x5c5c5c5cull);
  static const uint64_t kCompactionChoices[] = {0, 0, 3, 7, 64};
  c.compaction_period = kCompactionChoices[rng.Index(5)];
  static const uint64_t kSealChoices[] = {0, 0, 1, 2, 8};
  c.tail_seal_threshold = kSealChoices[rng.Index(5)];

  // Streaming mutations (mutate oracle mode) half the time: 1–3 epochs of
  // 1–8 raw mutations each, resolved against the live graph at run time.
  if (rng.Bernoulli(0.5)) {
    size_t n_epochs = 1 + rng.Index(3);
    for (size_t e = 0; e < n_epochs; ++e) {
      std::vector<FuzzMutation> epoch;
      size_t n_mutations = 1 + rng.Index(8);
      for (size_t m = 0; m < n_mutations; ++m) {
        FuzzMutation mut;
        mut.kind = static_cast<int64_t>(rng.Index(6));
        mut.a = rng.Index(1 << 16);
        mut.b = rng.Index(1 << 16);
        mut.c = rng.Index(1 << 16);
        epoch.push_back(mut);
      }
      c.mutation_epochs.push_back(std::move(epoch));
    }
  }
  return c;
}

StatusOr<PropertyGraph> BuildGraph(const FuzzCase& c) {
  PropertyGraph g;
  g.AddNodes(c.num_nodes);
  GS_RETURN_IF_ERROR(g.node_properties().AddColumn("grp", PropertyType::kInt));
  GS_RETURN_IF_ERROR(g.node_properties().AddColumn("hub", PropertyType::kBool));
  for (uint64_t v = 0; v < c.num_nodes; ++v) {
    GS_RETURN_IF_ERROR(g.node_properties().AppendRow(
        {PropertyValue(static_cast<int64_t>(v % 5)),
         PropertyValue(v % 3 == 0)}));
  }
  GS_RETURN_IF_ERROR(g.edge_properties().AddColumn("w", PropertyType::kInt));
  GS_RETURN_IF_ERROR(g.edge_properties().AddColumn("kind", PropertyType::kInt));
  GS_RETURN_IF_ERROR(
      g.edge_properties().AddColumn("tag", PropertyType::kString));
  for (const FuzzEdge& e : c.edges) {
    GS_ASSIGN_OR_RETURN(EdgeId id, g.AddEdge(e.src, e.dst));
    (void)id;
    GS_RETURN_IF_ERROR(g.edge_properties().AppendRow(
        {PropertyValue(e.w), PropertyValue(e.kind),
         PropertyValue(std::string(kTags[e.kind % 3]))}));
  }
  return g;
}

StatusOr<gvdl::ViewCollectionDef> BuildCollectionDef(const FuzzCase& c) {
  gvdl::ViewCollectionDef def;
  def.name = "fuzz_collection";
  def.on = "fuzz_graph";
  for (size_t i = 0; i < c.predicates.size(); ++i) {
    GS_ASSIGN_OR_RETURN(gvdl::ExprPtr expr,
                        gvdl::ParsePredicate(c.predicates[i]));
    std::string view_name = "v";
    view_name += std::to_string(i);
    def.views.push_back({std::move(view_name), std::move(expr)});
  }
  return def;
}

MutationBatch ResolveFuzzBatch(const PropertyGraph& graph,
                               const std::vector<FuzzMutation>& raw) {
  MutationBatch batch;
  // Resolve against the graph *before* the batch: ids are stable (removals
  // tombstone), so modulo the pre-batch counts stays meaningful, and
  // CheckMutationBatch tracks batch-internal adds/removes for us.
  const uint64_t n = graph.num_nodes();
  const uint64_t m = graph.num_edges();
  for (const FuzzMutation& r : raw) {
    std::optional<Mutation> candidate = [&]() -> std::optional<Mutation> {
      switch (r.kind) {
        case 0:  // add node, BuildGraph node schema (grp, hub)
          return Mutation::AddNode(
              {PropertyValue(static_cast<int64_t>(r.a % 5)),
               PropertyValue(r.b % 3 == 0)});
        case 1:  // remove node
          return Mutation::RemoveNode(r.a % n);
        case 2: {  // add edge, BuildGraph edge schema (w, kind, tag)
          const int64_t kind = static_cast<int64_t>(r.c % 3);
          return Mutation::AddEdge(
              r.a % n, r.b % n,
              {PropertyValue(static_cast<int64_t>(r.c % 16)),
               PropertyValue(kind), PropertyValue(std::string(kTags[kind]))});
        }
        case 3:  // remove edge
          if (m == 0) return std::nullopt;
          return Mutation::RemoveEdge(r.a % m);
        case 4:  // set node property
          if (r.b % 2 == 0) {
            return Mutation::SetNodeProperty(
                r.a % n, "grp", PropertyValue(static_cast<int64_t>(r.c % 5)));
          }
          return Mutation::SetNodeProperty(r.a % n, "hub",
                                           PropertyValue(r.c % 2 == 0));
        default: {  // set edge property
          if (m == 0) return std::nullopt;
          const EdgeId target = r.a % m;
          switch (r.b % 3) {
            case 0:
              return Mutation::SetEdgeProperty(
                  target, "w", PropertyValue(static_cast<int64_t>(r.c % 16)));
            case 1:
              return Mutation::SetEdgeProperty(
                  target, "kind",
                  PropertyValue(static_cast<int64_t>(r.c % 3)));
            default:
              return Mutation::SetEdgeProperty(
                  target, "tag", PropertyValue(std::string(kTags[r.c % 3])));
          }
        }
      }
    }();
    if (!candidate) continue;
    // Keep the mutation only if the whole batch stays valid (e.g. a target
    // may be dead, or removed earlier in this very batch).
    batch.push_back(std::move(*candidate));
    if (!CheckMutationBatch(graph, batch).ok()) batch.pop_back();
  }
  return batch;
}

std::vector<std::string> GenerateMalformedPredicates(uint64_t seed,
                                                     size_t count) {
  Rng rng(seed);
  std::vector<std::string> out;
  std::set<std::string> seen;
  // A few fixed pathological shapes first: they document entire bug classes
  // (stack exhaustion, unterminated tokens) rather than random typos.
  std::vector<std::string> fixed = {
      "-- a comment is not a predicate",
      "and",
      "w =",
      "= 3",
      "w < < 3",
      "src. = 1",
      "w = 'unterminated",
      "((((((((w = 1",
      "not",
      std::string(300, '(') + "w = 1",
  };
  {
    std::string deep;
    for (int i = 0; i < 300; ++i) deep += "not ";
    deep += "w = 1";
    fixed.push_back(deep);
  }
  for (std::string& f : fixed) {
    if (out.size() >= count) break;
    if (gvdl::ParsePredicate(f).ok()) continue;
    if (seen.insert(f).second) out.push_back(f);
  }
  // Then mutations of valid predicates. Every candidate is verified to be
  // rejected — a mutation that still parses (e.g. truncation at a clause
  // boundary) is discarded.
  while (out.size() < count) {
    std::string valid = RandomPredicate(&rng, 2);
    std::string mutated = valid;
    switch (rng.Index(6)) {
      case 0:  // truncate mid-string
        mutated = valid.substr(0, rng.Index(valid.size()) + 1);
        break;
      case 1:  // dangling boolean operator
        mutated = valid + (rng.Bernoulli(0.5) ? " and" : " or");
        break;
      case 2: {  // unbalance parentheses
        size_t p = mutated.find(')');
        if (p != std::string::npos) {
          mutated.erase(p, 1);
        } else {
          mutated = "(" + mutated;
        }
        break;
      }
      case 3: {  // break a string quote
        size_t q = mutated.find('\'');
        if (q != std::string::npos) {
          mutated.erase(q, 1);
        } else {
          mutated += " = '";
        }
        break;
      }
      case 4:  // junk bytes
        mutated.insert(rng.Index(mutated.size() + 1), "@#;");
        break;
      default:  // duplicated comparison operator
        mutated += " = =";
        break;
    }
    if (gvdl::ParsePredicate(mutated).ok()) continue;
    if (seen.insert(mutated).second) out.push_back(mutated);
  }
  return out;
}

}  // namespace gs::testing
