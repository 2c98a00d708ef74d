// Reproduces Table 4 and Figures 8–9 (paper §7.4): perturbation analysis
// on graphs with ground-truth communities (LiveJournal / Wiki-topcats
// analogs). Each view removes one k-combination of the largest N
// communities; a good order is non-obvious, so the collection ordering
// optimizer is compared against 3 random orders —
//   Table 4:    #diffs and collection creation time (CCT), Ord vs R1–R3;
//   Figures 8/9: WCC, BFS, MPSP runtimes under each order, with the
//                adaptive splitting optimizer off and on.
#include "bench_util.h"
#include "ordering/optimizer.h"

namespace gs::bench {
namespace {

struct Dataset {
  const char* name;
  CommunityGraph cg;
};

// Builds one perturbation predicate per k-combination of the top N
// communities, testing the community bitmask node property.
std::vector<std::function<bool(EdgeId)>> PerturbationPredicates(
    const PropertyGraph& g, size_t n, size_t k,
    std::vector<std::string>* names) {
  auto col = g.node_properties().ColumnIndex("communities");
  GS_CHECK(col.ok());
  const Column* masks = &g.node_properties().column(*col);
  std::vector<std::function<bool(EdgeId)>> predicates;
  for (const std::vector<size_t>& combo : Combinations(n, k)) {
    uint64_t removed = 0;
    std::string label = "rm";
    for (size_t c : combo) {
      removed |= 1ULL << c;
      label += '_';
      label += std::to_string(c);
    }
    names->push_back(label);
    const PropertyGraph* graph = &g;
    predicates.push_back([graph, masks, removed](EdgeId e) {
      uint64_t src_mask =
          static_cast<uint64_t>(masks->GetInt(graph->edge(e).src));
      uint64_t dst_mask =
          static_cast<uint64_t>(masks->GetInt(graph->edge(e).dst));
      return ((src_mask | dst_mask) & removed) == 0;
    });
  }
  return predicates;
}

void RunDataset(BenchReport* report, const char* dataset_name,
                const CommunityGraph& cg, size_t n, size_t k, uint64_t seed) {
  const PropertyGraph& g = cg.graph;
  std::printf("\n--- dataset %s: %zu nodes, %zu edges, C(%zu,%zu) = ",
              dataset_name, g.num_nodes(), g.num_edges(), n, k);

  std::vector<std::string> view_names;
  auto predicates = PerturbationPredicates(g, n, k, &view_names);
  std::printf("%zu views ---\n", predicates.size());

  ThreadPool pool(1);
  Timer ebm_timer;
  views::EdgeBooleanMatrix ebm =
      views::EdgeBooleanMatrix::ComputeWith(g, predicates, &pool);
  double ebm_seconds = ebm_timer.Seconds();

  // The four orders: optimizer vs three random permutations.
  struct OrderRun {
    std::string label;
    std::vector<size_t> order;
    uint64_t diffs = 0;
    double cct = 0;
  };
  std::vector<OrderRun> orders;
  {
    Timer t;
    ordering::OrderingResult ores = ordering::OrderCollection(ebm, &pool);
    orders.push_back({"Ord", ores.order, ores.difference_count,
                      ebm_seconds + t.Seconds()});
  }
  Rng rng(seed);
  for (int r = 1; r <= 3; ++r) {
    Timer t;
    std::vector<size_t> order = ordering::IdentityOrder(predicates.size());
    rng.Shuffle(&order);
    uint64_t diffs = ebm.DifferenceCount(order);
    orders.push_back({"R" + std::to_string(r), order, diffs,
                      ebm_seconds + t.Seconds()});
  }

  PrintHeader(std::string("Table 4 (") + dataset_name +
              "): #diffs and collection creation time");
  const std::vector<int> widths = {8, 12, 12, 12};
  PrintRow({"order", "#diffs", "vs Ord", "CCT"}, widths);
  for (const OrderRun& o : orders) {
    PrintRow({o.label, Count(o.diffs),
              Factor(static_cast<double>(o.diffs),
                     static_cast<double>(orders[0].diffs)),
              Secs(o.cct)},
             widths);
    report->AddRow()
        .Str("dataset", dataset_name)
        .Str("table", "table4")
        .Str("order", o.label)
        .Int("diffs", o.diffs)
        .Num("cct_s", o.cct);
  }

  // Figures 8/9: runtimes per order, adaptive off and on.
  Graphsurge system;
  PropertyGraph copy = cg.graph;  // keep cg intact for the second dataset
  GS_CHECK(system.AddGraph("g", std::move(copy)).ok());
  std::vector<std::string> collection_names;
  for (const OrderRun& o : orders) {
    views::MaterializeOptions mopts;
    mopts.explicit_order = o.order;
    std::string cname = std::string("c_") + o.label;
    GS_CHECK(
        system.CreateCollection(cname, "g", view_names, predicates, &mopts)
            .ok());
    collection_names.push_back(cname);
  }

  VertexId source = FirstSource(g);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  Rng prng(seed + 1);
  for (int i = 0; i < 3; ++i) {
    pairs.emplace_back(source, prng.Index(g.num_nodes()));
  }

  struct Algo {
    const char* name;
    std::unique_ptr<analytics::Computation> computation;
  };
  std::vector<Algo> algos;
  algos.push_back({"WCC", std::make_unique<analytics::Wcc>()});
  algos.push_back({"BFS", std::make_unique<analytics::Bfs>(source)});
  algos.push_back({"MPSP", std::make_unique<analytics::Mpsp>(pairs)});

  PrintHeader(std::string("Figures 8/9 (") + dataset_name +
              "): runtime under each order");
  const std::vector<int> w2 = {8, 8, 13, 13, 14};
  PrintRow({"algo", "order", "no-adapt", "with-adapt", "Ord speedup"}, w2);
  int weight_col = g.FindWeightColumn("weight");
  std::vector<std::vector<double>> noadapt(algos.size()),
      withadapt(algos.size());
  for (size_t a = 0; a < algos.size(); ++a) {
    for (size_t c = 0; c < collection_names.size(); ++c) {
      views::ExecutionOptions options;
      options.weight_column = weight_col;
      options.strategy = splitting::Strategy::kDiffOnly;
      Timer t1;
      auto r1 = system.RunComputation(*algos[a].computation,
                                      collection_names[c], options);
      GS_CHECK(r1.ok()) << r1.status().ToString();
      noadapt[a].push_back(t1.Seconds());
      options.strategy = splitting::Strategy::kAdaptive;
      Timer t2;
      auto r2 = system.RunComputation(*algos[a].computation,
                                      collection_names[c], options);
      GS_CHECK(r2.ok()) << r2.status().ToString();
      withadapt[a].push_back(t2.Seconds());
    }
    for (size_t c = 0; c < collection_names.size(); ++c) {
      PrintRow({algos[a].name, orders[c].label, Secs(noadapt[a][c]),
                Secs(withadapt[a][c]),
                c == 0 ? "-" : Factor(noadapt[a][c], noadapt[a][0])},
               w2);
      report->AddRow()
          .Str("dataset", dataset_name)
          .Str("table", "fig8_9")
          .Str("algo", algos[a].name)
          .Str("order", orders[c].label)
          .Num("noadapt_s", noadapt[a][c])
          .Num("withadapt_s", withadapt[a][c]);
    }
  }
}

void Run(BenchReport* report) {
  // LiveJournal analog: larger communities, denser.
  CommunityGraphOptions lj;
  lj.num_nodes = 7000;
  lj.num_communities = 24;
  lj.intra_degree = 5.0;
  lj.background_degree = 0.8;
  lj.seed = 11;
  CommunityGraph lj_graph = GenerateCommunityGraph(lj);

  // Wiki-topcats analog: more, smaller, more-overlapping categories.
  CommunityGraphOptions wtc;
  wtc.num_nodes = 5500;
  wtc.num_communities = 32;
  wtc.avg_memberships = 2.0;
  wtc.intra_degree = 4.0;
  wtc.background_degree = 0.6;
  wtc.seed = 12;
  CommunityGraph wtc_graph = GenerateCommunityGraph(wtc);

  RunDataset(report, "LJ-analog", lj_graph, /*n=*/6, /*k=*/3, 101);
  RunDataset(report, "WTC-analog", wtc_graph, /*n=*/6, /*k=*/3, 202);
}

}  // namespace
}  // namespace gs::bench

int main() {
  gs::bench::BenchReport report("table4_fig8_fig9_ordering");
  gs::bench::Run(&report);
  report.Write();
  return 0;
}
