// live_ingest: a power-law graph with a write-ahead log (fsync on every
// append) feeding a live WCC over a 10-view nested collection at one
// worker. A single closed-loop writer applies seeded 1% batches (half edge
// additions, half removals); a request is ApplyMutations followed by
// ResultsAt(newest epoch, widest view).
//
// Live sessions are bounded to a fixed number of epochs and then restarted
// from the base graph (a set-up, timed as such). Per-epoch cost grows with
// the session's history (result captures are kept for every epoch), so
// without the bound a faster build would run more epochs per phase and be
// measured on a longer history; with it, every run measures the same epochs.
#include <filesystem>
#include <variant>

#include "algorithms/algorithms.h"
#include "api/graphsurge.h"
#include "common/hash.h"
#include "common/random.h"
#include "e2e.h"
#include "graph/csv.h"
#include "graph/generators.h"
#include "graph/mutation.h"
#include "graph/wal/wal.h"
#include "gvdl/parser.h"
#include "views/collection.h"
#include "views/live.h"

namespace gs::bench::e2e {
namespace {

using analytics::ResultMap;

constexpr size_t kViews = 10;
constexpr int64_t kMaxWeight = 1000;
constexpr double kAlpha = 1.15;

struct IngestConfig {
  size_t nodes = 0;
  size_t edges = 0;
  size_t epochs_per_session = 0;
};

IngestConfig ConfigFor(const Args& args) {
  if (args.smoke) return {300, 1500, 10};
  return {8000, 40000, 50};
}

/// Nested views 0.1% of the weight range apart; the widest holds every
/// live edge.
int64_t Threshold(size_t view) {
  return kMaxWeight - static_cast<int64_t>(kViews - 1 - view);
}

std::string CollectionGvdl() {
  std::string q = "create view collection live on g ";
  for (size_t t = 0; t < kViews; ++t) {
    if (t) q += ", ";
    q += "[v" + std::to_string(t) +
         ": weight <= " + std::to_string(Threshold(t)) + "]";
  }
  return q;
}

/// The benchmark's own copy of the edge set, kept in step with every batch,
/// from which the reference results are computed.
struct EdgeModel {
  std::vector<WeightedEdge> edges;  // weight = the `weight` property
  std::vector<uint8_t> alive;

  explicit EdgeModel(const PropertyGraph& g) {
    const PropertyTable& props = g.edge_properties();
    const Column& w = props.column(props.ColumnIndex("weight").value());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      edges.push_back({g.edge(e).src, g.edge(e).dst, w.GetInt(e)});
    }
    alive.assign(edges.size(), 1);
  }

  ResultMap Reference(size_t view) const {
    std::vector<WeightedEdge> in_view;
    for (size_t e = 0; e < edges.size(); ++e) {
      if (alive[e] && edges[e].weight <= Threshold(view)) {
        in_view.push_back({edges[e].src, edges[e].dst, 1});
      }
    }
    return analytics::WccReference(in_view);
  }
};

/// Seeded 1% batches: half new edges, half removals of live edges. Edge ids
/// are assigned in append order, so the generator knows each new edge's id.
class BatchGenerator {
 public:
  BatchGenerator(const PropertyGraph& base, uint64_t seed)
      : rng_(seed),
        nodes_(base.num_nodes()),
        next_edge_(base.num_edges()),
        batch_size_(std::max<size_t>(2, base.num_edges() / 100)) {
    for (EdgeId e = 0; e < base.num_edges(); ++e) alive_.push_back(e);
  }

  MutationBatch Next(EdgeModel* model) {
    MutationBatch batch;
    const size_t half = batch_size_ / 2;
    for (size_t i = 0; i < half; ++i) {
      VertexId src = rng_.PowerLaw(nodes_, kAlpha);
      VertexId dst = rng_.PowerLaw(nodes_, kAlpha);
      if (src == dst) dst = (dst + 1) % nodes_;
      const int64_t weight = rng_.Uniform(1, kMaxWeight);
      batch.push_back(
          Mutation::AddEdge(src, dst, {PropertyValue(weight)}));
      model->edges.push_back({src, dst, weight});
      model->alive.push_back(1);
    }
    for (size_t i = 0; i < half && !alive_.empty(); ++i) {
      const size_t idx = rng_.Index(alive_.size());
      const EdgeId e = alive_[idx];
      alive_[idx] = alive_.back();
      alive_.pop_back();
      batch.push_back(Mutation::RemoveEdge(e));
      model->alive[e] = 0;
    }
    for (size_t i = 0; i < half; ++i) alive_.push_back(next_edge_++);
    return batch;
  }

 private:
  Rng rng_;
  size_t nodes_;
  EdgeId next_edge_;
  size_t batch_size_;
  std::vector<EdgeId> alive_;
};

/// A live session through the public API: Graphsurge with a WAL-attached
/// graph, the collection, and a live WCC.
struct ApiSession {
  std::unique_ptr<Graphsurge> system;
  const views::LiveRun* run = nullptr;
  std::string wal_path;

  ~ApiSession() {
    system.reset();
    std::error_code ignored;
    std::filesystem::remove(wal_path, ignored);
  }
};

const analytics::Wcc& WccComputation() {
  static const analytics::Wcc wcc;
  return wcc;
}

std::unique_ptr<ApiSession> StartApiSession(const std::string& nodes_csv,
                                            const std::string& edges_csv,
                                            const std::string& wal_path) {
  auto s = std::make_unique<ApiSession>();
  s->wal_path = wal_path;
  s->system = std::make_unique<Graphsurge>();
  GS_CHECK(s->system->LoadGraphCsv("g", nodes_csv, edges_csv).ok());
  Status st = s->system->EnableWal("g", wal_path);
  GS_CHECK(st.ok()) << st.ToString();
  GS_CHECK(s->system->Execute(CollectionGvdl()).ok());
  GS_CHECK(
      s->system->StartLiveComputation("wcc", WccComputation(), "live").ok());
  s->run = s->system->GetLiveRun("wcc").value();
  return s;
}

/// The same pipeline assembled from the layers, for the traced replay.
/// LiveRun borrows `graph` and `mc`, so the session never moves.
struct LayerSession {
  PropertyGraph graph;
  wal::WalWriter wal;
  views::MaterializedCollection mc;
  std::unique_ptr<views::LiveRun> run;
  std::string wal_path;

  ~LayerSession() {
    run.reset();
    (void)wal.Close();
    std::error_code ignored;
    std::filesystem::remove(wal_path, ignored);
  }
};

/// Starts a layer session. Its parse and materialization count toward the
/// per-request gvdl and views metrics, spread over the session's requests;
/// `request` is the id of the session's first request.
std::unique_ptr<LayerSession> StartLayerSession(const PropertyGraph& base,
                                                const std::string& wal_path,
                                                SpanLog* log, uint64_t request,
                                                LayerTotals* totals) {
  auto s = std::make_unique<LayerSession>();
  s->graph = base;
  s->wal_path = wal_path;
  GS_CHECK(s->wal.Open(wal_path).ok());
  auto& sums = totals->sums;
  StatusOr<std::vector<gvdl::Statement>> parsed = Status::Internal("unset");
  sums["gvdl.parse_ms"] += log->Time("gvdl.parse", request, [&] {
    parsed = gvdl::ParseScript(CollectionGvdl());
  });
  GS_CHECK(parsed.ok());
  const auto& def = std::get<gvdl::ViewCollectionDef>(parsed->front());
  StatusOr<views::MaterializedCollection> mc = Status::Internal("unset");
  sums["views.materialize_ms"] += log->Time("views.materialize", request, [&] {
    mc = views::MaterializeCollection(s->graph, def, {});
  });
  GS_CHECK(mc.ok());
  totals->AddCollection(*mc);
  s->mc = std::move(mc).value();
  views::LiveRunOptions options;
  options.dataflow.num_workers = 1;
  StatusOr<std::unique_ptr<views::LiveRun>> run = Status::Internal("unset");
  log->Time("views.live.start", request, [&] {
    run = views::LiveRun::Start(WccComputation(), s->graph, &s->mc, options);
  });
  GS_CHECK(run.ok()) << run.status().ToString();
  s->run = std::move(run).value();
  return s;
}

/// Compares the newest epoch of `run` (every view) and the request's own
/// read of the widest view with the reference.
void CheckEpoch(const views::LiveRun& run, const ResultMap& widest_read,
                const EdgeModel& model, Report* report) {
  const uint32_t epoch = run.epochs_fed() - 1;
  for (size_t t = 0; t < kViews; ++t) {
    auto got = run.ResultsAt(epoch, t);
    const ResultMap expected = model.Reference(t);
    if (!got.ok() || *got != expected ||
        (t + 1 == kViews && widest_read != expected)) {
      report->Mismatch("live_ingest: epoch " + std::to_string(epoch) +
                       ", view " + std::to_string(t) +
                       " differs from the sequential reference");
      return;
    }
  }
}

/// One request, layer by layer: validate → WAL append → apply →
/// maintain the collection → advance the live run → read. Adds the epoch's
/// scheduler attribution to `attribution`.
bool RequestViaLayers(LayerSession* s, const MutationBatch& batch,
                      SpanLog* log, uint64_t request, LayerTotals* totals,
                      sched::WorkerAttribution* attribution, ResultMap* read,
                      double* ms) {
  auto& sums = totals->sums;
  const uint64_t start = NowNs();
  Status st;
  double apply_ms = log->Time("graph.mutation.check", request, [&] {
    st = CheckMutationBatch(s->graph, batch);
  });
  if (!st.ok()) return false;
  const double append_ms = log->Time("graph.wal.append", request,
                                     [&] { st = s->wal.Append(batch); });
  if (!st.ok()) return false;
  MutationEffects effects;
  apply_ms += log->Time("graph.mutation.apply", request, [&] {
    st = ApplyMutationBatch(&s->graph, batch, &effects);
  });
  if (!st.ok()) return false;
  const double maintain_ms = log->Time("views.maintain", request, [&] {
    st = views::UpdateCollectionForMutations(&s->mc, s->graph,
                                             effects.touched_edges);
  });
  if (!st.ok()) return false;
  const double advance_ms = log->Time("views.live.advance", request, [&] {
    st = s->run->AdvanceEpoch(effects.touched_edges);
  });
  if (!st.ok()) return false;
  StatusOr<ResultMap> result = Status::Internal("unset");
  const double read_ms = log->Time("views.live.read", request, [&] {
    result = s->run->ResultsAt(s->run->epochs_fed() - 1, kViews - 1);
  });
  if (!result.ok()) return false;
  const uint64_t wall = NowNs() - start;
  log->Record("bench.request", start, wall, request);

  sums["graph.mutation.apply_share"] += apply_ms;
  sums["graph.wal.append_share"] += append_ms;
  sums["views.maintain_share"] += maintain_ms;
  sums["views.live.advance_share"] += advance_ms;
  sums["views.live.read_share"] += read_ms;
  sums["views.live.input_diffs"] +=
      static_cast<double>(s->run->last_epoch_input_diffs());
  attribution->Add(s->run->last_epoch_attribution());
  totals->requests += 1;
  totals->stage_ms +=
      apply_ms + append_ms + maintain_ms + advance_ms + read_ms;
  totals->request_ms += static_cast<double>(wall) / 1e6;
  *read = std::move(result).value();
  *ms = static_cast<double>(wall) / 1e6;
  return true;
}

}  // namespace

void RunLiveIngest(const Args& args, Report* report) {
  const IngestConfig c = ConfigFor(args);
  TempDir dir(args.work_dir);
  if (dir.path().empty()) {
    report->Mismatch("cannot create a scratch directory under " +
                     args.work_dir);
    return;
  }
  uint64_t wal_files = 0;
  auto next_wal = [&] {
    return dir.path() + "/wal-" + std::to_string(wal_files++);
  };
  const PropertyGraph base =
      GeneratePowerLawGraph(c.nodes, c.edges, kAlpha, args.seed, kMaxWeight);
  const std::string nodes_csv = dir.path() + "/nodes.csv";
  const std::string edges_csv = dir.path() + "/edges.csv";
  GS_CHECK(WriteGraphToCsv(base, nodes_csv, edges_csv).ok());

  // Set-up: load the graph from CSV, attach a WAL, materialize the
  // collection and start the live computation (epoch 0). Every session of
  // the timed phase starts the same way, and its set-up counts toward
  // setup_s.
  SetupTimes setups;
  // Nothing here starts threads at W=1, so set-ups and each session's
  // requests are pinned, each stream rotating over the CPUs.
  CpuRotation setup_cpus;
  CpuRotation session_cpus;
  const std::function<std::unique_ptr<ApiSession>()> start_session = [&] {
    CpuRotation::Pinned pin(&setup_cpus);
    return StartApiSession(nodes_csv, edges_csv, next_wal());
  };
  std::unique_ptr<ApiSession> setup;
  setups.Repeat(start_session, &setup);
  report->meta = {{"nodes", static_cast<double>(c.nodes)},
                  {"edges", static_cast<double>(c.edges)},
                  {"views", static_cast<double>(kViews)},
                  {"epochs_per_session",
                   static_cast<double>(c.epochs_per_session)}};

  // Warm-up: one untimed request on the set-up session, checked.
  {
    EdgeModel model(base);
    BatchGenerator gen(base, Mix64(args.seed));
    Status st = setup->system->ApplyMutations("g", gen.Next(&model));
    auto read = setup->run->ResultsAt(setup->run->epochs_fed() - 1, kViews - 1);
    if (!st.ok() || !read.ok()) {
      report->Mismatch("live_ingest: warm-up request failed");
      return;
    }
    CheckEpoch(*setup->run, *read, model, report);
    setup.reset();
  }

  // Runs whole sessions until `seconds` have passed. Session k replays the
  // batch sequence seeded by (seed, k), so the traced replay sees the same
  // requests as the API phase. Returns the request latencies.
  auto run_phase = [&](double seconds, auto&& start_session,
                       auto&& request) {
    std::vector<double> latencies;
    Timer phase;
    for (uint64_t k = 0; phase.Seconds() < seconds; ++k) {
      EdgeModel model(base);
      BatchGenerator gen(base, Mix64(args.seed ^ Mix64(k + 1)));
      auto session = start_session(k << 32);
      CpuRotation::Pinned pin(&session_cpus);
      ResultMap read;
      bool ok = true;
      for (size_t i = 0; ok && i < c.epochs_per_session; ++i) {
        const MutationBatch batch = gen.Next(&model);
        ++report->attempted;
        double ms = 0;
        ok = request(session.get(), batch, (k << 32) | i, &read, &ms);
        if (ok) {
          latencies.push_back(ms);
        } else {
          ++report->failed;
        }
      }
      if (ok) CheckEpoch(*session->run, read, model, report);
    }
    return latencies;
  };

  auto api_session = [&](uint64_t) { return setups.Time(start_session); };
  auto api_request = [](ApiSession* s, const MutationBatch& batch, uint64_t,
                        ResultMap* read, double* ms) {
    Timer timer;
    Status st = s->system->ApplyMutations("g", batch);
    if (!st.ok()) return false;
    auto result = s->run->ResultsAt(s->run->epochs_fed() - 1, kViews - 1);
    *ms = timer.Millis();
    if (!result.ok()) return false;
    *read = std::move(result).value();
    return true;
  };

  if (!args.traced()) {
    std::vector<double> latencies =
        run_phase(args.seconds, api_session, api_request);
    double busy_ms = 0;
    for (double ms : latencies) busy_ms += ms;
    AddEndToEnd(report, setups.median(), latencies, busy_ms / 1e3);
    return;
  }

  // Traced run: every batch goes through an API session (the overhead
  // baseline) and then through a layer session, back to back, so a change
  // in host speed hits both alike. The layers get the graph as the API
  // loads it: the generated graph, with the same content, runs faster.
  struct PairSession {
    std::unique_ptr<ApiSession> api;
    std::unique_ptr<LayerSession> layers;
    const views::LiveRun* run = nullptr;  // the layer session's
  };
  const PropertyGraph loaded = LoadGraphFromCsv(nodes_csv, edges_csv).value();
  SpanLog* log = report->NewSpanLog();
  LayerTotals totals;
  sched::WorkerAttribution attribution;
  differential::DataflowStats session_start;
  std::vector<double> api_latencies;
  double cpu_ms = 0;
  auto pair_session = [&](uint64_t request) {
    auto s = std::make_unique<PairSession>();
    s->api = start_session();
    s->layers = StartLayerSession(loaded, next_wal(), log, request, &totals);
    s->run = s->layers->run.get();
    session_start = s->run->EngineStats();
    return s;
  };
  auto pair_request = [&](PairSession* s, const MutationBatch& batch,
                          uint64_t request, ResultMap* read, double* ms) {
    ResultMap api_read;
    double api_ms = 0;
    const double cpu_before = ProcessCpuSeconds();
    if (!api_request(s->api.get(), batch, request, &api_read, &api_ms)) {
      return false;
    }
    cpu_ms += (ProcessCpuSeconds() - cpu_before) * 1e3;
    api_latencies.push_back(api_ms);
    if (!RequestViaLayers(s->layers.get(), batch, log, request, &totals,
                          &attribution, read, ms)) {
      return false;
    }
    if (api_read != *read) {
      report->Mismatch("live_ingest: the API and layer sessions read "
                       "different results");
    }
    // After the session's last epoch: fold in its engine counters.
    if (s->run->epochs_fed() == c.epochs_per_session + 1) {
      totals.AddEngine(s->run->EngineStats(), session_start);
    }
    return true;
  };
  std::vector<double> traced_latencies =
      run_phase(args.seconds, pair_session, pair_request);

  const auto ns = [](uint64_t v) { return static_cast<double>(v); };
  AddWorkerFractions({},
                     {{"busy", ns(attribution.busy_ns)},
                      {"exchange", ns(attribution.exchange_ns)},
                      {"barrier", ns(attribution.barrier_ns)},
                      {"seal", ns(attribution.seal_ns)},
                      {"idle", ns(attribution.idle_ns)}},
                     &report->layer);
  AddLayerSummary(totals, report);
  AddTraceOverhead(api_latencies, traced_latencies,
                   api_latencies.empty()
                       ? 0
                       : cpu_ms / static_cast<double>(api_latencies.size()),
                   report);
}

}  // namespace gs::bench::e2e
