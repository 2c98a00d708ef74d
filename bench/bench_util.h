// Shared helpers for the paper-reproduction bench harnesses: aligned table
// printing, strategy sweeps, and the workload builders used by several
// tables/figures.
#ifndef GRAPHSURGE_BENCH_BENCH_UTIL_H_
#define GRAPHSURGE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/graphsurge.h"
#include "algorithms/algorithms.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "server/status_server.h"

namespace gs::bench {

// ---------------------------------------------------------------------------
// Output formatting

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::vector<std::string>& cells,
                     const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%-*s", widths[std::min(i, widths.size() - 1)],
                cells[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

inline std::string Secs(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fs", s);
  return buf;
}

inline std::string Factor(double base, double other) {
  char buf[32];
  if (other <= 0) return "-";
  std::snprintf(buf, sizeof(buf), "%.1fx", base / other);
  return buf;
}

inline std::string Count(uint64_t n) {
  char buf[32];
  if (n >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.0fK", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(n));
  }
  return buf;
}

// ---------------------------------------------------------------------------
// Machine-readable results
//
// Every bench binary emits a BENCH_<name>.json next to its table output so
// the perf trajectory across commits can be tracked without parsing tables.
// Layout: {"bench": <name>, "meta": {...}, "metrics": {...},
// "rows": [{...}, ...]} — one row object per printed table row, fields
// named by the caller; "metrics" is the process-wide metrics-registry
// snapshot (common/metrics.h) taken when the report is written.

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {
    // Every bench binary is scrapeable: GRAPHSURGE_STATUS_PORT starts the
    // embedded status server here, whether the harness drives the engine
    // directly or through an api::Graphsurge (which serves no HTTP).
    server::StatusServer::MaybeStartFromEnv();
  }

  /// A single result row; fields keep insertion order.
  class Row {
   public:
    Row& Str(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, Quote(value));
      return *this;
    }
    Row& Num(const std::string& key, double value) {
      char buf[40];
      if (!std::isfinite(value)) {
        std::snprintf(buf, sizeof(buf), "null");
      } else {
        std::snprintf(buf, sizeof(buf), "%.9g", value);
      }
      fields_.emplace_back(key, buf);
      return *this;
    }
    Row& Int(const std::string& key, uint64_t value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }

   private:
    friend class BenchReport;
    static std::string Quote(const std::string& s) {
      std::string out = "\"";
      for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
              char buf[8];
              std::snprintf(buf, sizeof(buf), "\\u%04x", c);
              out += buf;
            } else {
              out += c;
            }
        }
      }
      out += '"';
      return out;
    }
    std::string Render() const {
      std::string out = "{";
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (i) out += ", ";
        out += Quote(fields_[i].first) + ": " + fields_[i].second;
      }
      out += "}";
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// Run-level metadata (graph sizes, view counts, worker counts, ...).
  Row& Meta() { return meta_; }
  /// Appends and returns a new result row (reference stays valid — rows are
  /// deque-backed).
  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Output path: $GS_BENCH_JSON_DIR/BENCH_<name>.json, or the current
  /// directory when the env var is unset.
  std::string path() const {
    std::string dir;
    if (const char* env = std::getenv("GS_BENCH_JSON_DIR")) dir = env;
    if (!dir.empty() && dir.back() != '/') dir += '/';
    return dir + "BENCH_" + name_ + ".json";
  }

  /// Writes the report; call once at the end of main().
  void Write() const {
    std::string out = "{\n  \"bench\": " + Row::Quote(name_) + ",\n";
    out += "  \"meta\": " + meta_.Render() + ",\n";
    out += "  \"metrics\": " + metrics::Registry::Global().JsonSnapshot() +
           ",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out += "    " + rows_[i].Render();
      out += i + 1 < rows_.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    std::string file = path();
    if (std::FILE* f = std::fopen(file.c_str(), "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", file.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", file.c_str());
    }
  }

 private:
  std::string name_;
  Row meta_;
  std::deque<Row> rows_;
};

// ---------------------------------------------------------------------------
// Strategy sweeps

struct StrategyTimes {
  double diff_only = 0;
  double scratch = 0;
  double adaptive = 0;
  size_t adaptive_splits = 0;
  /// Engine counters of the diff-only run (join matches, trace sizes, ...).
  differential::DataflowStats diff_stats;
};

/// Runs `computation` on `collection_name` under all three strategies.
inline StrategyTimes RunAllStrategies(const Graphsurge& system,
                                      const analytics::Computation& computation,
                                      const std::string& collection_name,
                                      views::ExecutionOptions options =
                                          views::ExecutionOptions()) {
  StrategyTimes times;
  for (auto strategy :
       {splitting::Strategy::kDiffOnly, splitting::Strategy::kScratch,
        splitting::Strategy::kAdaptive}) {
    options.strategy = strategy;
    Timer timer;
    auto result = system.RunComputation(computation, collection_name, options);
    double seconds = timer.Seconds();
    if (!result.ok()) {
      std::fprintf(stderr, "run failed (%s on %s): %s\n",
                   splitting::StrategyName(strategy), collection_name.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    switch (strategy) {
      case splitting::Strategy::kDiffOnly:
        times.diff_only = seconds;
        times.diff_stats = result->engine_stats;
        break;
      case splitting::Strategy::kScratch:
        times.scratch = seconds;
        break;
      case splitting::Strategy::kAdaptive:
        times.adaptive = seconds;
        times.adaptive_splits = result->num_splits;
        break;
    }
  }
  return times;
}

/// Standard JSON row for a three-strategy sweep: wall times per strategy
/// plus the diff-only run's engine counters (join-match throughput is the
/// headline efficiency metric tracked across commits).
inline void AddStrategyRow(BenchReport* report, const std::string& algo,
                           const std::string& config, size_t views,
                           const StrategyTimes& times) {
  const differential::DataflowStats& s = times.diff_stats;
  report->AddRow()
      .Str("algo", algo)
      .Str("config", config)
      .Int("views", views)
      .Num("diff_only_s", times.diff_only)
      .Num("scratch_s", times.scratch)
      .Num("adaptive_s", times.adaptive)
      .Int("adaptive_splits", times.adaptive_splits)
      .Int("join_matches", s.join_matches)
      .Num("join_matches_per_s",
           times.diff_only > 0
               ? static_cast<double>(s.join_matches) / times.diff_only
               : 0)
      .Int("updates_published", s.updates_published)
      .Int("reduce_evaluations", s.reduce_evaluations)
      .Int("arrangement_shares", s.arrangement_shares);
}

// ---------------------------------------------------------------------------
// Workload builders

/// GVDL for an expanding-window collection over a temporal graph: the first
/// view covers [0, initial]; each later view extends by `step` until
/// `end` (paper §7.2 Csim).
inline std::string ExpandingWindowsGvdl(const std::string& name,
                                        const std::string& graph,
                                        int64_t initial, int64_t step,
                                        int64_t end) {
  std::string q = "create view collection " + name + " on " + graph + " ";
  size_t i = 0;
  for (int64_t hi = initial; hi <= end; hi += step, ++i) {
    if (i) q += ", ";
    q += "[w" + std::to_string(i) + ": timestamp <= " + std::to_string(hi) +
         "]";
    if (hi == end) break;
    if (hi + step > end) {  // final view covers the full range
      q += ", [w" + std::to_string(i + 1) +
           ": timestamp <= " + std::to_string(end) + "]";
      break;
    }
  }
  return q;
}

/// GVDL for completely disjoint sliding windows (paper §7.2 Cno).
inline std::string DisjointWindowsGvdl(const std::string& name,
                                       const std::string& graph,
                                       int64_t window, int64_t end) {
  std::string q = "create view collection " + name + " on " + graph + " ";
  size_t i = 0;
  for (int64_t lo = 0; lo < end; lo += window, ++i) {
    int64_t hi = std::min(end, lo + window);
    if (i) q += ", ";
    q += "[s" + std::to_string(i) + ": timestamp > " + std::to_string(lo) +
         " and timestamp <= " + std::to_string(hi) + "]";
  }
  return q;
}

/// Random-perturbation difference batches (Table 2's controlled
/// collections): view 0 is the base graph; each later view adds `adds` new
/// random edges and removes `removes` present ones.
inline std::vector<std::vector<views::EdgeDiff>> RandomPerturbationBatches(
    const PropertyGraph& graph, size_t num_views, size_t adds, size_t removes,
    uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<views::EdgeDiff>> batches;
  std::vector<EdgeId> present;
  std::vector<EdgeId> absent;
  // Start with ~80% of edges present so there is headroom to add.
  std::vector<bool> in(graph.num_edges(), false);
  std::vector<views::EdgeDiff> base;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (rng.Bernoulli(0.8)) {
      in[e] = true;
      present.push_back(e);
      base.push_back({e, 1});
    } else {
      absent.push_back(e);
    }
  }
  batches.push_back(std::move(base));
  for (size_t v = 1; v < num_views; ++v) {
    std::vector<views::EdgeDiff> batch;
    for (size_t a = 0; a < adds && !absent.empty(); ++a) {
      size_t idx = rng.Index(absent.size());
      EdgeId e = absent[idx];
      absent[idx] = absent.back();
      absent.pop_back();
      present.push_back(e);
      batch.push_back({e, 1});
    }
    for (size_t r = 0; r < removes && present.size() > 1; ++r) {
      size_t idx = rng.Index(present.size());
      EdgeId e = present[idx];
      present[idx] = present.back();
      present.pop_back();
      absent.push_back(e);
      batch.push_back({e, -1});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// All k-subsets of {0..n-1} (perturbation-analysis view enumeration,
/// paper §7.4's C(N,k) collections).
inline std::vector<std::vector<size_t>> Combinations(size_t n, size_t k) {
  std::vector<std::vector<size_t>> out;
  std::vector<size_t> cur;
  std::function<void(size_t)> rec = [&](size_t start) {
    if (cur.size() == k) {
      out.push_back(cur);
      return;
    }
    for (size_t i = start; i + (k - cur.size()) <= n; ++i) {
      cur.push_back(i);
      rec(i + 1);
      cur.pop_back();
    }
  };
  rec(0);
  return out;
}

/// First vertex with an outgoing edge (the paper's BFS/MPSP source rule).
inline VertexId FirstSource(const PropertyGraph& graph) {
  return graph.num_edges() > 0 ? graph.edge(0).src : 0;
}

}  // namespace gs::bench

#endif  // GRAPHSURGE_BENCH_BENCH_UTIL_H_
