// graphsurge_serve: stand-alone query-serving front end.
//
//   graphsurge_serve --port 8080 --graph Calls=nodes.csv,edges.csv
//   graphsurge_serve --port 8080 --generate G=2000x8000x7
//
// Loads the named graphs into the host store, starts the HTTP front end,
// prints the bound port, and serves until SIGINT/SIGTERM. The same
// listener answers analytics (POST /query) and every status page
// (/metrics, /statusz, /profilez, ...) — see server/query_server.h for the
// protocol.
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.h"
#include "graph/generators.h"
#include "server/query_server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--threads N] [--workers N] [--max-sessions N]\n"
      "          [--graph NAME=nodes.csv,edges.csv]...\n"
      "          [--generate NAME=NODESxEDGESxSEED]...\n",
      argv0);
  return 2;
}

/// Parses all of `text` as a decimal integer in [min, max].
bool ParseInRange(const char* text, size_t min, size_t max, size_t* out) {
  if (text == nullptr || !std::isdigit(static_cast<unsigned char>(*text))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value < min || value > max) return false;
  *out = static_cast<size_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 8080;
  gs::server::QueryServerOptions options;
  struct CsvSpec {
    std::string name, nodes, edges;
  };
  struct GenSpec {
    std::string name;
    size_t nodes = 0, edges = 0;
    unsigned long seed = 0;  // NOLINT: matches the %lu scan below
  };
  std::vector<CsvSpec> csv_graphs;
  std::vector<GenSpec> generated;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Numeric flags: the port is 0 (ephemeral) to 65535, counts are >= 1.
    constexpr size_t kMax = std::numeric_limits<size_t>::max();
    size_t* count = arg == "--threads"        ? &options.num_threads
                    : arg == "--workers"      ? &options.num_workers
                    : arg == "--max-sessions" ? &options.max_sessions
                                              : nullptr;
    if (arg == "--port") {
      size_t value = 0;
      if (!ParseInRange(next(), 0, 65535, &value)) return Usage(argv[0]);
      port = static_cast<uint16_t>(value);
    } else if (count != nullptr) {
      if (!ParseInRange(next(), 1, kMax, count)) return Usage(argv[0]);
    } else if (arg == "--graph") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      const std::string spec = v;
      size_t eq = spec.find('=');
      size_t comma = spec.find(',', eq == std::string::npos ? 0 : eq);
      if (eq == std::string::npos || comma == std::string::npos) {
        return Usage(argv[0]);
      }
      csv_graphs.push_back({spec.substr(0, eq),
                            spec.substr(eq + 1, comma - eq - 1),
                            spec.substr(comma + 1)});
    } else if (arg == "--generate") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      const std::string spec = v;
      size_t eq = spec.find('=');
      if (eq == std::string::npos) return Usage(argv[0]);
      GenSpec gen;
      gen.name = spec.substr(0, eq);
      if (std::sscanf(spec.c_str() + eq + 1, "%zux%zux%lu", &gen.nodes,
                      &gen.edges, &gen.seed) != 3) {
        return Usage(argv[0]);
      }
      generated.push_back(gen);
    } else {
      return Usage(argv[0]);
    }
  }

  gs::server::QueryServer server(options);
  for (const CsvSpec& spec : csv_graphs) {
    gs::Status s = server.LoadGraphCsv(spec.name, spec.nodes, spec.edges);
    if (!s.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", spec.name.c_str(),
                   s.ToString().c_str());
      return 1;
    }
  }
  for (const GenSpec& spec : generated) {
    gs::Status s = server.AddGraph(
        spec.name, gs::GenerateUniformGraph(spec.nodes, spec.edges,
                                            spec.seed));
    if (!s.ok()) {
      std::fprintf(stderr, "failed to generate %s: %s\n", spec.name.c_str(),
                   s.ToString().c_str());
      return 1;
    }
  }

  gs::Status s = server.Start(port);
  if (!s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // Machine-readable first line: CI smoke scripts parse the bound port.
  std::printf("listening on http://127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.Stop();
  return 0;
}
