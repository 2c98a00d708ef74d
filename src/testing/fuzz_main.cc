// fuzz_differential: deterministic property-based fuzzing of the
// differential engine over random view collections.
//
//   fuzz_differential --seed 1 --runs 200 --max-nodes 24
//   fuzz_differential --replay repro_12345.case
//
// Identical invocations produce byte-identical output; see
// src/testing/fuzz_driver.h and DESIGN.md §8.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/crash_dump.h"
#include "common/watchdog.h"
#include "testing/fuzz_driver.h"

namespace {

void Usage() {
  std::cerr
      << "usage: fuzz_differential [options]\n"
      << "  --seed N        campaign seed (default 1)\n"
      << "  --runs N        number of cases to run (default 100)\n"
      << "  --max-nodes N   max nodes per generated graph (default 24)\n"
      << "  --out-dir DIR   where to write repro_* artifacts (default .)\n"
      << "  --replay FILE   replay a repro_*.case file and exit\n";
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  gs::InstallCrashHandlers();
  // Opt-in watchdog (GRAPHSURGE_WATCHDOG): a stalled or wedged fuzz case
  // then produces a flight_*.json dump in GRAPHSURGE_FLIGHT_DIR alongside
  // the repro_* artifacts.
  gs::watchdog::Watchdog::MaybeStartFromEnv();
  gs::testing::FuzzOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (!v || !ParseUint(v, &options.seed)) return Usage(), 2;
    } else if (arg == "--runs") {
      const char* v = next();
      if (!v || !ParseUint(v, &options.runs)) return Usage(), 2;
    } else if (arg == "--max-nodes") {
      const char* v = next();
      if (!v || !ParseUint(v, &options.max_nodes)) return Usage(), 2;
    } else if (arg == "--out-dir") {
      const char* v = next();
      if (!v) return Usage(), 2;
      options.out_dir = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (!v) return Usage(), 2;
      options.replay_path = v;
    } else if (arg == "--inject-bug") {
      // Undocumented: plants a known lost-insert bug to exercise the
      // catch -> minimize -> repro pipeline end to end.
      options.inject_bug = true;
    } else if (arg == "--emit-gvdl-corpus") {
      // Undocumented: prints the malformed-predicate corpus used by
      // tests/gvdl_corpus/.
      options.emit_gvdl_corpus = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      Usage();
      return 2;
    }
  }
  return gs::testing::RunFuzz(options, std::cout);
}
