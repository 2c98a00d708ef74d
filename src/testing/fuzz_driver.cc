#include "testing/fuzz_driver.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/crash_dump.h"
#include "differential/fuzz_hooks.h"
#include "testing/generators.h"
#include "testing/minimize.h"
#include "testing/oracle.h"

namespace gs::testing {

namespace fuzz = ::gs::differential::fuzz;

namespace {

/// The planted lost-insert bug (--inject-bug): a fixed ring-with-chords WCC
/// case whose Nth trace insert is silently dropped. The drop point is
/// searched deterministically so the corruption is guaranteed to be
/// output-visible (a dropped duplicate would be silently absorbed). The
/// first two views keep the whole ring in component 0, where WCC's arranged
/// plan absorbs a lost insert; the third cuts the ring into several
/// components, so a lost adjacency row changes some vertex's label.
FuzzCase InjectBugCase(uint64_t seed) {
  FuzzCase c;
  c.case_seed = fuzz::Mix(seed ^ 0xb06b06ull);
  c.num_nodes = 12;
  for (uint64_t i = 0; i < 12; ++i) {
    c.edges.push_back({i, (i + 1) % 12, 1, static_cast<int64_t>(i % 4)});
    c.edges.push_back(
        {i, (i * 5 + 3) % 12, 2, static_cast<int64_t>((i + 1) % 4)});
  }
  c.predicates = {"w >= 0", "kind != 3", "kind != 1 and kind != 3"};
  c.program.algo = Algo::kWcc;
  c.workers = 2;
  c.schedule_seed = fuzz::Mix(c.case_seed ^ 0x5c5c5c5cull);
  // Reduces outside nested loops keep their history in per-key indexes
  // fed from the batches, not in traces, so only some drop points corrupt
  // the output — search a wide range.
  for (uint64_t drop = 1; drop <= 512; ++drop) {
    c.drop_insert_at = drop;
    std::string scratch;
    if (!RunOracle(c, &scratch).ok()) break;
  }
  return c;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

/// Minimizes a failing case and writes the replayable artifacts. Log lines
/// mention artifact file names only (never directories), keeping the
/// campaign log machine-independent.
void HandleFailure(const FuzzCase& failing, const Status& status,
                   const FuzzOptions& options, std::ostream& out) {
  out << "FAIL case " << failing.case_seed << ": " << status.ToString()
      << "\n";
  FuzzCase minimal = Minimize(failing);
  std::string check_log;
  Status minimal_status = RunOracle(minimal, &check_log);
  out << "minimized case " << failing.case_seed << ": nodes="
      << minimal.num_nodes << " edges=" << minimal.edges.size()
      << " views=" << minimal.predicates.size() << " ("
      << minimal_status.ToString() << ")\n";
  const std::string stem =
      options.out_dir + "/repro_" + std::to_string(failing.case_seed);
  if (WriteFile(stem + ".case", minimal.Serialize()) &&
      WriteFile(stem + ".cc", minimal.ReproSource())) {
    out << "artifacts: repro_" << failing.case_seed << ".case repro_"
        << failing.case_seed << ".cc\n";
  } else {
    out << "artifacts: write failed\n";
  }
  DumpFlightRecorder("fuzz oracle failure");
}

}  // namespace

int RunFuzz(const FuzzOptions& options, std::ostream& out) {
  if (options.emit_gvdl_corpus) {
    for (const std::string& p :
         GenerateMalformedPredicates(options.seed, 50)) {
      out << p << "\n";
    }
    return 0;
  }

  if (!options.replay_path.empty()) {
    std::ifstream in(options.replay_path);
    if (!in) {
      out << "cannot open replay file: " << options.replay_path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto parsed = FuzzCase::Parse(buf.str());
    if (!parsed.ok()) {
      out << "bad case file: " << parsed.status().ToString() << "\n";
      return 2;
    }
    std::string log;
    Status status = RunOracle(parsed.value(), &log);
    out << log;
    if (!status.ok()) {
      out << "FAIL: " << status.ToString() << "\n";
      return 1;
    }
    out << "PASS\n";
    return 0;
  }

  uint64_t failures = 0;
  for (uint64_t i = 0; i < options.runs; ++i) {
    FuzzCase c;
    if (options.inject_bug && i == 0) {
      c = InjectBugCase(options.seed);
    } else {
      const uint64_t case_seed = fuzz::Mix(options.seed ^ (i + 1));
      c = GenerateCase(case_seed, options.max_nodes);
      if (options.fault_every != 0 &&
          i % options.fault_every == options.fault_every - 1) {
        // Small budgets: generated cases are tiny, so per-version event
        // counts are too. Some cases still finish under the budget —
        // exercising both the triggered and not-triggered paths.
        c.fail_after_events = 1 + case_seed % 8;
      }
    }
    std::string log;
    Status status = RunOracle(c, &log);
    out << log;
    if (!status.ok()) {
      HandleFailure(c, status, options, out);
      if (++failures >= options.max_failures) {
        out << "stopping after " << failures << " failures\n";
        break;
      }
    }
  }
  out << "fuzz: seed=" << options.seed << " runs=" << options.runs
      << " failures=" << failures << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace gs::testing
