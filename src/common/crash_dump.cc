#include "common/crash_dump.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/introspect.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/trace_event.h"

namespace gs {

namespace {

std::atomic<bool> g_dumped{false};
std::atomic<bool> g_handlers_installed{false};

void CrashSignalHandler(int sig) {
  // Restore the default disposition first: a crash inside the dump (or the
  // re-raise below) then terminates instead of recursing.
  std::signal(sig, SIG_DFL);
  const char* reason = sig == SIGSEGV   ? "SIGSEGV"
                       : sig == SIGABRT ? "SIGABRT"
                                        : "fatal signal";
  DumpFlightRecorder(reason);
  std::raise(sig);
}

/// Installs `handler` for `sig` unless something other than the default
/// handler is already installed (a sanitizer runtime, a test harness) —
/// their crash reporting is more valuable than ours.
void MaybeInstall(int sig) {
  struct sigaction current;
  if (sigaction(sig, nullptr, &current) != 0) return;
  if ((current.sa_flags & SA_SIGINFO) != 0 ||
      (current.sa_handler != SIG_DFL && current.sa_handler != SIG_IGN)) {
    return;
  }
  struct sigaction action = {};
  action.sa_handler = CrashSignalHandler;
  sigemptyset(&action.sa_mask);
  sigaction(sig, &action, nullptr);
}

}  // namespace

void DumpFlightRecorder(const char* reason) {
  if (g_dumped.exchange(true)) return;
  std::fprintf(stderr, "[crash] %s: dumping flight recorder\n", reason);
  const char* trace_path = std::getenv("GRAPHSURGE_TRACE");
  if (trace_path != nullptr && *trace_path != '\0') {
    trace::SetEnabled(false);
    Status status = trace::WriteJson(trace_path);
    if (status.ok()) {
      std::fprintf(stderr, "[crash] trace written to %s\n", trace_path);
    } else {
      std::fprintf(stderr, "[crash] trace dump failed: %s\n",
                   status.ToString().c_str());
    }
  }
  std::string snapshot = metrics::Registry::Global().JsonSnapshot();
  std::fprintf(stderr, "[crash] metrics snapshot: %s\n", snapshot.c_str());
  std::fflush(stderr);
}

void InstallCrashHandlers() {
  if (g_handlers_installed.exchange(true)) return;
  MaybeInstall(SIGSEGV);
  MaybeInstall(SIGABRT);
}

std::string RenderFlightRecorderJson(const char* reason,
                                     const std::vector<std::string>& rules) {
  const uint64_t unix_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::string out = "{\"reason\": \"";
  out += introspect::JsonEscape(reason == nullptr ? "" : reason);
  out += "\", \"violated_rules\": [";
  for (size_t i = 0; i < rules.size(); ++i) {
    out += i ? ", \"" : "\"";
    out += introspect::JsonEscape(rules[i]);
    out += '"';
  }
  out += "], \"timestamp_ms\": " + std::to_string(unix_ms);
  out += ", \"uptime_ms\": " + std::to_string(NowMillis());
  out += ", \"build\": {";
  bool first = true;
  for (const auto& [key, value] : metrics::BuildInfoLabels()) {
    out += first ? "\"" : ", \"";
    first = false;
    out += introspect::JsonEscape(key);
    out += "\": \"";
    out += introspect::JsonEscape(value);
    out += '"';
  }
  out += "}, \"trace_events\": " + trace::ToJsonTail(256);
  out += ", \"metrics\": " + metrics::Registry::Global().JsonSnapshot();
  out += "}\n";
  return out;
}

Status WriteFlightRecorderFile(const std::string& path, const char* reason,
                               const std::vector<std::string>& rules) {
  std::string doc = RenderFlightRecorderJson(reason, rules);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open flight dump file: " + path);
  }
  size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  int close_rc = std::fclose(f);
  if (written != doc.size() || close_rc != 0) {
    return Status::Internal("short write to flight dump file: " + path);
  }
  return Status::Ok();
}

}  // namespace gs
