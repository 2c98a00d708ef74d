#include "common/crash_dump.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
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

}  // namespace gs
