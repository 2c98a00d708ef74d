#include "common/crash_dump.h"

#include <pthread.h>
#include <semaphore.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace_event.h"

namespace gs {

namespace {

// kIdle until a caller claims the dump, kDone once it is written.
enum DumpState : int { kIdle = 0, kDumping, kDone };
std::atomic<int> g_dump_state{kIdle};
// Set on the thread that claimed the dump: a fault inside the dump is told
// apart from a second crash on another thread.
thread_local bool t_dumping = false;
std::atomic<bool> g_handlers_installed{false};

// The standby dump thread, started with the signal handlers. A signal may
// interrupt a thread inside malloc, holding its arena's lock, so the thread
// that claims the dump does not allocate: it hands the dump to this thread,
// which allocates from an arena of its own, and waits. A forked child has
// no standby thread and dumps inline.
std::atomic<bool> g_standby_running{false};
sem_t g_dump_requested;
sem_t g_dump_written;
const char* g_dump_reason = "";
void* volatile g_standby_first_allocation = nullptr;

// How long the dump waits for each lock it needs — the trace recorder's,
// then the metrics registry's — before it goes on without what the lock
// guards: the crash may have interrupted the thread that holds it.
constexpr std::chrono::milliseconds kLockWait{100};
using Clock = std::chrono::steady_clock;

void WriteDump(const char* reason) {
  std::fprintf(stderr, "[crash] %s: dumping flight recorder\n", reason);
  const char* trace_path = std::getenv("GRAPHSURGE_TRACE");
  if (trace_path != nullptr && *trace_path != '\0') {
    trace::SetEnabled(false);
    Status status = trace::WriteJson(trace_path, Clock::now() + kLockWait);
    if (status.ok()) {
      std::fprintf(stderr, "[crash] trace written to %s\n", trace_path);
    } else {
      std::fprintf(stderr, "[crash] trace dump failed: %s\n",
                   status.ToString().c_str());
    }
  }
  std::string snapshot;
  if (metrics::Registry::Global().TryJsonSnapshot(Clock::now() + kLockWait,
                                                  &snapshot)) {
    std::fprintf(stderr, "[crash] metrics snapshot: %s\n", snapshot.c_str());
  } else {
    std::fprintf(stderr,
                 "[crash] metrics snapshot skipped: registry busy for "
                 "%lld ms\n",
                 static_cast<long long>(kLockWait.count()));
  }
  std::fflush(stderr);
}

void StandbyLoop() {
  // Never take a process-directed signal: the crash signals belong to the
  // threads the standby serves.
  sigset_t all;
  sigfillset(&all);
  pthread_sigmask(SIG_BLOCK, &all, nullptr);
  // Attaches this thread to a malloc arena now rather than mid-crash.
  g_standby_first_allocation = std::malloc(1);
  while (sem_wait(&g_dump_requested) != 0) {
  }
  t_dumping = true;  // a crash inside the dump falls through
  WriteDump(g_dump_reason);
  sem_post(&g_dump_written);
}

void CrashSignalHandler(int sig) {
  // The handler stays installed while the dump runs: a second signal, on
  // another thread, waits in DumpFlightRecorder for the dump to finish
  // instead of ending the process mid-write. On the dumping thread (a
  // crash inside the dump) it returns at once and SIG_DFL below ends it.
  const char* reason = sig == SIGSEGV   ? "SIGSEGV"
                       : sig == SIGABRT ? "SIGABRT"
                                        : "fatal signal";
  DumpFlightRecorder(reason);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

/// Installs `handler` for `sig` unless something other than the default
/// handler is already installed (a sanitizer runtime, a test harness) —
/// their crash reporting is more valuable than ours. Returns whether it
/// installed.
bool MaybeInstall(int sig) {
  struct sigaction current;
  if (sigaction(sig, nullptr, &current) != 0) return false;
  if ((current.sa_flags & SA_SIGINFO) != 0 ||
      (current.sa_handler != SIG_DFL && current.sa_handler != SIG_IGN)) {
    return false;
  }
  struct sigaction action = {};
  action.sa_handler = CrashSignalHandler;
  sigemptyset(&action.sa_mask);
  return sigaction(sig, &action, nullptr) == 0;
}

}  // namespace

void DumpFlightRecorder(const char* reason) {
  int expected = kIdle;
  if (!g_dump_state.compare_exchange_strong(expected, kDumping)) {
    // Another thread is dumping: wait, so that this thread's exit (an
    // abort, a re-raised signal) cannot cut the dump short.
    while (!t_dumping && g_dump_state.load() != kDone) {
      const timespec pause = {0, 1000000};
      nanosleep(&pause, nullptr);
    }
    return;
  }
  t_dumping = true;
  if (g_standby_running.load()) {
    g_dump_reason = reason;
    sem_post(&g_dump_requested);
    while (sem_wait(&g_dump_written) != 0) {
    }
  } else {
    WriteDump(reason);
  }
  g_dump_state.store(kDone);
}

void InstallCrashHandlers() {
  if (g_handlers_installed.exchange(true)) return;
  const bool segv = MaybeInstall(SIGSEGV);
  const bool abrt = MaybeInstall(SIGABRT);
  if (!segv && !abrt) return;
  sem_init(&g_dump_requested, 0, 0);
  sem_init(&g_dump_written, 0, 0);
  pthread_atfork(nullptr, nullptr, [] { g_standby_running.store(false); });
  // Detached: it lives as long as the process and is never joined.
  std::thread(StandbyLoop).detach();
  g_standby_running.store(true);
}

}  // namespace gs
