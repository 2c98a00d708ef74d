// Crash-time flight recorder: flushes the trace_event ring buffers and a
// metrics snapshot when the process dies abnormally (GS_CHECK failure or a
// fatal signal), so the atexit trace dump installed by GRAPHSURGE_TRACE is
// not lost to the crash.
//
// The dump is best-effort, not async-signal-safe in the strict sense: it
// allocates while rendering JSON. That is the standard flight-recorder
// trade-off — the process is dying anyway, and the alternative is losing
// the data every time. The crash may have interrupted a thread holding a
// lock the dump needs, so the dump runs on a standby thread with its own
// malloc arena and waits at most 100 ms for each trace-recorder and
// metrics-registry lock, leaving out what stays locked.
#ifndef GRAPHSURGE_COMMON_CRASH_DUMP_H_
#define GRAPHSURGE_COMMON_CRASH_DUMP_H_

#include <chrono>
#include <mutex>
#include <thread>

namespace gs {

/// The dump's bounded wait for a lock: polls try_lock until `deadline` (the
/// returned lock may not own `mu`). A polled try_lock rather than a timed
/// mutex, whose clock-based wait the thread sanitizer does not see.
template <typename Mutex>
std::unique_lock<Mutex> LockBy(Mutex& mu,
                               std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<Mutex> lock(mu, std::try_to_lock);
  while (!lock.owns_lock() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    lock.try_lock();
  }
  return lock;
}

/// Flushes the flight recorder: writes the trace buffers to the path named
/// by GRAPHSURGE_TRACE (if set; skipped otherwise) and the metrics registry
/// JSON snapshot to stderr, prefixed with `reason`. Only the first caller
/// dumps. A later call on another thread waits until that dump has
/// finished; a recursive call on the dumping thread returns immediately.
void DumpFlightRecorder(const char* reason);

/// Installs SIGSEGV/SIGABRT handlers that dump the flight recorder and then
/// re-raise with the default disposition (so exit codes and core dumps are
/// unchanged), and starts the standby dump thread. The handlers stay
/// installed during the dump, so a second signal waits for it. Idempotent;
/// never overwrites handlers installed by sanitizer runtimes.
void InstallCrashHandlers();

}  // namespace gs

#endif  // GRAPHSURGE_COMMON_CRASH_DUMP_H_
