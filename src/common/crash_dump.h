// Crash-time flight recorder: flushes the trace_event ring buffers and a
// metrics snapshot when the process dies abnormally (GS_CHECK failure or a
// fatal signal), so the atexit trace dump installed by GRAPHSURGE_TRACE is
// not lost to the crash.
//
// The dump is best-effort, not async-signal-safe in the strict sense: it
// allocates while rendering JSON. That is the standard flight-recorder
// trade-off — the process is dying anyway, and the alternative is losing
// the data every time. A one-shot guard prevents recursion (a crash inside
// the dump falls through to the default handler).
#ifndef GRAPHSURGE_COMMON_CRASH_DUMP_H_
#define GRAPHSURGE_COMMON_CRASH_DUMP_H_

namespace gs {

/// Flushes the flight recorder: writes the trace buffers to the path named
/// by GRAPHSURGE_TRACE (if set; skipped otherwise) and the metrics registry
/// JSON snapshot to stderr, prefixed with `reason`. Idempotent — only the
/// first caller dumps; later (possibly recursive) calls return immediately.
void DumpFlightRecorder(const char* reason);

/// Installs SIGSEGV/SIGABRT handlers that dump the flight recorder and then
/// re-raise with the default disposition (so exit codes and core dumps are
/// unchanged). Idempotent; never overwrites handlers installed by sanitizer
/// runtimes (it chains by resetting to SIG_DFL only for its own signals).
void InstallCrashHandlers();

}  // namespace gs

#endif  // GRAPHSURGE_COMMON_CRASH_DUMP_H_
