// Low-overhead span/event recorder serializing to the Chrome trace-event
// JSON format (loadable in chrome://tracing and ui.perfetto.dev).
//
// Design: each thread records into its own fixed-capacity ring buffer under
// a per-buffer mutex (no allocation on the hot path, no cross-thread
// contention — the lock is only ever contended by a live scrape; the newest
// events win when a buffer wraps). When recording is disabled — the default
// — every entry point is a single relaxed atomic load. Timestamps come from
// the monotonic clock, measured from a process-wide epoch.
//
// Events carry the worker id set via gs::SetThreadWorkerId (logging.h) as
// their Chrome `tid`, so per-worker-shard tracks line up in the UI; threads
// without a worker id get a stable synthetic tid (1000 + thread index).
//
// Setting the environment variable GRAPHSURGE_TRACE=<path> in any binary
// that links the engine enables recording at startup and dumps the trace to
// <path> at process exit.
#ifndef GRAPHSURGE_COMMON_TRACE_EVENT_H_
#define GRAPHSURGE_COMMON_TRACE_EVENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "common/status.h"

namespace gs::trace {

/// Sentinel for events without a version argument.
inline constexpr uint32_t kNoVersion = 0xFFFFFFFFu;

/// Event name capacity; longer names are truncated at record time.
inline constexpr size_t kNameCapacity = 48;

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// Whether events are currently recorded. The hot-path gate: one relaxed
/// atomic load.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on/off. Existing buffered events are kept.
void SetEnabled(bool enabled);

/// Nanoseconds since the process trace epoch (monotonic clock).
uint64_t NowNanos();

/// Records a completed span ('X' phase). `category` must be a string with
/// static storage duration; `name` is copied (truncated to kNameCapacity-1).
void AddCompleteEvent(const char* category, const char* name,
                      uint64_t start_ns, uint64_t duration_ns,
                      uint32_t version = kNoVersion);

/// Records an instant event ('i' phase).
void AddInstantEvent(const char* category, const char* name,
                     uint32_t version = kNoVersion);

/// Serializes all buffered events (across all threads) to Chrome trace JSON:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Safe to call while
/// recording continues (each buffer is copied under its mutex), though a
/// snapshot taken mid-run is naturally a point-in-time view.
std::string ToJson();

/// Like ToJson(), but keeps only the newest `max_events_per_thread` events
/// of each thread's ring buffer — the /tracez "last-N spans" view, cheap
/// enough to serve while a run is recording.
std::string ToJsonTail(size_t max_events_per_thread);

/// Writes ToJson() to `path`. The crash handler, which must not block,
/// passes a `deadline`: the recorder's locks are waited for only until
/// then, and a ring still locked (its holder may be the thread the crash
/// interrupted) is left out.
Status WriteJson(const std::string& path,
                 std::optional<std::chrono::steady_clock::time_point>
                     deadline = std::nullopt);

/// Drops all buffered events (tests).
void ClearForTest();

/// Per-thread ring buffers allocated so far (tests).
size_t ThreadBufferCountForTest();

/// RAII span: captures the start time at construction, records one complete
/// event at destruction. No-op (two relaxed loads) while disabled; a span
/// that starts disabled stays disabled even if recording is enabled
/// mid-span.
class Span {
 public:
  Span(const char* category, const char* name, uint32_t version = kNoVersion)
      : category_(category), version_(version) {
    if (!Enabled()) {
      start_ns_ = kDisabled;
      return;
    }
    CopyName(name);
    start_ns_ = NowNanos();
  }

  Span(const char* category, const std::string& name,
       uint32_t version = kNoVersion)
      : Span(category, name.c_str(), version) {}

  ~Span() {
    if (start_ns_ == kDisabled) return;
    AddCompleteEvent(category_, name_, start_ns_, NowNanos() - start_ns_,
                     version_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr uint64_t kDisabled = UINT64_MAX;

  void CopyName(const char* name) {
    std::strncpy(name_, name, kNameCapacity - 1);
    name_[kNameCapacity - 1] = '\0';
  }

  const char* category_;
  char name_[kNameCapacity];
  uint64_t start_ns_;
  uint32_t version_;
};

}  // namespace gs::trace

#define GS_TRACE_CONCAT_IMPL(a, b) a##b
#define GS_TRACE_CONCAT(a, b) GS_TRACE_CONCAT_IMPL(a, b)
/// Scoped span covering the rest of the enclosing block, tagged with a
/// version argument (shown under "args" in the UI).
#define GS_TRACE_SPAN_V(category, name, version)                            \
  ::gs::trace::Span GS_TRACE_CONCAT(gs_trace_span_, __LINE__)(category, name, \
                                                              version)

#endif  // GRAPHSURGE_COMMON_TRACE_EVENT_H_
