#include "common/trace_event.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/crash_dump.h"
#include "common/logging.h"

namespace gs::trace {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point ProcessEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

struct Event {
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  const char* category = "";
  char name[kNameCapacity] = {0};
  int32_t tid = 0;
  char phase = 'X';
  uint32_t version = kNoVersion;
};

/// Locks `mu`; with a `deadline`, only until then (LockBy), so the returned
/// lock may not own the mutex.
std::unique_lock<std::mutex> LockUntil(
    std::mutex& mu, const std::optional<Clock::time_point>& deadline) {
  return deadline ? LockBy(mu, *deadline) : std::unique_lock<std::mutex>(mu);
}

/// Per-thread ring buffer. Only the owning thread writes, but readers (the
/// status server's /tracez, the crash-time flight recorder) may collect at
/// any moment, so both sides take the buffer's own mutex — uncontended in
/// steady state, and only held for a copy during a scrape.
class ThreadBuffer {
 public:
  static constexpr size_t kCapacity = 16384;

  ThreadBuffer() { events_.resize(kCapacity); }

  void Add(const Event& event) {
    std::lock_guard<std::mutex> lock(mutex_);
    events_[next_] = event;
    next_ = (next_ + 1) % kCapacity;
    if (next_ == 0) wrapped_ = true;
  }

  /// Appends the buffered events, oldest first. `max_events` == 0 keeps
  /// everything; otherwise only the newest `max_events` are appended. With
  /// a `deadline`, appends nothing if the buffer stays locked until then.
  void CollectInto(std::vector<Event>* out, size_t max_events,
                   const std::optional<Clock::time_point>& deadline) const {
    std::unique_lock<std::mutex> lock = LockUntil(mutex_, deadline);
    if (!lock.owns_lock()) return;
    size_t begin = out->size();
    if (wrapped_) {
      out->insert(out->end(), events_.begin() + next_, events_.end());
    }
    out->insert(out->end(), events_.begin(), events_.begin() + next_);
    size_t collected = out->size() - begin;
    if (max_events != 0 && collected > max_events) {
      auto first = out->begin() + static_cast<std::ptrdiff_t>(begin);
      out->erase(first,
                 first + static_cast<std::ptrdiff_t>(collected - max_events));
    }
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    next_ = 0;
    wrapped_ = false;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  size_t next_ = 0;
  bool wrapped_ = false;
};

/// Global list of all thread buffers ever created. Leaked so the atexit
/// dump installed by GRAPHSURGE_TRACE can still read it. A buffer outlives
/// its thread (the recorded events remain dumpable) and waits in `unowned`
/// until the next new recording thread takes it over, so memory follows
/// the peak number of live recording threads — not every thread ever
/// started, which grows with each ShardedDataflow's fresh pool.
struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<ThreadBuffer*> unowned;
  int32_t next_thread_index = 0;
};

BufferRegistry& Buffers() {
  static BufferRegistry* registry = new BufferRegistry();
  return *registry;
}

struct ThreadState {
  ThreadState() {
    BufferRegistry& registry = Buffers();
    std::lock_guard<std::mutex> lock(registry.mutex);
    if (registry.unowned.empty()) {
      registry.buffers.push_back(std::make_unique<ThreadBuffer>());
      buffer = registry.buffers.back().get();
    } else {
      buffer = registry.unowned.back();
      registry.unowned.pop_back();
    }
    // Synthetic tids start at 1000 so they never collide with worker ids.
    fallback_tid = 1000 + registry.next_thread_index++;
  }
  ~ThreadState() {
    BufferRegistry& registry = Buffers();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.unowned.push_back(buffer);
  }
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;

  ThreadBuffer* buffer = nullptr;
  int32_t fallback_tid = 0;
};

ThreadState& LocalState() {
  thread_local ThreadState state;
  return state;
}

int32_t EffectiveTid() {
  int worker = GetThreadWorkerId();
  return worker >= 0 ? worker : LocalState().fallback_tid;
}

void Record(char phase, const char* category, const char* name,
            uint64_t ts_ns, uint64_t dur_ns, uint32_t version) {
  Event event;
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  event.category = category;
  std::strncpy(event.name, name, kNameCapacity - 1);
  event.phase = phase;
  event.version = version;
  event.tid = EffectiveTid();
  LocalState().buffer->Add(event);
}

std::string JsonQuote(const char* s) {
  std::string out = "\"";
  for (; *s; ++s) {
    char c = *s;
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

/// Installs the GRAPHSURGE_TRACE env-var hook: enable recording at startup,
/// dump at exit. Lives in this TU so any binary referencing the recorder
/// (every engine binary: operator spans live in dataflow.h) gets it.
struct EnvTraceDump {
  EnvTraceDump() {
    const char* env = std::getenv("GRAPHSURGE_TRACE");
    if (env == nullptr || *env == '\0') return;
    Path() = env;
    SetEnabled(true);
    // A crash must not lose the recording the user asked for.
    InstallCrashHandlers();
    std::atexit(+[] {
      SetEnabled(false);
      Status status = WriteJson(Path());
      if (status.ok()) {
        std::fprintf(stderr, "[trace] wrote %s\n", Path().c_str());
      } else {
        std::fprintf(stderr, "[trace] dump failed: %s\n",
                     status.ToString().c_str());
      }
    });
  }

  static std::string& Path() {
    static std::string* path = new std::string();
    return *path;
  }
};

EnvTraceDump g_env_trace_dump;

}  // namespace

void SetEnabled(bool enabled) {
  // Make sure the epoch exists before the first event is recorded.
  ProcessEpoch();
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           ProcessEpoch())
          .count());
}

void AddCompleteEvent(const char* category, const char* name,
                      uint64_t start_ns, uint64_t duration_ns,
                      uint32_t version) {
  if (!Enabled()) return;
  Record('X', category, name, start_ns, duration_ns, version);
}

void AddInstantEvent(const char* category, const char* name,
                     uint32_t version) {
  if (!Enabled()) return;
  Record('i', category, name, NowNanos(), 0, version);
}

namespace {

/// Every ring's events (see ThreadBuffer::CollectInto); with a `deadline`,
/// what stays locked until then is left out.
std::vector<Event> CollectEvents(
    size_t max_events_per_thread,
    const std::optional<Clock::time_point>& deadline) {
  std::vector<Event> events;
  BufferRegistry& registry = Buffers();
  std::unique_lock<std::mutex> lock = LockUntil(registry.mutex, deadline);
  if (!lock.owns_lock()) return events;
  for (const auto& buffer : registry.buffers) {
    buffer->CollectInto(&events, max_events_per_thread, deadline);
  }
  return events;
}

std::string RenderJson(const std::vector<Event>& events) {
  std::string out = "{\"traceEvents\": [";
  char buf[160];
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i) out += ",";
    out += "\n  {\"name\": " + JsonQuote(e.name) +
           ", \"cat\": " + JsonQuote(e.category);
    std::snprintf(buf, sizeof(buf),
                  ", \"ph\": \"%c\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d",
                  e.phase, static_cast<double>(e.ts_ns) / 1e3, e.tid);
    out += buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f",
                    static_cast<double>(e.dur_ns) / 1e3);
      out += buf;
    }
    if (e.version != kNoVersion) {
      std::snprintf(buf, sizeof(buf), ", \"args\": {\"version\": %u}",
                    e.version);
      out += buf;
    }
    out += "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace

std::string ToJson() { return RenderJson(CollectEvents(0, std::nullopt)); }

std::string ToJsonTail(size_t max_events_per_thread) {
  return RenderJson(CollectEvents(max_events_per_thread, std::nullopt));
}

Status WriteJson(const std::string& path,
                 std::optional<Clock::time_point> deadline) {
  std::string json = RenderJson(CollectEvents(0, deadline));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Internal("short write to trace output file: " + path);
  }
  return Status::Ok();
}

void ClearForTest() {
  BufferRegistry& registry = Buffers();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (auto& buffer : registry.buffers) buffer->Clear();
}

size_t ThreadBufferCountForTest() {
  BufferRegistry& registry = Buffers();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.buffers.size();
}

}  // namespace gs::trace
