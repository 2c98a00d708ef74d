// Wall-clock timing utilities used by the adaptive optimizer and benches,
// and the process-relative millisecond clock of in-progress markers.
#ifndef GRAPHSURGE_COMMON_TIMER_H_
#define GRAPHSURGE_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace gs {

/// Monotonic stopwatch. Starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Millis() const { return Seconds() * 1e3; }
  int64_t Micros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }
  int64_t Nanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Milliseconds since the first call in the process, on the steady clock,
/// counted from 1: no reading is 0, which in-progress markers such as
/// gs_live_epoch_advance_started_ms reserve for "none in flight". Only
/// differences between readings are meaningful.
inline uint64_t NowMillis() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return 1 + static_cast<uint64_t>(
                 std::chrono::duration_cast<std::chrono::milliseconds>(
                     Clock::now() - origin)
                     .count());
}

}  // namespace gs

#endif  // GRAPHSURGE_COMMON_TIMER_H_
