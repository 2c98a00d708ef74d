// Crash-handler behaviour under the two races a supervisor's SIGABRT meets
// in practice: the signal lands on a thread inside a metrics-registry
// lookup (which holds the registry mutex), and a second SIGABRT arrives
// while the first one's dump is still being written. Each test runs the
// crash in a death-test child with alarm() as its hang detector, so a dump
// that blocks dies by SIGALRM instead of SIGABRT.
#include "common/crash_dump.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace_event.h"
#include "json_lite.h"

namespace gs {
namespace {

constexpr int kRecorderThreads = 8;
constexpr int kEventsPerThread = 16384;  // one full ring per thread

TEST(CrashDumpDeathTest, CrashInsideARegistryLookupDoesNotHang) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        alarm(10);
        unsetenv("GRAPHSURGE_TRACE");
        InstallCrashHandlers();
        // Long labels make the key each lookup builds under the registry
        // mutex nearly all of the lookup, so the signal below lands, almost
        // always, on a thread that holds the mutex.
        metrics::Registry::Labels labels;
        for (int i = 0; i < 16; ++i) {
          std::string key = "label_";
          key += std::to_string(i);
          labels[key] = std::string(256, 'x');
        }
        std::atomic<bool> looking_up{false};
        std::thread lookups([&labels, &looking_up] {
          for (;;) {
            metrics::Registry::Global().GetGauge("crash_dump_test", labels);
            looking_up.store(true);
          }
        });
        while (!looking_up.load()) std::this_thread::yield();
        pthread_kill(lookups.native_handle(), SIGABRT);
        lookups.join();  // not reached: the process dies by SIGABRT
      },
      testing::KilledBySignal(SIGABRT), "\\[crash\\] metrics snapshot");
}

TEST(CrashDumpDeathTest, SecondAbortWaitsForTheDumpToFinish) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // The death-test child re-runs this body, so the path must not depend on
  // the process.
  const std::string path = testing::TempDir() + "crash_dump_test_trace.json";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        alarm(20);
        setenv("GRAPHSURGE_TRACE", path.c_str(), 1);
        InstallCrashHandlers();
        // Full rings on several threads make a trace that takes
        // milliseconds to write, a window the second signal cannot miss.
        // No recorder exits before all have recorded: an exited thread's
        // ring goes to the next new recording thread.
        trace::SetEnabled(true);
        std::atomic<int> recorded{0};
        std::vector<std::thread> recorders;
        for (int t = 0; t < kRecorderThreads; ++t) {
          recorders.emplace_back([&recorded] {
            for (int i = 0; i < kEventsPerThread; ++i) {
              trace::AddInstantEvent("test", "event");
            }
            recorded.fetch_add(1);
            while (recorded.load() < kRecorderThreads) {
              std::this_thread::yield();
            }
          });
        }
        for (std::thread& t : recorders) t.join();
        // The dump opens the trace file once the JSON is rendered; the
        // moment the file exists, send the process a second SIGABRT. The
        // dumping thread blocks SIGABRT inside its handler, so this thread
        // takes it.
        std::thread second([path] {
          struct stat st;
          while (stat(path.c_str(), &st) != 0) usleep(20);
          kill(getpid(), SIGABRT);
          for (;;) pause();
        });
        std::raise(SIGABRT);
        second.join();  // not reached: the process dies by SIGABRT
      },
      testing::KilledBySignal(SIGABRT), "trace written to");
  // The dump ran to the end: the file holds every recorded event.
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  json_lite::Value root;
  std::string error;
  ASSERT_TRUE(json_lite::Parse(json, &root, &error))
      << error << " (" << json.size() << " bytes)";
  const json_lite::Value* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->array.size(),
            static_cast<size_t>(kRecorderThreads) * kEventsPerThread);
}

}  // namespace
}  // namespace gs
