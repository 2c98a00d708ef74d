#include "common/sched_profile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/metrics.h"

namespace gs::sched {

namespace {

void AppendAttribution(std::string* out, size_t worker,
                       const WorkerAttribution& a) {
  char buf[320];
  const uint64_t total = a.total_ns();
  const double denom = total > 0 ? static_cast<double>(total) : 1.0;
  std::snprintf(
      buf, sizeof(buf),
      "{\"worker\": %zu, \"busy_ns\": %llu, \"exchange_ns\": %llu, "
      "\"barrier_ns\": %llu, \"seal_ns\": %llu, \"idle_ns\": %llu, "
      "\"total_ns\": %llu, \"busy_pct\": %.1f, \"exchange_pct\": %.1f, "
      "\"barrier_pct\": %.1f, \"seal_pct\": %.1f, \"idle_pct\": %.1f, "
      "\"events\": %llu, \"peak_pending\": %llu}",
      worker, static_cast<unsigned long long>(a.busy_ns),
      static_cast<unsigned long long>(a.exchange_ns),
      static_cast<unsigned long long>(a.barrier_ns),
      static_cast<unsigned long long>(a.seal_ns),
      static_cast<unsigned long long>(a.idle_ns),
      static_cast<unsigned long long>(total),
      100.0 * static_cast<double>(a.busy_ns) / denom,
      100.0 * static_cast<double>(a.exchange_ns) / denom,
      100.0 * static_cast<double>(a.barrier_ns) / denom,
      100.0 * static_cast<double>(a.seal_ns) / denom,
      100.0 * static_cast<double>(a.idle_ns) / denom,
      static_cast<unsigned long long>(a.events),
      static_cast<unsigned long long>(a.peak_pending));
  *out += buf;
}

}  // namespace

uint64_t ProfileNow() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* StateName(State state) {
  switch (state) {
    case State::kBusy: return "busy";
    case State::kExchange: return "exchange";
    case State::kBarrier: return "barrier";
    case State::kSeal: return "seal";
    case State::kIdle: return "idle";
  }
  return "unknown";
}

double ComputeSkew(const std::vector<uint64_t>& per_shard) {
  uint64_t sum = 0;
  uint64_t max = 0;
  for (uint64_t v : per_shard) {
    sum += v;
    if (v > max) max = v;
  }
  if (sum == 0) return 0.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(per_shard.size());
  return static_cast<double>(max) / mean;
}

StepProfile::StepProfile(std::string name, size_t num_workers)
    : name_(std::move(name)),
      num_workers_(num_workers > 0 ? num_workers : 1),
      current_(num_workers_),
      block_active_ns_(num_workers_, 0),
      last_events_(num_workers_, 0),
      totals_(num_workers_) {
  // Cache the per-(state, worker) registry counters once — StepEnd then
  // only does atomic adds, never a registry lookup.
  state_counters_.reserve(kNumStates * num_workers_);
  metrics::Registry& registry = metrics::Registry::Global();
  for (size_t s = 0; s < kNumStates; ++s) {
    for (size_t w = 0; w < num_workers_; ++w) {
      state_counters_.push_back(registry.GetCounter(
          "gs_sched_state_nanos",
          {{"state", StateName(static_cast<State>(s))},
           {"worker", std::to_string(w)}}));
    }
  }
}

void StepProfile::StepBegin(uint32_t version) {
  in_step_ = true;
  in_block_ = false;
  step_version_ = version;
  step_start_ns_ = ProfileNow();
  boundary_ns_ = step_start_ns_;
  for (WorkerAttribution& w : current_) w = WorkerAttribution();
}

void StepProfile::BlockBegin() {
  if (!in_step_) return;
  const uint64_t now = ProfileNow();
  const uint64_t gap = now - boundary_ns_;
  for (WorkerAttribution& w : current_) w.idle_ns += gap;
  std::fill(block_active_ns_.begin(), block_active_ns_.end(), uint64_t{0});
  boundary_ns_ = now;
  in_block_ = true;
}

void StepProfile::BlockEnd() {
  if (!in_step_ || !in_block_) return;
  const uint64_t now = ProfileNow();
  const uint64_t block_wall = now - boundary_ns_;
  for (size_t w = 0; w < num_workers_; ++w) {
    // A worker's active time can marginally exceed the coordinator-measured
    // block wall only through clock-read interleaving; clamp to keep the
    // tiling exact.
    const uint64_t active = std::min(block_active_ns_[w], block_wall);
    const uint64_t wait = block_wall - active;
    if (num_workers_ > 1) {
      current_[w].barrier_ns += wait;
    } else {
      // Inline pool: the "block remainder" is ParallelFor bookkeeping on
      // the one thread, not waiting on peers.
      current_[w].idle_ns += wait;
    }
  }
  boundary_ns_ = now;
  in_block_ = false;
}

void StepProfile::AddBusy(size_t w, uint64_t nanos) {
  current_[w].busy_ns += nanos;
  block_active_ns_[w] += nanos;
}

void StepProfile::AddExchange(size_t w, uint64_t nanos) {
  current_[w].exchange_ns += nanos;
  block_active_ns_[w] += nanos;
}

void StepProfile::AddSeal(size_t w, uint64_t nanos) {
  current_[w].seal_ns += nanos;
  block_active_ns_[w] += nanos;
}

void StepProfile::StepEnd(const StepInputs& inputs) {
  if (!in_step_) return;
  const uint64_t now = ProfileNow();
  const uint64_t gap = now - boundary_ns_;
  for (WorkerAttribution& w : current_) w.idle_ns += gap;
  const uint64_t wall = now - step_start_ns_;
  in_step_ = false;

  for (size_t w = 0; w < num_workers_; ++w) {
    if (w < inputs.per_worker_events.size()) {
      const uint64_t cumulative = inputs.per_worker_events[w];
      current_[w].events = cumulative - std::min(last_events_[w], cumulative);
      last_events_[w] = cumulative;
    }
    if (w < inputs.per_worker_peak_pending.size()) {
      current_[w].peak_pending = inputs.per_worker_peak_pending[w];
    }
  }

  for (size_t w = 0; w < num_workers_; ++w) {
    const WorkerAttribution& a = current_[w];
    state_counters_[static_cast<size_t>(State::kBusy) * num_workers_ + w]
        ->Increment(a.busy_ns);
    state_counters_[static_cast<size_t>(State::kExchange) * num_workers_ + w]
        ->Increment(a.exchange_ns);
    state_counters_[static_cast<size_t>(State::kBarrier) * num_workers_ + w]
        ->Increment(a.barrier_ns);
    state_counters_[static_cast<size_t>(State::kSeal) * num_workers_ + w]
        ->Increment(a.seal_ns);
    state_counters_[static_cast<size_t>(State::kIdle) * num_workers_ + w]
        ->Increment(a.idle_ns);
  }

  const double record_skew = ComputeSkew(inputs.per_shard_records);
  std::vector<uint64_t> cumulative_events(num_workers_, 0);
  for (size_t w = 0; w < num_workers_; ++w) {
    cumulative_events[w] = last_events_[w];
  }
  const double event_skew = ComputeSkew(cumulative_events);

  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    steps_ += 1;
    wall_ns_ += wall;
    exchange_batches_ = inputs.exchange_batches;
    for (size_t w = 0; w < num_workers_; ++w) totals_[w].Add(current_[w]);
    // totals_[w].events accumulated deltas; keep it equal to the cumulative
    // figure (Add() summed the per-step deltas, which is the same thing).
    if (!inputs.per_shard_records.empty()) {
      per_shard_records_ = inputs.per_shard_records;
      record_skew_ = record_skew;
    }
    event_skew_ = event_skew;
    VersionRecord record;
    record.version = step_version_;
    record.wall_ns = wall;
    record.workers = current_;
    recent_.push_back(std::move(record));
    while (recent_.size() > kRecentVersions) recent_.pop_front();
  }
}

StepProfile::Snapshot StepProfile::GetSnapshot() const {
  Snapshot snap;
  snap.num_workers = num_workers_;
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snap.steps = steps_;
  snap.wall_ns = wall_ns_;
  snap.exchange_batches = exchange_batches_;
  snap.totals = totals_;
  snap.per_shard_records = per_shard_records_;
  snap.record_skew = record_skew_;
  snap.event_skew = event_skew_;
  snap.recent.assign(recent_.begin(), recent_.end());
  return snap;
}

std::string StepProfile::RenderJson() const {
  Snapshot snap = GetSnapshot();
  using ull = unsigned long long;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"steps\": %llu, \"wall_ns\": %llu, "
                "\"exchange_batches\": %llu, \"attribution\": [",
                static_cast<ull>(snap.steps), static_cast<ull>(snap.wall_ns),
                static_cast<ull>(snap.exchange_batches));
  std::string out = buf;
  for (size_t w = 0; w < snap.totals.size(); ++w) {
    if (w) out += ", ";
    AppendAttribution(&out, w, snap.totals[w]);
  }
  std::snprintf(buf, sizeof(buf),
                "], \"skew\": {\"records_ratio\": %.4f, "
                "\"events_ratio\": %.4f, \"per_shard_records\": [",
                snap.record_skew, snap.event_skew);
  out += buf;
  for (size_t i = 0; i < snap.per_shard_records.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(snap.per_shard_records[i]);
  }
  out += "]}, \"recent\": [";
  for (size_t i = 0; i < snap.recent.size(); ++i) {
    const VersionRecord& r = snap.recent[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"version\": %u, \"wall_ns\": %llu, \"workers\": [",
                  i ? ", " : "", r.version, static_cast<ull>(r.wall_ns));
    out += buf;
    // Compact per-worker rows for the ring: [busy, exchange, barrier,
    // seal, idle] nanos, in StateName order.
    for (size_t w = 0; w < r.workers.size(); ++w) {
      const WorkerAttribution& a = r.workers[w];
      std::snprintf(buf, sizeof(buf), "%s[%llu, %llu, %llu, %llu, %llu]",
                    w ? ", " : "", static_cast<ull>(a.busy_ns),
                    static_cast<ull>(a.exchange_ns),
                    static_cast<ull>(a.barrier_ns),
                    static_cast<ull>(a.seal_ns), static_cast<ull>(a.idle_ns));
      out += buf;
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace gs::sched
