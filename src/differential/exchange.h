// Cross-worker data exchange for sharded execution (the timely "exchange
// pact"). Keyed operators (join/reduce) own state for a key only on the
// worker `HashValue(key) % num_workers`; an ExchangeOp spliced in front of
// them routes each update to its owner: records already local are delivered
// through the shard's own scheduler, records owned elsewhere are pushed
// into the owner's mutex-protected inbox and delivered when that shard next
// drains (Dataflow::DrainExchangeInboxes, driven by sharded.h).
//
// Channel identity: worker shards are built by running one deterministic
// builder per shard, so the n-th AllocateExchangeChannel() call on every
// shard denotes the same logical edge, with the same record type D. The hub
// stores endpoints type-erased and the (identically instantiated) ExchangeOp
// template casts them back.
#ifndef GRAPHSURGE_DIFFERENTIAL_EXCHANGE_H_
#define GRAPHSURGE_DIFFERENTIAL_EXCHANGE_H_

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "differential/dataflow.h"
#include "differential/fuzz_hooks.h"

namespace gs::differential {

/// Registry of exchange endpoints plus the global in-flight batch count
/// used by the sharded driver's termination check: after a barrier (all
/// shards' schedulers drained, nobody running), in_flight() == 0 if and
/// only if every pushed batch has been delivered — global quiescence.
class ExchangeHub {
 public:
  explicit ExchangeHub(size_t num_workers) : num_workers_(num_workers) {}

  ExchangeHub(const ExchangeHub&) = delete;
  ExchangeHub& operator=(const ExchangeHub&) = delete;

  size_t num_workers() const { return num_workers_; }

  /// Registers worker `worker`'s inbox for `channel`. Called serially while
  /// the shard graphs are built (before any worker thread runs).
  void RegisterInbox(uint32_t channel, size_t worker, void* inbox) {
    if (inboxes_.size() <= channel) inboxes_.resize(channel + 1);
    auto& row = inboxes_[channel];
    if (row.empty()) row.assign(num_workers_, nullptr);
    GS_CHECK(row[worker] == nullptr)
        << "exchange channel " << channel << " registered twice on worker "
        << worker;
    row[worker] = inbox;
  }

  /// The peer inbox for (channel, worker); null until that shard's graph
  /// has been built.
  void* inbox(uint32_t channel, size_t worker) const {
    GS_CHECK(channel < inboxes_.size() && worker < num_workers_);
    return inboxes_[channel][worker];
  }

  void NotePushed() {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    total_pushed_.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteDrained(size_t batches) {
    in_flight_.fetch_sub(static_cast<int64_t>(batches),
                         std::memory_order_relaxed);
  }

  /// Number of pushed-but-undelivered batches. Only meaningful as a
  /// quiescence check while no worker is running (post-barrier).
  int64_t in_flight() const { return in_flight_.load(std::memory_order_seq_cst); }

  /// Cumulative cross-worker batches ever pushed through this hub — the
  /// exchange-traffic figure the scheduling report (a dataflow's "sched"
  /// block in /statusz) pairs with per-worker exchange-drain time.
  uint64_t total_pushed() const {
    return total_pushed_.load(std::memory_order_relaxed);
  }

 private:
  size_t num_workers_;
  std::vector<std::vector<void*>> inboxes_;  // [channel][worker]
  std::atomic<int64_t> in_flight_{0};
  std::atomic<uint64_t> total_pushed_{0};
};

/// One shard's receive queue for one exchange channel. Pushed to by peer
/// worker threads, drained by the owning shard; the mutex is the only
/// synchronization data crossing shards ever needs.
template <typename D>
class ExchangeInbox {
 public:
  void Push(const Time& time, Batch<D>&& batch) {
    std::lock_guard<std::mutex> lock(mutex_);
    items_.emplace_back(time, std::move(batch));
  }

  std::vector<std::pair<Time, Batch<D>>> Drain() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(items_, {});
  }

  /// Payload bytes currently queued (record size × update count). Takes the
  /// inbox mutex, so it is safe against concurrent peer pushes.
  size_t QueuedBytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t updates = 0;
    for (const auto& [time, batch] : items_) updates += batch.size();
    return updates * sizeof(Update<D>);
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<Time, Batch<D>>> items_;
};

/// Repartitions a stream across worker shards: update u goes to worker
/// `part(u.data) % num_workers`. Local records short-circuit through this
/// shard's InputPort; remote records travel via the owner's inbox. Either
/// way delivery is a scheduled RunAt, so downstream operators observe one
/// consolidated batch per timestamp exactly as in serial mode.
template <typename D, typename PartFn>
class ExchangeOp : public OperatorBase {
 public:
  ExchangeOp(Dataflow* dataflow, Stream<D> in, PartFn part)
      : OperatorBase(dataflow, "exchange"),
        part_(std::move(part)),
        num_workers_(dataflow->options().num_workers),
        worker_(dataflow->worker_index()),
        hub_(dataflow->exchange_hub()),
        channel_(dataflow->AllocateExchangeChannel()) {
    GS_CHECK(dataflow->sharded()) << "ExchangeOp outside sharded execution";
    hub_->RegisterInbox(channel_, worker_, &inbox_);
    dataflow->RegisterInboxDrainer([this] { return DrainInbox(); });
    RegisterOutput(&output_);
    in.publisher()->Subscribe(dataflow, order(),
                              [this](const Time& t, const Batch<D>& b) {
                                Route(t, b);
                              });
  }

  Stream<D> stream() { return Stream<D>(dataflow_, &output_); }

  void CollectMemory(OperatorMemory* out) const override {
    out->queued_bytes += port_.buffered_bytes() + inbox_.QueuedBytes();
  }

 private:
  void Route(const Time& time, const Batch<D>& batch) {
    std::vector<Batch<D>> parts(num_workers_);
    for (const Update<D>& u : batch) {
      parts[part_(u.data) % num_workers_].push_back(u);
    }
    for (size_t w = 0; w < num_workers_; ++w) {
      if (parts[w].empty()) continue;
      if (w == worker_) {
        port_.Append(time, parts[w]);
        RequestRun(time);
      } else {
        dataflow_->stats().exchanged_updates += parts[w].size();
        dataflow_->stats().exchanged_bytes +=
            parts[w].size() * sizeof(Update<D>);
        auto* peer = static_cast<ExchangeInbox<D>*>(hub_->inbox(channel_, w));
        GS_CHECK(peer != nullptr) << "peer shard not yet built";
        // Count before pushing: the receiver may drain (and decrement)
        // concurrently, and in_flight must never transiently suggest
        // quiescence while a batch is still in an inbox.
        hub_->NotePushed();
        peer->Push(time, std::move(parts[w]));
      }
    }
  }

  bool DrainInbox() {
    std::vector<std::pair<Time, Batch<D>>> items = inbox_.Drain();
    if (items.empty()) return false;
    // Fuzz hook (fuzz_hooks.h): delivery order within one drain is
    // unordered by contract — receivers bucket per timestamp and the
    // scheduler orders the timestamps — so the fuzzer may permute it. The
    // permutation is a pure function of (seed, channel, worker, drain
    // count), so a replayed case perturbs deliveries the same way.
    const fuzz::Hooks& fz = fuzz::GlobalHooks();
    if (fz.shuffle_exchange && items.size() > 1) {
      const uint64_t salt =
          fuzz::Mix(fz.seed ^ (static_cast<uint64_t>(channel_) << 40) ^
                    (static_cast<uint64_t>(worker_) << 32) ^ drains_);
      std::vector<size_t> order(items.size());
      std::iota(order.begin(), order.end(), size_t{0});
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return fuzz::Mix(salt ^ a) < fuzz::Mix(salt ^ b);
      });
      std::vector<std::pair<Time, Batch<D>>> shuffled;
      shuffled.reserve(items.size());
      for (size_t i : order) shuffled.push_back(std::move(items[i]));
      items = std::move(shuffled);
    }
    ++drains_;
    for (auto& [time, batch] : items) {
      port_.Append(time, batch);
      RequestRun(time);
    }
    hub_->NoteDrained(items.size());
    return true;
  }

  void RunAt(const Time& time) override {
    output_.Publish(dataflow_, time, port_.Take(time));
  }

  PartFn part_;
  size_t num_workers_;
  size_t worker_;
  ExchangeHub* hub_;
  uint32_t channel_;
  uint64_t drains_ = 0;  // salts the fuzz shuffle per drain
  ExchangeInbox<D> inbox_;
  InputPort<D> port_;
  Publisher<D> output_;
};

/// Routes a keyed stream to each key's owning worker. No-op (returns the
/// input stream unchanged) outside sharded execution, so serial dataflows
/// pay nothing.
template <typename K, typename V>
Stream<std::pair<K, V>> ExchangeByKey(Stream<std::pair<K, V>> in) {
  Dataflow* df = in.dataflow();
  if (!df->sharded()) return in;
  auto part = [](const std::pair<K, V>& d) { return HashValue(d.first); };
  auto* op =
      df->AddOperator<ExchangeOp<std::pair<K, V>, decltype(part)>>(
          in, std::move(part));
  return op->stream();
}

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_EXCHANGE_H_
