#include "common/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>


namespace gs::metrics {

namespace internal {

size_t ThreadShardSlot() {
  static std::atomic<size_t> next_slot{0};
  thread_local size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return slot;
}

}  // namespace internal

namespace {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
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

/// Splits a series key into (family, label body): "a{b=\"c\"}" → ("a",
/// "b=\"c\""); label body is empty for unlabeled series.
std::pair<std::string, std::string> SplitKey(const std::string& key) {
  size_t brace = key.find('{');
  if (brace == std::string::npos) return {key, ""};
  std::string labels = key.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.pop_back();
  return {key.substr(0, brace), labels};
}

/// Rendered series line name with an extra label appended (for histogram
/// `le` labels, which must merge into any existing label set).
std::string WithLabel(const std::string& family, const std::string& labels,
                      const std::string& extra) {
  std::string all = labels;
  if (!all.empty() && !extra.empty()) all += ",";
  all += extra;
  if (all.empty()) return family;
  return family + "{" + all + "}";
}

void AppendTypeLine(std::string* out, std::string* last_family,
                    const std::string& family, const char* type) {
  if (family == *last_family) return;
  *last_family = family;
  *out += "# TYPE " + family + " " + type + "\n";
}

std::string LeBound(size_t bucket) {
  if (Histogram::BucketUpperBound(bucket) == UINT64_MAX) return "+Inf";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64,
                Histogram::BucketUpperBound(bucket));
  return buf;
}

}  // namespace

Registry& Registry::Global() {
  static Registry* global = new Registry();  // leaked: alive during atexit
  // Build attribution rides on every scrape of the global registry (and
  // only the global one — tests construct label-free local registries).
  // Registered through the local pointer, not Global(), so the magic-static
  // guard is not re-entered.
  static const bool build_info_registered = [] {
    global->GetGauge("gs_build_info", BuildInfoLabels())->Set(1);
    return true;
  }();
  (void)build_info_registered;
  return *global;
}

std::string Registry::MakeKey(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string key = name + "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) key += ",";
    first = false;
    key += k + "=\"" + v + "\"";
  }
  key += "}";
  return key;
}

Counter* Registry::GetCounter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[MakeKey(name, labels)];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[MakeKey(name, labels)];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[MakeKey(name, labels)];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string Registry::ExpositionText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::string last_family;
  char buf[48];
  for (const auto& [key, counter] : counters_) {
    auto [family, labels] = SplitKey(key);
    AppendTypeLine(&out, &last_family, family, "counter");
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", counter->Value());
    out += key + buf;
  }
  for (const auto& [key, gauge] : gauges_) {
    auto [family, labels] = SplitKey(key);
    AppendTypeLine(&out, &last_family, family, "gauge");
    std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", gauge->Value());
    out += key + buf;
  }
  for (const auto& [key, histogram] : histograms_) {
    auto [family, labels] = SplitKey(key);
    AppendTypeLine(&out, &last_family, family, "histogram");
    // Cumulative bucket counts, per Prometheus histogram convention.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      uint64_t count = histogram->BucketCount(i);
      // Zero-count interior buckets are skipped to keep the exposition
      // readable; the +Inf bucket is always present.
      if (count == 0 && i + 1 < Histogram::kNumBuckets) continue;
      cumulative += count;
      std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", cumulative);
      out += WithLabel(family + "_bucket", labels,
                       "le=\"" + LeBound(i) + "\"") +
             buf;
    }
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", histogram->Sum());
    out += WithLabel(family + "_sum", labels, "") + buf;
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", histogram->Count());
    out += WithLabel(family + "_count", labels, "") + buf;
  }
  return out;
}

std::string Registry::JsonSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\": {";
  char buf[48];
  bool first = true;
  for (const auto& [key, counter] : counters_) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%" PRIu64, counter->Value());
    out += JsonQuote(key) + ": " + buf;
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [key, gauge] : gauges_) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%" PRId64, gauge->Value());
    out += JsonQuote(key) + ": " + buf;
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [key, histogram] : histograms_) {
    if (!first) out += ", ";
    first = false;
    // 33 fixed chars + two uint64s (20 digits each) overflows buf[48].
    char hbuf[96];
    std::snprintf(hbuf, sizeof(hbuf), "{\"count\": %" PRIu64
                                      ", \"sum\": %" PRIu64 ", \"buckets\": {",
                  histogram->Count(), histogram->Sum());
    out += JsonQuote(key) + ": " + hbuf;
    bool first_bucket = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      uint64_t count = histogram->BucketCount(i);
      if (count == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      std::snprintf(buf, sizeof(buf), "%" PRIu64, count);
      out += JsonQuote(LeBound(i)) + ": " + buf;
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

void Registry::VisitScalars(
    const std::function<void(const std::string& key, double value,
                             bool is_counter)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, counter] : counters_) {
    fn(key, static_cast<double>(counter->Value()), true);
  }
  for (const auto& [key, gauge] : gauges_) {
    fn(key, static_cast<double>(gauge->Value()), false);
  }
}

std::array<uint64_t, Histogram::kNumBuckets> BucketSnapshot(
    const Histogram& histogram) {
  std::array<uint64_t, Histogram::kNumBuckets> buckets{};
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    buckets[i] = histogram.BucketCount(i);
  }
  return buckets;
}

double QuantileFromBuckets(
    const std::array<uint64_t, Histogram::kNumBuckets>& buckets, double q) {
  uint64_t total = 0;
  for (uint64_t count : buckets) total += count;
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const uint64_t previous = cumulative;
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) < target) continue;
    const double lower =
        b == 0 ? 0.0
               : static_cast<double>(Histogram::BucketUpperBound(b - 1));
    // +Inf bucket: no finite upper bound to interpolate toward.
    if (b + 1 == Histogram::kNumBuckets) return lower;
    const double upper = static_cast<double>(Histogram::BucketUpperBound(b));
    double fraction =
        (target - static_cast<double>(previous)) /
        static_cast<double>(buckets[b]);
    if (fraction < 0.0) fraction = 0.0;
    if (fraction > 1.0) fraction = 1.0;
    return lower + fraction * (upper - lower);
  }
  return 0.0;  // unreachable: total > 0 means some bucket crossed target
}

double HistogramQuantile(const Histogram& histogram, double q) {
  return QuantileFromBuckets(BucketSnapshot(histogram), q);
}

const Registry::Labels& BuildInfoLabels() {
  static const Registry::Labels* labels = [] {
    auto* l = new Registry::Labels();
#ifdef GS_BUILD_GIT_SHA
    (*l)["git_sha"] = GS_BUILD_GIT_SHA;
#else
    (*l)["git_sha"] = "unknown";
#endif
#if defined(__clang_version__)
    (*l)["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__VERSION__)
    (*l)["compiler"] = std::string("gcc ") + __VERSION__;
#else
    (*l)["compiler"] = "unknown";
#endif
    return l;
  }();
  return *labels;
}

}  // namespace gs::metrics
