// Differential timestamps: (version, iteration-vector) with the product
// partial order, as in differential computation (Abadi, McSherry, Plotkin).
//
// A view collection is a *totally ordered* sequence of versions; loop
// iterations (one coordinate per nested `Iterate` scope) are partially
// ordered against the version dimension. The engine processes versions in
// order and, within a version, schedules work in lexicographic time order —
// a linear extension of the product order (see scheduler.h).
#ifndef GRAPHSURGE_DIFFERENTIAL_TIME_H_
#define GRAPHSURGE_DIFFERENTIAL_TIME_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace gs::differential {

/// Maximum supported nesting depth of Iterate scopes. The doubly-iterative
/// SCC coloring algorithm needs 2; 4 leaves headroom.
inline constexpr int kMaxNesting = 4;

/// Sentinel iteration coordinate used only in scheduler keys to order a
/// scope-egress flush after all events inside the scope.
inline constexpr uint32_t kIterInfinity = 0xFFFFFFFFu;

/// A partially ordered timestamp.
struct Time {
  uint32_t version = 0;
  uint8_t depth = 0;  // number of active iteration coordinates
  std::array<uint32_t, kMaxNesting> iters = {0, 0, 0, 0};

  Time() = default;
  explicit Time(uint32_t v) : version(v) {}

  /// Timestamp with one more (innermost) iteration coordinate, set to 0.
  /// Used by scope ingress.
  Time Entered() const {
    GS_CHECK(depth < kMaxNesting) << "Iterate nesting deeper than supported";
    Time t = *this;
    t.iters[t.depth++] = 0;
    return t;
  }

  /// Timestamp with the innermost coordinate dropped. Used by scope egress.
  Time Left() const {
    GS_CHECK(depth > 0);
    Time t = *this;
    t.iters[--t.depth] = 0;
    return t;
  }

  /// Timestamp with the innermost coordinate advanced by `steps`. Used by
  /// the loop feedback edge.
  Time Delayed(uint32_t steps = 1) const {
    GS_CHECK(depth > 0);
    Time t = *this;
    t.iters[depth - 1] += steps;
    return t;
  }

  uint32_t inner_iteration() const {
    GS_CHECK(depth > 0);
    return iters[depth - 1];
  }

  /// Product partial order: this ≤ other iff every coordinate is ≤.
  /// Only meaningful for equal-depth times (same scope).
  bool LessEq(const Time& other) const {
    if (version > other.version) return false;
    for (int i = 0; i < depth; ++i) {
      if (iters[i] > other.iters[i]) return false;
    }
    return true;
  }

  /// Least upper bound under the product order (equal depth required).
  Time Lub(const Time& other) const {
    Time t;
    t.version = std::max(version, other.version);
    t.depth = depth;
    for (int i = 0; i < depth; ++i) {
      t.iters[i] = std::max(iters[i], other.iters[i]);
    }
    return t;
  }

  bool operator==(const Time& other) const {
    if (version != other.version || depth != other.depth) return false;
    for (int i = 0; i < depth; ++i) {
      if (iters[i] != other.iters[i]) return false;
    }
    return true;
  }

  /// Lexicographic total order (version, iters...) — a linear extension of
  /// the product order used for canonical history ordering and scheduling.
  bool LexLess(const Time& other) const {
    if (version != other.version) return version < other.version;
    int d = std::max(depth, other.depth);
    for (int i = 0; i < d; ++i) {
      uint32_t a = i < depth ? iters[i] : 0;
      uint32_t b = i < other.depth ? other.iters[i] : 0;
      if (a != b) return a < b;
    }
    return false;
  }

  std::string ToString() const {
    std::string s = "<";
    s += std::to_string(version);
    for (int i = 0; i < depth; ++i) {
      s += ", ";
      s += iters[i] == kIterInfinity ? "inf" : std::to_string(iters[i]);
    }
    s += ">";
    return s;
  }
};

/// Mapping between the engine's flat version axis and the two logical
/// dimensions of a *live* view collection: graph-update epoch (outer) and
/// view position within the collection (inner).
///
/// The engine's versions are totally ordered; a live collection's logical
/// time is the product (epoch, view) where both components are themselves
/// totally ordered and epochs dominate. Epoch-major flattening
///   version = epoch * num_views + view
/// is exactly the lexicographic order on (epoch, view), i.e. a linear
/// extension of that product order — so feeding flattened versions through
/// the existing differential machinery computes the right accumulations at
/// every (epoch, view) pair without widening Time itself.
struct EpochVersion {
  static uint32_t Flatten(uint32_t epoch, uint32_t view, uint32_t num_views) {
    GS_CHECK(view < num_views);
    return epoch * num_views + view;
  }
  /// Inverse of Flatten: (epoch, view).
  static std::pair<uint32_t, uint32_t> Unflatten(uint32_t version,
                                                 uint32_t num_views) {
    return {version / num_views, version % num_views};
  }
};

/// Comparator for ordered containers keyed by Time (lexicographic order).
struct TimeLexLess {
  bool operator()(const Time& a, const Time& b) const { return a.LexLess(b); }
};

struct TimeHasher {
  size_t operator()(const Time& t) const {
    uint64_t seed = Mix64(t.version);
    HashCombine(&seed, t.depth);
    for (int i = 0; i < t.depth; ++i) HashCombine(&seed, t.iters[i]);
    return static_cast<size_t>(seed);
  }
};

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_TIME_H_
