// Update batches: the unit of data exchange between operators. All updates
// in a batch share one timestamp, carried alongside the batch.
#ifndef GRAPHSURGE_DIFFERENTIAL_UPDATE_H_
#define GRAPHSURGE_DIFFERENTIAL_UPDATE_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <vector>

namespace gs::differential {

/// Signed multiplicity of a record change (negative = retraction).
using Diff = int64_t;

/// The value of a keyed record whose content is its key and its diff alone,
/// as Weigh's output is (operators.h). All Units are equal.
struct Unit {
  auto operator<=>(const Unit&) const = default;
};

/// One record change.
template <typename D>
struct Update {
  D data;
  Diff diff;
};

/// A set of updates at a single timestamp.
template <typename D>
using Batch = std::vector<Update<D>>;

/// Sorts by record and merges updates of equal records, dropping zeros.
/// Requires operator< on D.
template <typename D>
void Consolidate(Batch<D>* batch) {
  if (batch->empty()) return;
  std::sort(batch->begin(), batch->end(),
            [](const Update<D>& a, const Update<D>& b) {
              return a.data < b.data;
            });
  size_t out = 0;
  for (size_t i = 0; i < batch->size();) {
    D& data = (*batch)[i].data;
    Diff total = 0;
    size_t j = i;
    while (j < batch->size() && (*batch)[j].data == data) {
      total += (*batch)[j].diff;
      ++j;
    }
    if (total != 0) {
      if (out != i) (*batch)[out].data = std::move(data);  // no self-move
      (*batch)[out].diff = total;
      ++out;
    }
    i = j;
  }
  batch->resize(out);
}

/// Sum of |diff| over the batch — the "size" of a difference set as used by
/// the paper's optimizers.
template <typename D>
uint64_t UpdateMagnitude(const Batch<D>& batch) {
  uint64_t total = 0;
  for (const Update<D>& u : batch) {
    total += static_cast<uint64_t>(u.diff < 0 ? -u.diff : u.diff);
  }
  return total;
}

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_UPDATE_H_
