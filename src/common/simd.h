// Word-at-a-time compare kernels for the batch data plane: each kernel
// evaluates a comparison over `n` contiguous rows and writes one selection
// bit per row into an array of 64-bit mask words (bit j of out[w] is row
// 64w + j; trailing bits of the last word are zero). The kernels are
// portable loops; the speed of the batch path comes from evaluating a
// whole mask program per 64-row word (gvdl/batch_eval.h), not from
// hand-written vector code.
//
// Comparison semantics match PropertyValue::Compare exactly:
//   - doubles use the ordered three-way (a<b, a>b, else "equal") rule, so
//     NaN compares "equal" to everything — kernels replicate this rather
//     than IEEE unordered semantics;
//   - int64 comparisons are exact (used for bool columns widened to 0/1 and
//     by callers that know both sides are integral);
//   - uint64 comparisons order big-endian-packed 8-byte string prefixes:
//     lexicographic byte order == unsigned order of the packed word.
#ifndef GRAPHSURGE_COMMON_SIMD_H_
#define GRAPHSURGE_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace gs::simd {

/// Comparison operator, mirroring gvdl::CompareOp (kept separate so the
/// kernels do not depend on the GVDL AST).
enum class Cmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// Applies `op` to a three-way comparison result (<0, 0, >0).
inline bool ApplyCmp(Cmp op, int c) {
  switch (op) {
    case Cmp::kEq:
      return c == 0;
    case Cmp::kNe:
      return c != 0;
    case Cmp::kLt:
      return c < 0;
    case Cmp::kLe:
      return c <= 0;
    case Cmp::kGt:
      return c > 0;
    case Cmp::kGe:
      return c >= 0;
  }
  return false;
}

/// Number of mask words a kernel writes for `n` rows.
inline size_t MaskWords(size_t n) { return (n + 63) / 64; }

/// Big-endian 8-byte prefix of a string: lexicographic comparison of two
/// strings' first 8 bytes equals unsigned comparison of their prefixes.
/// Strings shorter than 8 bytes are zero-padded; a prefix tie therefore
/// requires a full scalar comparison (zero padding is indistinguishable
/// from embedded NUL bytes).
uint64_t StringPrefix(const std::string& s);

// ---------------------------------------------------------------------------
// Kernels. `v` (and `a`/`b` for the Pairs forms) hold `n` rows; `out`
// receives MaskWords(n) words.

void CmpF64Const(const double* v, size_t n, Cmp op, double c, uint64_t* out);
void CmpF64Pairs(const double* a, const double* b, size_t n, Cmp op,
                 uint64_t* out);
void CmpI64Const(const int64_t* v, size_t n, Cmp op, int64_t c,
                 uint64_t* out);
void CmpI64Pairs(const int64_t* a, const int64_t* b, size_t n, Cmp op,
                 uint64_t* out);
void CmpU64Const(const uint64_t* v, size_t n, Cmp op, uint64_t c,
                 uint64_t* out);
void CmpU64Pairs(const uint64_t* a, const uint64_t* b, size_t n, Cmp op,
                 uint64_t* out);

/// Validity/bool bytes → mask: bit j set iff v[64w + j] != 0.
void BytesNonZero(const uint8_t* v, size_t n, uint64_t* out);

}  // namespace gs::simd

#endif  // GRAPHSURGE_COMMON_SIMD_H_
