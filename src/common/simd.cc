#include "common/simd.h"

namespace gs::simd {

uint64_t StringPrefix(const std::string& s) {
  // Big-endian packing: the first byte lands in the most significant
  // position, so unsigned word order equals lexicographic byte order.
  uint64_t p = 0;
  size_t n = s.size() < 8 ? s.size() : 8;
  for (size_t i = 0; i < n; ++i) {
    p |= static_cast<uint64_t>(static_cast<unsigned char>(s[i]))
         << (56 - 8 * i);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Kernels. The three-way-then-apply structure is the semantic contract (NaN
// doubles take the "equal" branch, exactly like PropertyValue::Compare).

namespace {

template <typename T, typename ThreeWay>
void CmpRows(const T* v, size_t n, Cmp op, ThreeWay&& three_way,
             uint64_t* out) {
  size_t words = MaskWords(n);
  for (size_t w = 0; w < words; ++w) {
    uint64_t m = 0;
    size_t end = n - 64 * w < 64 ? n - 64 * w : 64;
    for (size_t j = 0; j < end; ++j) {
      if (ApplyCmp(op, three_way(v[64 * w + j]))) m |= uint64_t{1} << j;
    }
    out[w] = m;
  }
}

int ThreeWayF64(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;  // includes NaN on either side
}

template <typename T>
int ThreeWayInt(T a, T b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

void CmpF64Const(const double* v, size_t n, Cmp op, double c, uint64_t* out) {
  CmpRows(v, n, op, [c](double a) { return ThreeWayF64(a, c); }, out);
}

void CmpF64Pairs(const double* a, const double* b, size_t n, Cmp op,
                 uint64_t* out) {
  size_t i = 0;
  CmpRows(a, n, op,
          [b, &i](double x) { return ThreeWayF64(x, b[i++]); }, out);
}

void CmpI64Const(const int64_t* v, size_t n, Cmp op, int64_t c,
                 uint64_t* out) {
  CmpRows(v, n, op, [c](int64_t a) { return ThreeWayInt(a, c); }, out);
}

void CmpI64Pairs(const int64_t* a, const int64_t* b, size_t n, Cmp op,
                 uint64_t* out) {
  size_t i = 0;
  CmpRows(a, n, op,
          [b, &i](int64_t x) { return ThreeWayInt(x, b[i++]); }, out);
}

void CmpU64Const(const uint64_t* v, size_t n, Cmp op, uint64_t c,
                 uint64_t* out) {
  CmpRows(v, n, op, [c](uint64_t a) { return ThreeWayInt(a, c); }, out);
}

void CmpU64Pairs(const uint64_t* a, const uint64_t* b, size_t n, Cmp op,
                 uint64_t* out) {
  size_t i = 0;
  CmpRows(a, n, op,
          [b, &i](uint64_t x) { return ThreeWayInt(x, b[i++]); }, out);
}

void BytesNonZero(const uint8_t* v, size_t n, uint64_t* out) {
  size_t words = MaskWords(n);
  for (size_t w = 0; w < words; ++w) {
    uint64_t m = 0;
    size_t end = n - 64 * w < 64 ? n - 64 * w : 64;
    for (size_t j = 0; j < end; ++j) {
      if (v[64 * w + j] != 0) m |= uint64_t{1} << j;
    }
    out[w] = m;
  }
}

}  // namespace gs::simd
