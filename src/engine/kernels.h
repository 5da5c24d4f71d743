// SIMD-friendly typed kernels shared by the vectorized executor, the
// vectorized expression evaluator and the columnar containers: flat hash
// build/probe for joins, bulk gathers, mask -> index filter-selection, and
// dictionary code translation. Every loop here is branch-light over flat
// arrays so the compiler can vectorize it; none of them allocate per row.
//
// Keys are int64 everywhere: int and date columns widen, dictionary-encoded
// string columns pass their int32 codes. Callers handle NULLs (a kernel
// never sees a null key) and fall back to the generic Value paths for
// non-encodable columns.
#ifndef SUMTAB_ENGINE_KERNELS_H_
#define SUMTAB_ENGINE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "engine/column_vector.h"

namespace sumtab {
namespace engine {
namespace kernels {

/// Finalizer-strength mixer (splitmix64): turns sequential ints and dense
/// dictionary codes into well-spread hashes for the flat tables below.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines k widened key codes + their null mask into one hash (encoded
/// multi-column grouping keys).
inline uint64_t MixKey(const int64_t* v, int k, uint8_t null_mask) {
  uint64_t h = Mix64(null_mask);
  for (int i = 0; i < k; ++i) {
    h = Mix64(h ^ static_cast<uint64_t>(v[i]));
  }
  return h;
}

/// Bulk gather: out[i] = src[indexes[i]].
template <typename T>
inline void Gather(const std::vector<T>& src,
                   const std::vector<int64_t>& indexes, std::vector<T>* out) {
  const int64_t n = static_cast<int64_t>(indexes.size());
  out->resize(n);
  T* dst = out->data();
  const T* s = src.data();
  for (int64_t i = 0; i < n; ++i) dst[i] = s[indexes[i]];
}

/// Filter-select: appends base + i to *out for every set mask bit; returns
/// how many were appended.
inline int64_t SelectFromMask(const uint8_t* mask, int64_t n, int64_t base,
                              std::vector<int64_t>* out) {
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (mask[i] != 0) {
      out->push_back(base + i);
      ++count;
    }
  }
  return count;
}

/// Flat linear-probing hash table from int64 join keys to build-row chains —
/// the multimap the hash join builds once and probes morsel-parallel
/// (probing is const and thread-safe). Capacity is fixed at construction
/// from the build-row count, so inserts never rehash.
///
/// Chains preserve REVERSE insertion order; insert build rows from last to
/// first and a probe walks matches in ascending build-row order.
class Int64JoinTable {
 public:
  explicit Int64JoinTable(int64_t build_rows);

  /// Links `row` under `key`. `row` must be < build_rows and each row
  /// inserted at most once.
  void Insert(int64_t key, int64_t row);

  /// First matching build row for `key` (-1 when absent); follow with
  /// Next() until -1.
  int64_t Probe(int64_t key) const {
    uint64_t s = Mix64(static_cast<uint64_t>(key)) & mask_;
    while (slot_head_[s] != -1) {
      if (slot_key_[s] == key) return slot_head_[s];
      s = (s + 1) & mask_;
    }
    return -1;
  }

  int64_t Next(int64_t row) const { return next_[row]; }

 private:
  uint64_t mask_ = 0;
  std::vector<int64_t> slot_key_;
  std::vector<int64_t> slot_head_;  // -1 = empty slot
  std::vector<int64_t> next_;       // per build row; -1 ends the chain
};

/// Code translation between two dictionaries: out[c] = to.Find(from.At(c))
/// for every code of `from`, -1 where the string is absent from `to`. One
/// Find per *distinct* string — after this, a cross-dictionary join probe is
/// a pure int loop.
std::vector<int64_t> TranslateCodes(const StringDictionary& from,
                                    const StringDictionary& to);

}  // namespace kernels
}  // namespace engine
}  // namespace sumtab

#endif  // SUMTAB_ENGINE_KERNELS_H_
