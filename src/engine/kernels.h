// SIMD-friendly typed kernels shared by the vectorized executor, the
// vectorized expression evaluator and the columnar containers: flat hash
// build/probe for joins, dense group ids for aggregation, and dictionary
// code translation. Every loop here is branch-light over flat arrays so the
// compiler can vectorize it; none of them allocate per row.
//
// Keys are int64 everywhere: int columns are read in place, dates, bools
// and dictionary codes widen, and every other hash-join key arrives as the
// dense ids of pass 1 (GroupIdsOf, engine/aggregator.h), so one
// Int64JoinTable serves every equi-join. Callers handle NULLs (a join
// kernel never sees a null key; grouping folds them into the key's null
// mask).
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
/// multi-column grouping keys): a multiply chain whose HIGH bits are well
/// spread — consecutive codes land evenly apart (Fibonacci hashing) — which
/// is what GroupIdTable indexes by.
inline uint64_t MixKey(const int64_t* v, int k, uint8_t null_mask) {
  uint64_t h = null_mask;
  for (int i = 0; i < k; ++i) {
    h = (h ^ static_cast<uint64_t>(v[i])) * 0x9e3779b97f4a7c15ULL;
  }
  return h;
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

/// Open-addressing table from grouping keys to dense group ids, handed out
/// 0, 1, 2, ... in first-seen order — the aggregation kernel's pass 1. An
/// 8-byte slot holds only (high half of the hash, id): the caller keeps each
/// group's key (its first input row) and tells two keys with the same hash
/// apart through `same(id)`, so one table serves widened int64 codes and
/// Value keys alike. Capacity doubles as groups arrive (load factor at most
/// 1/4), so the table's size follows the group count, not the input size.
class GroupIdTable {
 public:
  GroupIdTable() : slots_(size_t{1} << kMinBits) {}

  /// The id of the key hashing to `hash` for which `same(id)` holds, or the
  /// next id (the count of ids so far) when there is none. Slots are picked
  /// by the hash's high bits.
  template <typename Same>
  int32_t FindOrInsert(uint64_t hash, const Same& same) {
    const uint32_t h = static_cast<uint32_t>(hash >> 32);
    const uint32_t mask = static_cast<uint32_t>(slots_.size() - 1);
    uint32_t s = h >> (32 - bits_);
    while (slots_[s].id >= 0) {
      if (slots_[s].hash == h && same(slots_[s].id)) return slots_[s].id;
      s = (s + 1) & mask;
    }
    slots_[s] = Slot{h, size_};
    if (static_cast<uint64_t>(++size_) * 4 > slots_.size()) Grow();
    return size_ - 1;
  }

 private:
  static constexpr int kMinBits = 6;
  struct Slot {
    uint32_t hash = 0;  // the high half
    int32_t id = -1;    // -1 = empty
  };
  void Grow();

  std::vector<Slot> slots_;  // 2^bits_ slots, at most a quarter full
  int bits_ = kMinBits;
  int32_t size_ = 0;
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
