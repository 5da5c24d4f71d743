#include "engine/kernels.h"

namespace sumtab {
namespace engine {
namespace kernels {

Int64JoinTable::Int64JoinTable(int64_t build_rows) {
  uint64_t cap = 16;
  while (cap < static_cast<uint64_t>(build_rows) * 2) cap <<= 1;
  mask_ = cap - 1;
  slot_key_.resize(cap);
  slot_head_.assign(cap, -1);
  next_.assign(build_rows, -1);
}

void Int64JoinTable::Insert(int64_t key, int64_t row) {
  uint64_t s = Mix64(static_cast<uint64_t>(key)) & mask_;
  while (slot_head_[s] != -1 && slot_key_[s] != key) s = (s + 1) & mask_;
  slot_key_[s] = key;
  next_[row] = slot_head_[s];
  slot_head_[s] = row;
}

void GroupIdTable::Grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  ++bits_;
  const uint32_t mask = static_cast<uint32_t>(slots_.size() - 1);
  for (const Slot& slot : old) {
    if (slot.id < 0) continue;
    uint32_t s = slot.hash >> (32 - bits_);
    while (slots_[s].id >= 0) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

std::vector<int64_t> TranslateCodes(const StringDictionary& from,
                                    const StringDictionary& to) {
  const int32_t n = from.size();
  std::vector<int64_t> translate(n);
  for (int32_t c = 0; c < n; ++c) {
    translate[c] = to.Find(from.At(c));
  }
  return translate;
}

}  // namespace kernels
}  // namespace engine
}  // namespace sumtab
