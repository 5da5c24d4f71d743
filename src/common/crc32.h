// CRC-32 (the IEEE 802.3 polynomial, reflected: 0xEDB88320) over byte
// ranges. Used to frame WAL records and checkpoint sections so recovery can
// tell a torn or corrupted region from a valid one without trusting lengths.
// Computed slicing-by-8 (eight table lookups per eight input bytes); the
// values are those of the bytewise algorithm.
#ifndef SUMTAB_COMMON_CRC32_H_
#define SUMTAB_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace sumtab {

/// CRC of `len` bytes starting at `data`, seeded with `seed` (pass a previous
/// result to checksum discontiguous ranges as one stream).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

inline uint32_t Crc32(const std::string& s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

}  // namespace sumtab

#endif  // SUMTAB_COMMON_CRC32_H_
