#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace sumtab {

namespace {

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// input bytes fold into the CRC with eight independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static_assert(std::endian::native == std::endian::little,
                "the 8-byte step reads words little-endian");
  static const Tables t = BuildTables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; len >= 8; bytes += 8, len -= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, bytes, 4);
    std::memcpy(&hi, bytes + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFF];
  }
  return ~crc;
}

}  // namespace sumtab
