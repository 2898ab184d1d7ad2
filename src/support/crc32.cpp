#include "support/crc32.hpp"

#include <array>

namespace st {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

// kTables[0] is the classic bytewise table. kTables[k][i] is the CRC
// contribution of byte value i followed by k zero bytes, so one lookup
// per table folds a whole 16-byte block into the state.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit load from any address (compilers fold it into
/// one load on little-endian hosts).
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

/// The bytes of `w` (little-endian) each run through the table of
/// their distance from the end of the block.
inline std::uint32_t fold_word(std::uint32_t w, std::size_t last) {
  return kTables[last][w & 0xFFu] ^ kTables[last - 1][(w >> 8) & 0xFFu] ^
         kTables[last - 2][(w >> 16) & 0xFFu] ^ kTables[last - 3][w >> 24];
}

}  // namespace

void Crc32::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = state_;
  for (; len >= 16; p += 16, len -= 16) {
    c = fold_word(load_le32(p) ^ c, 15) ^ fold_word(load_le32(p + 4), 11) ^
        fold_word(load_le32(p + 8), 7) ^ fold_word(load_le32(p + 12), 3);
  }
  for (; len != 0; ++p, --len) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

}  // namespace st
