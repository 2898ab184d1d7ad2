// CRC-32 (ISO-HDLC / zlib polynomial 0xEDB88320), slicing-by-16:
// sixteen 256-entry tables fold 16 input bytes per step, read as
// little-endian words (no alignment or host byte-order assumption),
// and a bytewise loop finishes the tail. The polynomial and the values
// are part of the on-disk formats and match zlib's crc32().
//
// Used by the elog container to checksum every chunk so that storage
// corruption is detected at read time instead of producing silently
// wrong analysis results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace st {

/// Incremental CRC-32. Start from 0, feed bytes, read `value()`.
class Crc32 {
 public:
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }

  [[nodiscard]] std::uint32_t value() const { return ~state_; }

  /// One-shot convenience.
  [[nodiscard]] static std::uint32_t of(const void* data, std::size_t len) {
    Crc32 c;
    c.update(data, len);
    return c.value();
  }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace st
