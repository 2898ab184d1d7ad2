// Human-readable quantity formatting matching the paper's figures.
//
// The paper prints byte totals as "14.98 KB" / "9.66 GB" (decimal SI,
// 1 KB = 1000 B — verified against Fig. 3 where 6 reads x 832 B + ... =
// 14976 B is shown as 14.98 KB) and data rates as "10.15 MB/s". Load is
// a bare ratio with two decimals ("0.22", append_fixed at 2).
//
// The append_* writers put their text straight onto the end of a
// string, so a page (the SVG, the report's tables) is written in one
// appending pass with no temporary per number. append_fixed prints by
// std::to_chars, which prints exactly as printf("%.*f") does in the C
// locale: the exact binary value rounded half to even, "-0.0", "nan",
// "inf", and every digit of a value of any size. format_bytes and
// format_fixed wrap the writers for callers that want a string.
#pragma once

#include <array>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>

namespace st {

/// Appends `v` with `decimals` fixed decimals, as printf("%.*f").
void append_fixed(std::string& out, double v, int decimals);

/// Appends an integer in decimal, as std::to_string prints it.
template <std::integral T>
void append_int(std::string& out, T v) {
  std::array<char, 24> buf;
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  out.append(buf.data(), res.ptr);
}

/// Appends format_bytes(bytes).
void append_bytes(std::string& out, double bytes);

/// Appends "10.15 MB/s" — always MB/s with two decimals, as in the
/// figures.
void append_rate_mbps(std::string& out, double bytes_per_second);

/// "0.75 KB", "14.98 KB", "9.66 GB" — KB or above, two decimals.
[[nodiscard]] std::string format_bytes(double bytes);

/// Fixed-decimal double without trailing-zero trimming.
[[nodiscard]] std::string format_fixed(double v, int decimals);

}  // namespace st
