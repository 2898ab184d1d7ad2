#include "support/si.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>

namespace st {

void append_fixed(std::string& out, double v, int decimals) {
  std::array<char, 64> buf;
  const auto res =
      std::to_chars(buf.data(), buf.data() + buf.size(), v, std::chars_format::fixed, decimals);
  if (res.ec == std::errc{}) {
    out.append(buf.data(), res.ptr);
    return;
  }
  // Longer than the buffer: print into `out` at the longest size the
  // value can take — a sign, DBL_MAX's 309 integer digits, the point
  // and the decimals (6 when `decimals` is negative, as in printf).
  constexpr int kIntegerDigits = std::numeric_limits<double>::max_exponent10 + 1;
  const std::size_t at = out.size();
  out.resize(at + 2 + kIntegerDigits + static_cast<std::size_t>(std::max(decimals, 6)));
  const auto wide = std::to_chars(out.data() + at, out.data() + out.size(), v,
                                  std::chars_format::fixed, decimals);
  out.resize(static_cast<std::size_t>(wide.ptr - out.data()));
}

void append_bytes(std::string& out, double bytes) {
  // The paper renders every byte total at KB or above ("0.75 KB" for
  // 753 B in Fig. 3), decimal units (1 KB = 1000 B).
  static constexpr std::array<std::string_view, 4> kUnits = {" KB", " MB", " GB", " TB"};
  double v = bytes / 1000.0;
  std::size_t unit = 0;
  while (std::fabs(v) >= 1000.0 && unit + 1 < kUnits.size()) {
    v /= 1000.0;
    ++unit;
  }
  append_fixed(out, v, 2);
  out += kUnits[unit];
}

void append_rate_mbps(std::string& out, double bytes_per_second) {
  append_fixed(out, bytes_per_second / 1e6, 2);
  out += " MB/s";
}

std::string format_fixed(double v, int decimals) {
  std::string out;
  append_fixed(out, v, decimals);
  return out;
}

std::string format_bytes(double bytes) {
  std::string out;
  append_bytes(out, bytes);
  return out;
}

}  // namespace st
