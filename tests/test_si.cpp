#include "support/si.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "support/rng.hpp"

namespace st {
namespace {

// The paper's figures use decimal units: 14976 B renders as 14.98 KB
// (Fig. 3, read:/usr/lib over six cases).
TEST(FormatBytes, PaperFig3UsrLib) { EXPECT_EQ(format_bytes(14976), "14.98 KB"); }
TEST(FormatBytes, PaperFig3LocaleAlias) { EXPECT_EQ(format_bytes(17976), "17.98 KB"); }
TEST(FormatBytes, PaperFig3DevPts) { EXPECT_EQ(format_bytes(753), "0.75 KB"); }
TEST(FormatBytes, PaperFig8Gigabytes) { EXPECT_EQ(format_bytes(9.66e9), "9.66 GB"); }

TEST(FormatBytes, SmallRendersAsKb) { EXPECT_EQ(format_bytes(832), "0.83 KB"); }
TEST(FormatBytes, SubKilo) { EXPECT_EQ(format_bytes(12), "0.01 KB"); }
TEST(FormatBytes, Zero) { EXPECT_EQ(format_bytes(0), "0.00 KB"); }
TEST(FormatBytes, Terabytes) { EXPECT_EQ(format_bytes(2.5e12), "2.50 TB"); }

std::string rate(double bytes_per_second) {
  std::string out;
  append_rate_mbps(out, bytes_per_second);
  return out;
}

TEST(FormatRate, PaperStyle) {
  EXPECT_EQ(rate(10.15e6), "10.15 MB/s");
  EXPECT_EQ(rate(3175.20e6), "3175.20 MB/s");
}

TEST(FormatRate, SubMegabyte) { EXPECT_EQ(rate(0.61e6), "0.61 MB/s"); }

// Load is a bare ratio at two decimals.
TEST(FormatRatio, TwoDecimals) {
  EXPECT_EQ(format_fixed(0.21843, 2), "0.22");
  EXPECT_EQ(format_fixed(0.0, 2), "0.00");
  EXPECT_EQ(format_fixed(1.0, 2), "1.00");
  EXPECT_EQ(format_fixed(0.005, 2), "0.01");
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 3), "3.142");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

/// printf("%.*f") into a buffer large enough for any double.
std::string printf_fixed(double v, int decimals) {
  std::vector<char> buf(512);
  std::snprintf(buf.data(), buf.size(), "%.*f", decimals, v);
  return buf.data();
}

TEST(FormatFixed, MatchesPrintfOnASweep) {
  std::vector<double> values = {0.05,  0.25, 2.5,   0.125, -0.0, -0.04, 0.0, 1.0, 0.005,
                                1e-12, 1e15, 1e300, 9.5,   0.45, -2.5};
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(-std::numeric_limits<double>::infinity());
  Xoshiro256 rng(20240917);
  for (int i = 0; i < 4000; ++i) {
    // Log-uniform magnitudes from 1e-12 to 1e300, either sign.
    const double v = std::pow(10.0, rng.uniform(-12.0, 300.0));
    values.push_back(i % 2 == 0 ? v : -v);
  }
  for (int decimals = 0; decimals <= 6; ++decimals) {
    for (const double v : values) {
      const std::string want = printf_fixed(v, decimals);
      EXPECT_EQ(format_fixed(v, decimals), want) << v << " at " << decimals;
      std::string appended = "x=";
      append_fixed(appended, v, decimals);
      EXPECT_EQ(appended, "x=" + want) << v << " at " << decimals;
    }
  }
}

// A fixed form longer than any small buffer keeps every digit: DBL_MAX
// has 309 integer digits.
TEST(FormatFixed, LargeValuesKeepEveryDigit) {
  EXPECT_EQ(format_fixed(1e70, 1), printf_fixed(1e70, 1));
  EXPECT_EQ(format_fixed(1e70, 1).size(), 73u);
  EXPECT_EQ(format_fixed(DBL_MAX, 6), printf_fixed(DBL_MAX, 6));
  EXPECT_EQ(format_fixed(DBL_MAX, 6).size(), 316u);
  EXPECT_EQ(format_fixed(-DBL_MAX, 6).size(), 317u);
  EXPECT_EQ(format_bytes(1e80), printf_fixed(1e68, 2) + " TB");
  EXPECT_EQ(rate(1e80), printf_fixed(1e74, 2) + " MB/s");
}

TEST(FormatFixed, NegativeDecimalsPrintSixAsPrintfDoes) {
  EXPECT_EQ(format_fixed(3.14159, -1), printf_fixed(3.14159, -1));
  EXPECT_EQ(format_fixed(DBL_MAX, -1), printf_fixed(DBL_MAX, -1));
}

TEST(AppendInt, MatchesToString) {
  for (const std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{42},
                               std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()}) {
    std::string out = "n=";
    append_int(out, v);
    EXPECT_EQ(out, "n=" + std::to_string(v));
  }
  std::string out;
  append_int(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, std::to_string(std::numeric_limits<std::uint64_t>::max()));
}

}  // namespace
}  // namespace st
