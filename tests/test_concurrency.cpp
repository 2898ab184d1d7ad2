#include "dfg/concurrency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "support/rng.hpp"

namespace st::dfg {
namespace {

TEST(MaxConcurrency, EmptyIsZero) { EXPECT_EQ(get_max_concurrency({}), 0u); }

TEST(MaxConcurrency, SingleInterval) {
  EXPECT_EQ(get_max_concurrency({{0, 10}}), 1u);
}

TEST(MaxConcurrency, DisjointIntervals) {
  EXPECT_EQ(get_max_concurrency({{0, 10}, {20, 30}, {40, 50}}), 1u);
}

TEST(MaxConcurrency, TwoOverlapping) {
  EXPECT_EQ(get_max_concurrency({{0, 10}, {5, 15}}), 2u);
}

TEST(MaxConcurrency, TouchingIntervalsAreNotConcurrent) {
  // "end time of the first > start time of the last" is strict.
  EXPECT_EQ(get_max_concurrency({{0, 10}, {10, 20}}), 1u);
}

TEST(MaxConcurrency, NestedIntervals) {
  EXPECT_EQ(get_max_concurrency({{0, 100}, {10, 20}, {30, 40}}), 2u);
}

TEST(MaxConcurrency, TripleOverlapAtPoint) {
  EXPECT_EQ(get_max_concurrency({{0, 10}, {2, 12}, {4, 14}}), 3u);
}

TEST(MaxConcurrency, Fig5Shape) {
  // Fig. 5: three ranks' read:/usr/lib bursts, pairwise-overlapping
  // neighbours only -> max concurrency 2 (the paper's stated value).
  const std::vector<Interval> t = {
      {0, 250},    // b9157
      {200, 450},  // b9158
      {460, 700},  // b9160
  };
  EXPECT_EQ(get_max_concurrency(t), 2u);
}

TEST(MaxConcurrency, ZeroLengthIntervalsNeverOverlap) {
  EXPECT_EQ(get_max_concurrency({{5, 5}, {5, 5}}), 0u);
  EXPECT_EQ(get_max_concurrency({{0, 10}, {5, 5}}), 1u);
}

TEST(MaxConcurrency, UnsortedInputHandled) {
  EXPECT_EQ(get_max_concurrency({{40, 50}, {0, 45}, {42, 60}}), 3u);
}

TEST(MaxConcurrency, AllIdentical) {
  std::vector<Interval> v(7, Interval{3, 9});
  EXPECT_EQ(get_max_concurrency(v), 7u);
}

TEST(MaxConcurrency, StaircaseClosesBeforeReopening) {
  // Each interval ends exactly when two later ones begin; sweeps that
  // forget to pop closed intervals overcount here.
  EXPECT_EQ(get_max_concurrency({{0, 10}, {10, 20}, {10, 20}, {20, 30}}), 2u);
}

/// Brute-force reference: max over all interval starts of the number
/// of intervals strictly containing that start point.
std::size_t brute_force(const std::vector<Interval>& intervals) {
  std::size_t best = 0;
  for (const auto& probe : intervals) {
    if (probe.end <= probe.start) continue;
    std::size_t n = 0;
    for (const auto& other : intervals) {
      if (other.end <= other.start) continue;
      if (other.start <= probe.start && probe.start < other.end) ++n;
    }
    best = std::max(best, n);
  }
  return best;
}

class MaxConcurrencyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxConcurrencyProperty, MatchesBruteForceOnRandomIntervals) {
  // Negative starts, spans up to 2^62 (several radix digits), starts
  // and ends drawn from tiny pools (ties), zero-length and reversed
  // intervals, and sizes on both sides of the small-input cutoff
  // (rounds 0-3 always take the radix path).
  Xoshiro256 rng(GetParam());
  constexpr unsigned kSpanBits[] = {4, 11, 12, 23, 40, 62};
  for (int round = 0; round < 30; ++round) {
    const unsigned bits = kSpanBits[rng.below(std::size(kSpanBits))];
    const std::uint64_t span = std::uint64_t{1} << bits;
    const Micros base = -static_cast<Micros>(rng.below(std::uint64_t{1} << 61));
    const bool ties = rng.below(2) == 0;
    std::vector<Micros> pool(1 + rng.below(6));
    for (Micros& v : pool) v = static_cast<Micros>(rng.below(span));
    const std::size_t n = round < 4 ? 1024 + rng.below(3073) : 1 + rng.below(1200);
    std::vector<Interval> intervals;
    for (std::size_t i = 0; i < n; ++i) {
      const Micros start =
          base + (ties ? pool[rng.below(pool.size())] : static_cast<Micros>(rng.below(span)));
      Micros len = 0;
      switch (rng.below(5)) {
        case 0: break;  // zero-length
        case 1: len = -static_cast<Micros>(rng.below(span / 2 + 1)); break;
        case 2: len = pool[rng.below(pool.size())] / 2 + 1; break;
        default: len = static_cast<Micros>(1 + rng.below(span / 2)); break;
      }
      intervals.push_back({start, start + len});
    }
    ASSERT_EQ(get_max_concurrency(intervals), brute_force(intervals))
        << "round " << round << " bits " << bits << " n " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxConcurrencyProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace st::dfg
