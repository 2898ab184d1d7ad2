#include "dfg/concurrency.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

namespace st::dfg {

namespace {

constexpr unsigned kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
/// Below this many values the histograms cost more than they save
/// (measured crossover with std::sort on ~20-bit time spans).
constexpr std::size_t kRadixMinSize = 1024;

/// Sorts `v` ascending: an LSD radix sort on (uint64)x - (uint64)min,
/// with passes only over the significant bits of max - min.
void sort_column(std::vector<Micros>& v, std::vector<Micros>& buffer) {
  const std::size_t n = v.size();
  if (n < kRadixMinSize) {
    std::sort(v.begin(), v.end());
    return;
  }
  const auto [lo_it, hi_it] = std::minmax_element(v.begin(), v.end());
  const auto lo = static_cast<std::uint64_t>(*lo_it);
  const std::uint64_t range = static_cast<std::uint64_t>(*hi_it) - lo;
  if (range == 0) return;
  const auto passes =
      static_cast<std::size_t>((std::bit_width(range) + kDigitBits - 1) / kDigitBits);

  // Every pass's histogram in one read of the column.
  std::vector<std::size_t> counts(passes * kBuckets);
  for (const Micros x : v) {
    const std::uint64_t key = static_cast<std::uint64_t>(x) - lo;
    for (std::size_t p = 0; p < passes; ++p) {
      ++counts[p * kBuckets + ((key >> (p * kDigitBits)) & (kBuckets - 1))];
    }
  }

  buffer.resize(n);
  for (std::size_t p = 0; p < passes; ++p) {
    const unsigned shift = static_cast<unsigned>(p * kDigitBits);
    std::size_t* offset = counts.data() + p * kBuckets;
    std::size_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) sum += std::exchange(offset[b], sum);
    const Micros* src = v.data();
    Micros* dst = buffer.data();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = static_cast<std::uint64_t>(src[i]) - lo;
      dst[offset[(key >> shift) & (kBuckets - 1)]++] = src[i];
    }
    v.swap(buffer);
  }
}

}  // namespace

std::size_t max_concurrency_of_columns(std::vector<Micros>& starts, std::vector<Micros>& ends,
                                       std::vector<Micros>& buffer) {
  sort_column(starts, buffer);
  sort_column(ends, buffer);
  const std::size_t n = starts.size();
  std::size_t best = 0;
  std::size_t closed = 0;
  for (std::size_t opened = 1; opened <= n; ++opened) {
    const Micros s = starts[opened - 1];
    if (opened < n && starts[opened] == s) continue;  // count every tie at s
    while (closed < n && ends[closed] <= s) ++closed;
    // Every closed interval started before s, so opened >= closed.
    best = std::max(best, opened - closed);
  }
  return best;
}

std::size_t get_max_concurrency(std::vector<Interval> intervals) {
  std::vector<Micros> starts;
  std::vector<Micros> ends;
  starts.reserve(intervals.size());
  ends.reserve(intervals.size());
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    starts.push_back(iv.start);
    ends.push_back(iv.end);
  }
  std::vector<Micros> buffer;
  return max_concurrency_of_columns(starts, ends, buffer);
}

}  // namespace st::dfg
