// Max-concurrency (paper Eq. 14–16) and timeline intervals (Fig. 5).
//
// Each event contributes the half-open-ish interval
// t(e) = (start, start + dur). Two events are concurrent when the
// earlier one's end is strictly greater than the later one's start
// ("the end time of the first event is greater than the start time of
// the last event"), so [a,b) and [b,c) do not overlap and zero-length
// intervals overlap nothing. The maximum is reached at some start s,
// and the intervals open there are #{start <= s} - #{end <= s}: only
// the two sorted columns of starts and ends matter, never which end
// belongs to which start. The sweep radix-sorts both columns and walks
// them with two pointers.
#pragma once

#include <cstddef>
#include <vector>

#include "model/event.hpp"

namespace st::dfg {

struct Interval {
  Micros start = 0;
  Micros end = 0;

  [[nodiscard]] bool operator==(const Interval&) const = default;
};

/// Highest number of simultaneously open intervals. Zero-length
/// intervals never overlap anything. Linear in the number of intervals
/// for the radix passes over the significant bits of their time span.
[[nodiscard]] std::size_t get_max_concurrency(std::vector<Interval> intervals);

/// The same maximum over intervals given as two columns: `starts[i]`
/// and `ends[i]` of every NON-EMPTY interval (end > start), in any
/// order and pairing. Sorts both columns in place; `buffer` is radix
/// sort storage the caller may reuse across calls.
[[nodiscard]] std::size_t max_concurrency_of_columns(std::vector<Micros>& starts,
                                                     std::vector<Micros>& ends,
                                                     std::vector<Micros>& buffer);

/// Interval of one event plus its owning case — the rows of the
/// timeline plot.
struct TimelineEntry {
  model::CaseId case_id;
  Interval interval;
};

}  // namespace st::dfg
