// Edge-level statistics — an extension beyond the paper (DESIGN.md §5).
//
// The DFG's edges carry frequencies; this module adds *gap timing*: for
// every directly-follows pair (a1, a2) observed within a case, the gap
// is the time between the end of the a1 event and the start of the a2
// event. Long gaps on an edge reveal think-time or synchronization
// stalls between I/O phases that node statistics cannot show (e.g. the
// barrier wait between the write and read phases of IOR appears as a
// large write->openat gap).
//
// Negative gaps are possible in SMT cases (the next event may start
// before the previous returns) and are clamped into the `overlapped`
// counter instead of polluting the mean.
//
// Every accumulator here is an integer, so the per-case Partial merge
// below is a plain commutative sum: any grouping of cases — worker
// partials, shard blobs, the serial loop — produces identical maps.
// compute() is the string-keyed oracle (f per event, add_case per
// case); the streaming EdgeStatsSink (pipeline/sink.hpp) counts the
// same observations by activity-id pair through EdgeStat::add and
// names each edge once per partial (from_stats).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "model/event_log.hpp"
#include "model/mapping.hpp"

namespace st::dfg {

struct EdgeStat {
  std::uint64_t count = 0;        ///< directly-follows observations
  Micros total_gap = 0;           ///< Σ max(0, gap)
  Micros max_gap = 0;
  std::uint64_t overlapped = 0;   ///< observations with negative gap

  /// Records one directly-follows observation with time `gap` from
  /// the end of the first event to the start of the second.
  void add(Micros gap) {
    ++count;
    if (gap >= 0) {
      total_gap += gap;
      max_gap = std::max(max_gap, gap);
    } else {
      ++overlapped;
    }
  }

  [[nodiscard]] double mean_gap() const {
    return count > 0 ? static_cast<double>(total_gap) / static_cast<double>(count) : 0.0;
  }

  [[nodiscard]] bool operator==(const EdgeStat&) const = default;
};

class EdgeStatistics {
 public:
  using Edge = std::pair<model::Activity, model::Activity>;

  /// Per-case partial: the same std::map the final statistics hold, so
  /// merge is an integer fold and finalize a move. All paths (serial
  /// compute, streamed EdgeStatsSink, decoded shard blobs) are exact.
  class Partial {
   public:
    /// Folds one case's directly-follows gaps (edges never span cases)
    /// — the string-keyed reference; EdgeStatsSink counts by activity
    /// ids and hands its map over through from_stats.
    void add_case(const model::Case& c, const model::Mapping& f);

    /// Integer sums per edge: counts and gaps add, max_gap maxes.
    void merge(Partial&& other);

    [[nodiscard]] EdgeStatistics finalize() const;

    [[nodiscard]] const std::map<Edge, EdgeStat>& stats() const { return stats_; }

    /// Serialization hook (pipeline/partial_codec).
    [[nodiscard]] static Partial from_stats(std::map<Edge, EdgeStat> stats);

    [[nodiscard]] bool operator==(const Partial&) const = default;

   private:
    std::map<Edge, EdgeStat> stats_;
  };

  /// Single pass over the cases, in strings (add_case per case);
  /// start/end markers carry no gaps and are not included.
  [[nodiscard]] static EdgeStatistics compute(const model::EventLog& log,
                                              const model::Mapping& f);

  [[nodiscard]] const std::map<Edge, EdgeStat>& per_edge() const { return stats_; }
  [[nodiscard]] const EdgeStat* find(const model::Activity& from,
                                     const model::Activity& to) const;

 private:
  friend class Partial;
  std::map<Edge, EdgeStat> stats_;
};

}  // namespace st::dfg
