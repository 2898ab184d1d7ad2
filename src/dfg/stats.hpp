// Activity statistics (paper Sec. IV-B).
//
// For every activity a in A_f over an event log C:
//   relative duration rd_f(a,C)   Eq. 6–8   share of total I/O time
//   total bytes moved b_f(a,C)    Eq. 9     Σ e[size] (transfer calls only)
//   process data rate dr_f(a,C)   Eq. 11–13 mean of per-event size/dur
//   max concurrency mc_f(a,C)     Eq. 14–16 interval-sweep maximum
// plus the number of distinct ranks (cases) that executed the activity
// — rendered as the "Ranks:" annotation seen in Fig. 3c.
//
// The figures combine them as:
//   "Load: rd (bytes)"   and   "DR: mc x rate MB/s"      (Eq. 10, 17)
//
// Determinism: the only floating-point accumulator here is the
// per-activity rate sum, and FP addition is not associative — so the
// statistics are built as per-case contributions whose merge is pure
// CONCATENATION (bitwise exact, associative), and every double is
// summed exactly once, in finalize(), through a fixed-shape pairwise
// tree whose summation order is a function of the input index alone.
// Within a case, each activity's events fold in event order through
// ActivityContribution::add. compute() is the string-keyed oracle: it
// runs f per event and add_case per case. The streaming IoStatsSink
// (pipeline/sink.hpp) reaches the same CaseContributions from the
// case's activity ids, naming each activity once per case; it and the
// shard-parallel coordinator then share merge -> finalize with
// compute(), so their doubles are bit-identical at any worker or shard
// count.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dfg/concurrency.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"

namespace st {
class ThreadPool;
}  // namespace st

namespace st::dfg {

struct ActivityStat {
  Micros total_dur = 0;          ///< Σ e[dur] (Eq. 7)
  double rel_dur = 0.0;          ///< Eq. 8
  std::int64_t bytes = 0;        ///< Eq. 9; 0 when no event carried a size
  bool has_bytes = false;        ///< true iff some event carried a size
  double mean_rate = 0.0;        ///< bytes/second, Eq. 13; 0 if no rated event
  std::size_t rate_samples = 0;  ///< events contributing to mean_rate
  std::size_t max_concurrency = 0;  ///< Eq. 16
  std::size_t rank_count = 0;       ///< distinct cases executing the activity
  std::uint64_t event_count = 0;

  /// "Load: 0.22 (14.98 KB)" — bytes omitted when the activity moved
  /// no payload (openat nodes in Fig. 8 show "Load:0.55" only).
  [[nodiscard]] std::string load_label() const;

  /// "DR: 2x10.15 MB/s" — empty when no event produced a data rate.
  [[nodiscard]] std::string dr_label() const;
};

/// Fixed-shape pairwise tree sum: recursively halves [0, n) and adds
/// the two halves' sums. The association shape depends on n alone —
/// never on how the inputs were produced or grouped — so any pipeline
/// that delivers the same value sequence produces the same bits.
[[nodiscard]] double deterministic_pairwise_sum(std::span<const double> xs);

class IoStatistics {
 public:
  /// One case's contribution to one activity: every field a single
  /// in-case event walk can produce. The rate sum is accumulated in
  /// event (start) order within the case — the one place FP addition
  /// happens before finalize().
  struct ActivityContribution {
    Micros total_dur = 0;
    std::uint64_t event_count = 0;
    std::int64_t bytes = 0;
    bool has_bytes = false;
    double rate_sum = 0.0;          ///< Σ size/dur of this case's rated events
    std::uint64_t rate_samples = 0;
    std::vector<Interval> intervals;  ///< in event order

    /// Folds one event of this activity; call in event order.
    void add(const model::Event& e);

    [[nodiscard]] bool operator==(const ActivityContribution&) const = default;
  };

  struct CaseContribution {
    model::CaseId id;
    std::map<model::Activity, ActivityContribution> activities;

    [[nodiscard]] bool operator==(const CaseContribution&) const = default;
  };

  /// The monoid the statistics are folded through: a sequence of
  /// per-case contributions in input order. merge() concatenates (no
  /// FP arithmetic, so grouping cannot change bits); finalize() is the
  /// single place sums happen, identically on every path.
  class Partial {
   public:
    /// Folds one case (one in-order walk of its mapped events) — the
    /// string-keyed reference; IoStatsSink appends contributions it
    /// builds from the case's activity ids (from_cases + merge).
    void add_case(const model::Case& c, const model::Mapping& f);

    /// Concatenation: appends `other`'s cases after this one's.
    /// Associative and exact — the double fields are moved, never
    /// added — so ((s0+s1)+s2) and (s0+(s1+s2)) are bitwise equal.
    void merge(Partial&& other);

    /// Sums everything once. One serial pass lists each activity's
    /// (case, contribution) pairs in input order; then each activity
    /// sums alone — integers plainly, the per-case rate sums through
    /// deterministic_pairwise_sum (one leaf per contributing case, in
    /// input order), and its non-empty intervals into one start column
    /// and one end column for the (multiset-pure) concurrency sweep.
    /// With a `pool`, the activities run as tasks on it (and on the
    /// calling thread), largest first; every double is the same bits
    /// either way, since an activity's summation order does not depend
    /// on where it runs. Not callable from a task on `pool`.
    [[nodiscard]] IoStatistics finalize(ThreadPool* pool = nullptr) const;

    /// t_f(a, C) from the already-folded contributions: per-case
    /// intervals of `a` in input/event order, sorted by start —
    /// exactly the sequence IoStatistics::timeline builds from a log.
    [[nodiscard]] std::vector<TimelineEntry> timeline(const model::Activity& a) const;

    [[nodiscard]] const std::vector<CaseContribution>& cases() const { return cases_; }
    [[nodiscard]] bool empty() const { return cases_.empty(); }

    /// Serialization hook (pipeline/partial_codec): a decoded partial
    /// is its case sequence, verbatim.
    [[nodiscard]] static Partial from_cases(std::vector<CaseContribution> cases);

    [[nodiscard]] bool operator==(const Partial&) const = default;

   private:
    std::vector<CaseContribution> cases_;
  };

  /// Single pass over the events + per-activity grouping (the O(mn)
  /// step of Sec. V), in strings: add_case per case, then finalize —
  /// the reference the streamed/sharded runs are bit-identical to.
  [[nodiscard]] static IoStatistics compute(const model::EventLog& log, const model::Mapping& f);

  [[nodiscard]] const std::map<model::Activity, ActivityStat>& per_activity() const {
    return stats_;
  }
  [[nodiscard]] const ActivityStat* find(const model::Activity& a) const;
  [[nodiscard]] Micros total_duration() const { return total_dur_; }

  /// t_f(a, C): all event intervals of activity `a` with their owning
  /// case, ordered by start — the input of the Fig. 5 timeline plot.
  [[nodiscard]] static std::vector<TimelineEntry> timeline(const model::EventLog& log,
                                                           const model::Mapping& f,
                                                           const model::Activity& a);

 private:
  friend class Partial;
  std::map<model::Activity, ActivityStat> stats_;
  Micros total_dur_ = 0;
};

}  // namespace st::dfg
