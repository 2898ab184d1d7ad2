// ActivityLog L_f(C): a multiset of activity traces (paper Sec. IV).
//
// For every case c in the event-log C the mapping f is applied to each
// event; events with no mapping are skipped (f is partial). The
// resulting activity sequence σ_f(c) is one *trace*; the activity-log
// is the multiset of all traces, i.e. identical sequences are stored
// once with a multiplicity — the ⟨a,a,b⟩² notation of the paper.
//
// The per-case trace is also retained (keyed by CaseId) because the
// timeline plot (Fig. 5) and the "Ranks:" annotations need to know
// which cases touched an activity.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "model/event_log.hpp"
#include "model/mapping.hpp"

namespace st::model {

using ActivityTrace = std::vector<Activity>;

/// The variant multiset of an activity log: distinct traces with their
/// multiplicities (the ⟨a,a,b⟩² notation). Shared by ActivityLog and the
/// streaming VariantsSink.
using VariantCounts = std::map<ActivityTrace, std::size_t>;

/// σ_f(c): one case's activity trace — every mapped activity, in event
/// order (f is partial; unmapped events are skipped). What
/// ActivityLog::build and build_serial fold, and the string-keyed
/// reference for the streaming VariantsSink, which folds the same
/// sequence as activity ids (model/mapped_case.hpp).
[[nodiscard]] ActivityTrace activity_trace(const Case& c, const Mapping& f);

/// Folds `from` into `to` (multiplicities add) by moving map nodes —
/// the trace keys of the consumed map are never copied. Shared by the
/// streaming VariantsSink and the shard-partial merge.
void merge_variant_counts(VariantCounts& to, VariantCounts&& from);

class ActivityLog {
 public:
  ActivityLog() = default;

  /// Builds L_f(C). Cases whose trace is empty (no event mapped)
  /// contribute an empty trace — kept so the multiplicity of the empty
  /// variant reports unmapped cases.
  static ActivityLog build(const EventLog& log, const Mapping& f);

  /// Distinct traces with multiplicities, deterministically ordered
  /// (lexicographic by trace). Σ multiplicities == case count.
  [[nodiscard]] const VariantCounts& variants() const { return variants_; }

  /// Trace of one case, in event order.
  [[nodiscard]] const std::map<CaseId, ActivityTrace>& per_case() const { return per_case_; }

  /// All distinct activities appearing in any trace, ordered.
  [[nodiscard]] const std::set<Activity>& activities() const { return activities_; }

  [[nodiscard]] std::size_t case_count() const { return case_count_; }
  [[nodiscard]] std::size_t total_activity_instances() const { return total_instances_; }

 private:
  VariantCounts variants_;
  std::map<CaseId, ActivityTrace> per_case_;
  std::set<Activity> activities_;
  std::size_t case_count_ = 0;
  std::size_t total_instances_ = 0;
};

}  // namespace st::model
