// σ_f(c) in dense ids: the mapping f applied ONCE to each event of a
// case, with every activity interned in a dictionary.
//
// The analytics a report folds — the DFG, the activity and edge
// statistics, the variants — all consume the same sequence: the mapped
// events of a case, in event (start) order. pipeline::run and
// pipeline::fold_cases build that sequence once per case and mapping
// (map_case) and hand it to every sink, which then counts in
// id-indexed vectors and integer-keyed maps instead of re-running f and
// keying std::maps by freshly allocated strings. Names come back from
// the dictionary only when a sink's partial turns into its string-keyed
// output, so the bytes downstream are unchanged.
//
// A dictionary belongs to one task (one file of a run, one chunk of a
// fold) and is never shared across threads; ids mean nothing outside
// it. The start and end markers of the DFG are always ids 0 and 1, so
// an activity that f maps to "●" or "■" merges with the marker, as it
// does in the string-keyed Dfg.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "model/event_log.hpp"
#include "model/mapping.hpp"

namespace st::model {

/// The DFG's trace start (●) and end (■) markers (paper Sec. IV-A).
inline constexpr std::string_view kStartActivity = "●";
inline constexpr std::string_view kEndActivity = "■";

/// Activity name <-> dense id, ids handed out in first-seen order after
/// the two markers.
class ActivityDict {
 public:
  static constexpr std::uint32_t kStart = 0;  ///< kStartActivity
  static constexpr std::uint32_t kEnd = 1;    ///< kEndActivity

  ActivityDict();
  ActivityDict(const ActivityDict&) = delete;  // names_ points into ids_
  ActivityDict& operator=(const ActivityDict&) = delete;

  /// The id of `a`, new if it was not seen before.
  std::uint32_t intern(Activity&& a);

  [[nodiscard]] const Activity& name(std::uint32_t id) const { return *names_[id]; }
  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(names_.size()); }

 private:
  std::unordered_map<Activity, std::uint32_t> ids_;
  std::vector<const Activity*> names_;  ///< by id, into ids_' nodes
};

/// One case's mapped events, in event order: the k-th has activity
/// activities[k] and is events[k] of Case::events(). Unmapped events
/// are absent.
struct MappedCase {
  std::vector<std::uint32_t> activities;
  std::vector<std::uint32_t> events;
};

/// Applies f to every event of `c` once, interning the activities in
/// `dict`. `out` is overwritten (its capacity is reused).
void map_case(const Case& c, const Mapping& f, ActivityDict& dict, MappedCase& out);

}  // namespace st::model
