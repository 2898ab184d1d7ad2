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
// A dictionary that map_case fills belongs to one task (one file of a
// run, one chunk of a fold) and is never shared across threads; ids
// mean nothing outside it. A container's dictionary is the one
// exception (elog/v2_fold.hpp): it is built once per (container,
// mapping) before the fold, from the container's distinct (call, fp)
// pool-id pairs, and is read-only from then on — every task of the
// fold reads it (name(), size()) and none interns into it. The start
// and end markers of the DFG are always ids 0 and 1, so an activity
// that f maps to "●" or "■" merges with the marker, as it does in the
// string-keyed Dfg.
//
// The memo. A mapping keyed by (call, fp) (Mapping::Key::kCallFp: the
// four factories, and filtered_fp over one of them) is evaluated once
// per distinct (call, fp) content per dictionary, not once per event:
// the dictionary keeps a memo from (call, fp) to the activity id, or to
// "unmapped". A hit hashes and compares the event's two views and
// allocates nothing; a miss runs f, interns its activity and copies the
// two strings into the memo. Because a miss happens exactly where the
// per-event loop would have met the key first, ids are still handed out
// in first-seen order: a task seals the same partials with or without
// the memo. The memo serves one mapping (by Mapping::key_id()) and is
// emptied when the dictionary meets another. A kEvent mapping (custom,
// filtered(name, pred)) runs once per event.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/event_log.hpp"
#include "model/mapping.hpp"

namespace st::model {

/// The DFG's trace start (●) and end (■) markers (paper Sec. IV-A).
inline constexpr std::string_view kStartActivity = "●";
inline constexpr std::string_view kEndActivity = "■";

struct MappedCase;

/// Activity name <-> dense id, ids handed out in first-seen order after
/// the two markers, plus the (call, fp) memo of the mapping it serves.
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
  friend void map_case(const Case& c, const Mapping& f, ActivityDict& dict, MappedCase& out);

  static constexpr std::uint32_t kUnmapped = 0xFFFFFFFFu;

  /// f(e)'s id, or kUnmapped; through the memo when f is kCallFp.
  std::uint32_t map(const Event& e, const Mapping& f);

  /// The memo's key, an event's (call, fp): owned copies in the map,
  /// string_views in a lookup, which allocates nothing.
  using CallFp = std::pair<std::string, std::string>;
  using CallFpView = std::pair<std::string_view, std::string_view>;
  struct CallFpHash {
    using is_transparent = void;
    template <class K>
    std::size_t operator()(const K& k) const noexcept {
      const std::size_t h = std::hash<std::string_view>{}(k.first);
      return h ^ (std::hash<std::string_view>{}(k.second) + 0x9E3779B97F4A7C15ULL + (h << 6) +
                  (h >> 2));
    }
  };
  struct CallFpEq {
    using is_transparent = void;
    template <class A, class B>
    bool operator()(const A& a, const B& b) const noexcept {
      return a.first == b.first && a.second == b.second;
    }
  };

  std::unordered_map<Activity, std::uint32_t> ids_;
  std::vector<const Activity*> names_;  ///< by id, into ids_' nodes
  std::unordered_map<CallFp, std::uint32_t, CallFpHash, CallFpEq> memo_;
  std::shared_ptr<const void> memo_of_;  ///< key_id() of the mapping memo_ serves
};

/// One case's mapped events, in event order: the k-th has activity
/// activities[k] and is events[k] of Case::events(). Unmapped events
/// are absent.
struct MappedCase {
  std::vector<std::uint32_t> activities;
  std::vector<std::uint32_t> events;
};

/// Maps every event of `c` under f, interning the activities in
/// `dict`: f runs once per event, or once per distinct (call, fp) of
/// `dict`'s lifetime when f is keyed kCallFp. `out` is overwritten
/// (its capacity is reused).
void map_case(const Case& c, const Mapping& f, ActivityDict& dict, MappedCase& out);

}  // namespace st::model
