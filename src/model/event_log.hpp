// Case and EventLog: the process-mining view of a set of trace files.
//
//   Case      c  = <e1, e2, ... en>   events ordered by start timestamp
//   EventLog  C  = {c1, ..., cn}      the set of cases (Sec. IV)
//
// EventLog supports the operations the paper's Python API exposes:
// file-path filtering (apply_fp_filter), generic event filtering,
// case-level partitioning (PartitionEL, used by partition coloring)
// and union (Cx = Ca ∪ Cb).
//
// Ownership: Event string fields are views; the log carries the
// storage they point into — its own StringArena (arena()) plus any
// adopted owners such as the TraceBuffers of parsed files — as
// shared_ptrs. Every derived log (filter_*, partition, merge) shares
// its source's owners, so holding ANY log in a derivation chain keeps
// all of its events' views alive, exactly like strace::ReadResult.
//
// Ingestion problems (unparseable lines, unmatched resumed records)
// are carried as warnings(): set by the constructing reader, ordered
// by file then line, and deliberately NOT propagated to derived logs —
// they describe the ingestion, not the filtered view.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/event.hpp"
#include "strace/arena.hpp"

namespace st::model {

class Case {
 public:
  Case() = default;

  /// Takes ownership of `events` and stable-sorts them by start
  /// timestamp (ties keep input order, matching the paper's "start of
  /// e_i is less than or equal to that of e_{i+1}"); events already in
  /// that order are kept as they are, without a sort.
  Case(CaseId id, std::vector<Event> events);

  [[nodiscard]] const CaseId& id() const { return id_; }
  [[nodiscard]] std::span<const Event> events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// New case containing only events satisfying `pred` (order kept).
  [[nodiscard]] Case filtered(const std::function<bool(const Event&)>& pred) const;

 private:
  CaseId id_;
  std::vector<Event> events_;
};

class EventLog {
 public:
  EventLog() = default;
  explicit EventLog(std::vector<Case> cases) : cases_(std::move(cases)) {}

  void add_case(Case c) { cases_.push_back(std::move(c)); }

  [[nodiscard]] std::span<const Case> cases() const { return cases_; }
  [[nodiscard]] std::size_t case_count() const { return cases_.size(); }
  [[nodiscard]] std::size_t total_events() const;
  [[nodiscard]] const Case* find_case(const CaseId& id) const;

  // -- string ownership ------------------------------------------------

  /// The arena this log's Event string fields intern into. Created on
  /// first use and registered as an owner, so views into it survive as
  /// long as the log or any log derived from it. NOT thread-safe:
  /// parallel builders intern into private arenas and adopt() them.
  [[nodiscard]] strace::StringArena& arena();

  /// Registers `owner` (a TraceBuffer, a StringArena, ...) to be kept
  /// alive as long as this log and every log derived from it.
  void adopt(std::shared_ptr<const void> owner) { owners_.push_back(std::move(owner)); }

  /// Shares all owners of `other` — every derived-log operation calls
  /// this so views remain valid through arbitrary derivation chains.
  void adopt_owners_of(const EventLog& other) {
    owners_.insert(owners_.end(), other.owners_.begin(), other.owners_.end());
  }

  // -- ingestion warnings ----------------------------------------------

  /// Reader warnings collected while this log was built from trace
  /// files ("<path>: line N: ..."), ordered by file then line. Empty
  /// for synthesized and derived logs.
  [[nodiscard]] const std::vector<std::string>& warnings() const { return warnings_; }
  void add_warning(std::string warning) { warnings_.push_back(std::move(warning)); }

  // -- queries ----------------------------------------------------------

  /// Keeps only events whose file path contains `substr` (the paper's
  /// apply_fp_filter). Cases that become empty are kept (a case with no
  /// matching events contributes an empty trace).
  [[nodiscard]] EventLog filter_fp(std::string_view substr) const;

  /// Generic event-level filter.
  [[nodiscard]] EventLog filter_events(const std::function<bool(const Event&)>& pred) const;

  /// Splits cases into (matching, rest) — the G/R partition of
  /// Sec. IV-C.
  [[nodiscard]] std::pair<EventLog, EventLog> partition(
      const std::function<bool(const Case&)>& pred) const;

  /// Union of two event logs (Cx = Ca ∪ Cb). Cases are concatenated;
  /// duplicate CaseIds are rejected with LogicError because no two
  /// events (and hence cases) may be identical (Sec. IV).
  [[nodiscard]] static EventLog merge(const EventLog& a, const EventLog& b);

  /// The same union by move: no event is copied. Duplicates are checked
  /// before anything moves, and rejected with the same LogicError.
  [[nodiscard]] static EventLog merge(EventLog&& a, EventLog&& b);

 private:
  std::vector<Case> cases_;
  std::shared_ptr<strace::StringArena> arena_;       ///< lazily created; also in owners_
  std::vector<std::shared_ptr<const void>> owners_;  ///< storage the events view into
  std::vector<std::string> warnings_;
};

}  // namespace st::model
