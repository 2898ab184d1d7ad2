// A container as a fold source: its cases fold in column space, with
// no EventLog in between (pipeline::fold_cases over a CaseSource).
//
// read_event_log_v2 materializes every case of a container before a
// report folds it, and each fold task then hashes every event's
// (call, fp) strings again to map it. A v2 container already stores
// call and fp as file-level string-pool ids (ColCall, ColFp), so a
// registry mapping — keyed by (call, fp) alone, Mapping::Key::kCallFp —
// needs one evaluation per distinct (call id, fp id) pair of the whole
// file. ContainerCases does that work up front:
//
//   1. SCAN   on the pool, each case is checked like case_at checks it
//             (section CRCs, pool strings, the start column:
//             MappedElog::check_case) and its distinct pool-id pairs
//             are collected; failing cases follow read_event_log_v2's
//             policy — the lowest one's error under fail fast, a
//             quarantine warning each under keep_going;
//   2. MAP    each kCallFp mapping is evaluated once per distinct pair,
//             in first-seen (case, row) order, into one ActivityDict
//             for the whole (container, mapping), plus a table from
//             pair to activity id. From here on the dictionary is
//             read-only, and every fold task shares it;
//   3. FOLD   each task decodes its cases one at a time into a reused
//             Case buffer (case_at) and maps each event by table
//             lookup. A kEvent mapping (custom, filtered(name, pred))
//             is mapped per task by map_case, as for any other source.
//
// Ids are handed out in another order than a per-task dictionary's,
// but every sink names its ids before it merges (CaseSink::seal), so
// the folded output is byte-identical to a fold over the materialized
// log at any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "elog/v2_select.hpp"
#include "elog/v2_store.hpp"
#include "model/mapped_case.hpp"
#include "model/mapping.hpp"
#include "pipeline/sink.hpp"
#include "support/run_policy.hpp"

namespace st {
class ThreadPool;
}  // namespace st

namespace st::elog {

class ContainerCases final : public pipeline::CaseSource {
 public:
  /// Scans `mapped` on `pool` (serially, stopping at the first failure
  /// under fail fast, when it is null) and builds a dictionary for each
  /// kCallFp mapping of `mappings`, which must outlive the source and
  /// are told apart by address. Throws the lowest failing case's error
  /// under fail fast; under keep_going the failing cases are left out.
  ContainerCases(std::shared_ptr<MappedElog> mapped,
                 std::span<const model::Mapping* const> mappings, const RunPolicy& policy,
                 ThreadPool* pool);

  class Selected;
  /// The kept cases.
  [[nodiscard]] std::size_t case_count() const override { return cases_.size(); }
  /// The events of the kept cases.
  [[nodiscard]] std::uint64_t total_events() const { return events_; }
  [[nodiscard]] const model::ActivityDict* dictionary(const model::Mapping& f) const override;
  [[nodiscard]] std::unique_ptr<Cursor> cursor() const override;

  /// The id of kept case k.
  [[nodiscard]] model::CaseId case_id(std::size_t k) const { return mapped_->case_id(cases_[k]); }
  /// One read_event_log_v2 quarantine warning per left-out case, in
  /// case order (keep_going only).
  [[nodiscard]] const std::vector<std::string>& warnings() const { return warnings_; }

  /// What `q` keeps of the kept cases (elog/v2_select.hpp), as a source
  /// sharing this one's dictionaries, valid while this one lives.
  [[nodiscard]] Selected select(const model::Query& q) const;

 private:
  class PairCursor;

  /// One kCallFp mapping's dictionary, and the activity id of each
  /// distinct pair (by its index in pairs_), or kUnmapped.
  struct Table {
    const model::Mapping* f = nullptr;
    std::unique_ptr<model::ActivityDict> dict;
    std::vector<std::uint32_t> ids;
  };
  [[nodiscard]] const Table* table_of(const model::Mapping& f) const;

  std::shared_ptr<MappedElog> mapped_;
  std::vector<std::size_t> cases_;  ///< container index of each kept case
  std::uint64_t events_ = 0;        ///< rows of the kept cases
  std::vector<std::uint64_t> pairs_;  ///< distinct pool-id pairs, first-seen order
  std::unordered_map<std::uint64_t, std::uint32_t> pair_index_;  ///< pair -> its index in pairs_
  std::vector<Table> tables_;
  std::vector<std::string> warnings_;
};

/// ContainerCases::select's source: its cursor decodes the surviving
/// rows of each case (load_selected) and maps them by the pair tables.
class ContainerCases::Selected final : public pipeline::CaseSource {
 public:
  Selected(const ContainerCases& container, Selection selection)
      : container_(container), selection_(std::move(selection)) {}

  [[nodiscard]] std::size_t case_count() const override { return selection_.cases.size(); }
  [[nodiscard]] const model::ActivityDict* dictionary(const model::Mapping& f) const override {
    return container_.dictionary(f);
  }
  [[nodiscard]] std::unique_ptr<Cursor> cursor() const override;
  /// The surviving events.
  [[nodiscard]] std::uint64_t total_events() const { return selection_.events; }

 private:
  const ContainerCases& container_;
  Selection selection_;
};

}  // namespace st::elog
