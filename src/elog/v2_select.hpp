// Query selection over elog v2 — evaluate a compiled Query directly on
// the columnar sections:
//
//   1. COMPILE  the Query once against the file's string dictionary:
//      call/cid/host restrictions become bitmaps over pool ids, fp~
//      substrings scan the (tiny) dictionary once into a matching
//      fp-id bitmap. After this no string is ever compared again.
//   2. COUNT    cid/host misses drop a case from its directory entry
//      alone; an event restriction walks the columns it tests of the
//      cases left, in row order, with every check case_at makes of what
//      it reads, and counts the rows that pass.
//
// The result is a Selection: per kept case, its container index and
// whether all, none or some of its rows survive, plus the survivor
// count — 16 bytes a kept case. No row mask is stored: load_selected
// walks a kSome case's rows again with the same predicate as it decodes
// them. The kept cases, decoded in order, are BYTE-IDENTICAL to
// Query::apply on the materialized log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "elog/v2_store.hpp"
#include "model/event_log.hpp"
#include "model/query.hpp"

namespace st::elog {

/// A Query compiled against one file's dictionary (v2_select.cpp).
struct CompiledQuery;

/// What a query keeps of a container's cases.
struct Selection {
  /// Which of a kept case's rows survive.
  enum class Rows : std::uint8_t { kAll, kNone, kSome };
  struct Kept {
    std::size_t index = 0;  ///< the case's index in the container
    Rows rows = Rows::kAll;
  };
  std::vector<Kept> cases;    ///< in container order
  std::uint64_t events = 0;   ///< surviving rows over every kept case
  /// The predicate load_selected re-derives kSome rows from.
  std::shared_ptr<const CompiledQuery> predicate;
};

/// Selects `q` over cases `cases` (container indices, ascending) of
/// `mapped`: compile, count. Throws the IoError case_at would
/// for a column the count reads.
[[nodiscard]] Selection select(const MappedElog& mapped, const model::Query& q,
                               std::span<const std::size_t> cases);

/// Kept case k of `s` into `out`, reusing its event storage, with the
/// pool-id pair of each event in `pairs` (as MappedElog::case_at).
void load_selected(const MappedElog& mapped, const Selection& s, std::size_t k,
                   model::Case& out, std::vector<std::uint64_t>& pairs);

/// Cases [first_case, first_case + case_count) of a merged log are, in
/// order, the cases of `mapped`. perfbench's trace driver records one
/// per container it reads (read_event_log_file_indexed).
struct IndexedSegment {
  std::size_t first_case = 0;
  std::size_t case_count = 0;
  std::shared_ptr<MappedElog> mapped;
};

/// Selects `q` over every case of `mapped`, then materializes the kept
/// cases: q.apply(read_event_log_v2(mapped)); the result adopts
/// `mapped`.
[[nodiscard]] model::EventLog select_v2(const std::shared_ptr<MappedElog>& mapped,
                                        const model::Query& q);

}  // namespace st::elog
