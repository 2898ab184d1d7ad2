// Indexed query selection over elog v2 — evaluate a compiled Query
// directly on the columnar sections, materializing only survivors.
//
// Query::apply materializes every case into Events and string-compares
// every one of them; over an mmap'd v2 corpus that walk IS the query
// cost, and it grows with corpus size, not selectivity. This module
// makes selectivity the cost instead (ISSUE 10):
//
//   1. COMPILE  the Query once against the file's string dictionary:
//      call/cid/host restrictions become bitmaps over pool ids (one
//      binary search per pool string), fp~ substrings scan the (tiny)
//      dictionary once into a matching fp-id bitmap. After this no
//      string is ever compared again.
//   2. PRUNE    whole cases without touching their columns: the call
//      posting list narrows to candidate cases, zone maps reject
//      disjoint time windows, the per-case call/fp id sets reject
//      cases whose dictionary footprint cannot match. A pruned case
//      still appears in the result as an EMPTY case — exactly the
//      apply() contract (event restrictions keep emptied cases).
//   3. SCAN     the residual predicate over the raw u32/varint columns
//      of surviving cases, materializing Events only for rows that
//      pass (a SWAR two-lane u32 matcher prefilters the call column
//      of cases with 8 or more rows when the accept set is a single
//      id).
//
// The contract throughout: the result is BYTE-IDENTICAL to
// Query::apply on the fully materialized log — same cases in the same
// order, same events, same (empty) warnings, same ownership
// propagation. Every index structure is advisory-by-absence only:
// missing sections degrade to the column scan, but a present-and-
// corrupt index surfaces as IoError, never as wrong pruning.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "elog/v2_store.hpp"
#include "model/event_log.hpp"
#include "model/query.hpp"

namespace st::elog {

/// One v2-backed slice of a merged corpus: cases [first_case,
/// first_case + case_count) of the base log are, in order, the cases
/// of `mapped`. Catalog::load and the CLI loaders record one segment
/// per cleanly-read v2 container (quarantines disqualify a file — its
/// case numbering no longer lines up).
struct IndexedSegment {
  std::size_t first_case = 0;
  std::size_t case_count = 0;
  std::shared_ptr<MappedElog> mapped;
};

/// Indexed selection over one mapped corpus. Byte-identical to
/// q.apply(read_event_log_v2(mapped)); the result adopts `mapped`.
[[nodiscard]] model::EventLog select_v2(const std::shared_ptr<MappedElog>& mapped,
                                        const model::Query& q);

/// Byte-identical to q.apply(base), with every case covered by a
/// segment routed through the indexed columnar path and everything
/// else through Query::apply_case. Segments must be sorted by
/// first_case and non-overlapping (LogicError otherwise); a segment
/// with a null mapped pointer is simply not indexed. With no segments
/// this is exactly Query::apply.
[[nodiscard]] model::EventLog apply_query_indexed(const model::Query& q,
                                                  const model::EventLog& base,
                                                  std::span<const IndexedSegment> segments);

}  // namespace st::elog
