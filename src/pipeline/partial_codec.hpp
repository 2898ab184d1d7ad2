// Serialized CaseSink partials — the wire format of the shard-parallel
// pipeline (ISSUE 7 / ROADMAP item 3b).
//
// Every analytic the pipeline folds is a monoid; this codec makes the
// monoid's elements portable across process (and eventually machine)
// boundaries: an `elog_tool fold-shard` worker streams its file split
// through pipeline::ingest and encodes ONE blob holding every partial;
// the coordinator decodes the blobs and merges them in input order,
// so the sharded result is bit-identical to the in-process run.
//
// Blob layout (all integers little-endian, elog primitives):
//
//   blob    := magic "STPART2\0" | u32 section_count | section*
//   section := u32 kind | u32 reserved(0) | u64 length
//            | payload[length] | u32 crc32(payload)
//
// The string pool (kind 1) is always the first section; every other
// payload references strings by pool id (LEB128 varints, zigzag for
// signed values, doubles as raw IEEE-754 u64 bit patterns so decoded
// partials are bitwise equal to encoded ones). Integrity follows the
// elog v2 contract: every payload is CRC-protected, decoding is
// bounds-checked, unknown/duplicate/misplaced sections and trailing
// bytes are rejected — ANY truncation or bit flip surfaces as IoError
// (exhaustive single-bit-flip sweep in test_partial_codec), never as
// silently wrong analytics.
//
// Section kinds:
//   1 StringPool   u32 count | u32 reserved(0) | u32 end_offset[count] | blob
//   2 Meta         the name of the mapping the partial was folded
//                  under (length-prefixed bytes), case_count,
//                  total_events, ingestion warnings, data-health
//                  counters (requested/ingested/skipped/quarantined)
//   3 Dfg          nodes, edges, trace count
//   4 CaseStats    CaseSummary sequence (input order)
//   6 Variants     the variant multiset
//   8 IoStats      IoStatistics::Partial (per-case contributions)
//   9 EdgeStats    EdgeStatistics::Partial (integer edge-gap map)
//
// Every section is one the report renders from (report/report.hpp's
// render_sharded_report). Kinds 5 and 7 are retired and rejected like
// any unassigned kind, so a blob from an older writer that still
// carries them fails loudly instead of decoding partially. STPART1
// blobs (no mapping name) are refused by their magic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dfg/dfg.hpp"
#include "dfg/edge_stats.hpp"
#include "dfg/stats.hpp"
#include "model/activity_log.hpp"
#include "model/case_stats.hpp"
#include "pipeline/sink.hpp"

namespace st::pipeline {

inline constexpr std::string_view kPartialMagic{"STPART2\0", 8};

enum class PartialSection : std::uint32_t {
  kStringPool = 1,
  kMeta = 2,
  kDfg = 3,
  kCaseStats = 4,
  kVariants = 6,
  kIoStats = 8,
  kEdgeStats = 9,
};

/// Builds one blob: encode_* calls intern strings and add sections in
/// any order; finish() emits the pool first, then the sections in the
/// order they were added.
class PartialWriter {
 public:
  /// Pool id of `s`, interning it on first use.
  [[nodiscard]] std::uint32_t intern(std::string_view s);

  /// Adds a section (one per kind; LogicError on duplicates).
  void add_section(PartialSection kind, std::string payload);

  [[nodiscard]] std::string finish() const;

 private:
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint32_t, SvHash, std::equal_to<>> ids_;
  std::vector<std::pair<PartialSection, std::string>> sections_;
};

/// Opens a blob, validating EVERYTHING eagerly: magic, section
/// structure, per-section CRCs, pool shape, no unknown or duplicate
/// kinds, no trailing bytes. Throws IoError on any defect. The blob
/// bytes must outlive the reader (sections are views).
class PartialReader {
 public:
  explicit PartialReader(std::string_view blob);

  [[nodiscard]] bool has_section(PartialSection kind) const;
  /// Payload of `kind`; IoError when the blob does not carry it.
  [[nodiscard]] std::string_view section(PartialSection kind) const;
  /// Pool lookup; IoError on out-of-range ids (a flipped id byte in a
  /// CRC-colliding payload must still fail loudly).
  [[nodiscard]] std::string_view pool_string(std::uint64_t id) const;

 private:
  std::string_view sections_[10];  ///< indexed by kind; empty view = absent
  bool present_[10] = {};
  std::uint32_t pool_count_ = 0;
  const char* pool_ends_ = nullptr;
  const char* pool_blob_ = nullptr;
};

// ---- the shard unit ----------------------------------------------------

/// Everything one pipeline::ingest pass folds for the report: the partial
/// of each of the report's sinks plus the run metadata. The unit
/// fold-shard encodes, the coordinator merges, and the in-process
/// streamed report finalizes as a single shard.
struct ShardPartial {
  /// Mapping::name() of the mapping the activity partials were folded
  /// under; finalize_shards refuses to merge partials that differ.
  std::string mapping;
  std::uint64_t case_count = 0;
  std::uint64_t total_events = 0;
  std::vector<std::string> warnings;  ///< path-prefixed, input order
  /// Counters only (warnings_by_class is recomputed by the coordinator
  /// from the merged warning list so classes match the streamed run).
  DataHealth health;
  dfg::Dfg graph;
  std::vector<model::CaseSummary> case_summaries;
  model::VariantCounts variants;
  dfg::IoStatistics::Partial io;
  dfg::EdgeStatistics::Partial edges;

  /// Input-order monoid fold — mirrors, analytic by analytic, exactly
  /// what pipeline::run's per-task merges do, so folding shard
  /// partials in shard order equals one in-process run.
  void merge(ShardPartial&& other);
};

[[nodiscard]] std::string encode_shard_partial(const ShardPartial& p);
[[nodiscard]] ShardPartial decode_shard_partial(std::string_view blob);

}  // namespace st::pipeline
