// elog v2: the columnar, mmap-native corpus format ("STELOG2\0").
//
// v2 is laid out so that opening a corpus does ZERO parse work:
// a footer at the file tail points at a section table, the table
// indexes every section by (kind, case, offset, length), and all event
// data lives in fixed-width or self-delimiting columns that EventLog
// views can be built over lazily, straight from the mapping. All
// integers are little-endian; every multi-byte load goes through the
// byte-assembly load_* helpers of format.hpp (no pointer-cast UB,
// byte-order independent).
//
//   file    := magic[8] | section* | table | footer[32]
//   section := raw bytes, 8-byte-aligned start, zero padding between
//   table   := section_count x entry, 32 bytes each:
//                u32 kind | u32 case_index | u64 offset | u64 length
//              | u32 crc32(section bytes) | u32 aux
//   footer  := u64 table_offset | u32 section_count | u32 case_count
//            | u32 crc32(table bytes) | u32 reserved(0)
//            | footer magic "STELOG2F"
//
// Section kinds:
//   1 StringPool     u32 count | u32 reserved(0) | u32 end_offset[count]
//                    | blob. ONE file-level dictionary shared by the
//                    cid/host/call/fp columns of every case; string i
//                    is blob[end[i-1] .. end[i]) with end[-1] = 0.
//   2 CaseDirectory  24 bytes per case, in case order:
//                    u32 cid_id | u32 host_id | u64 rid | u64 rows
//   3 ColPid         rows x u64           (case_index names the case)
//   4 ColCall        rows x u32 pool ids
//   5 ColStart       delta-encoded start timestamps (delta from the
//                    previous row's start; the first delta is relative
//                    to 0). aux selects the encoding chosen at write
//                    time, whichever is smaller: 0 = rows x i64 fixed
//                    width, 1 = zigzag LEB128 varints.
//   6 ColDur         rows x i64
//   7 ColFp          rows x u32 pool ids
//   8 ColSize        rows x i64
//   9..12            reserved. Files written before the retired
//                    query index carry a zone map, call and fp id sets
//                    and a call posting list under these kinds, all
//                    file-level (case_index 0). Open and every read
//                    skip them; verify() still covers their CRCs and
//                    padding, so they stay part of the file's bytes.
//                    No writer emits them and nothing reads them.
//
// Integrity: each section carries a crc32 in its table entry,
// validated lazily — once, the first time the section's bytes are
// decoded — or eagerly by MappedElog::verify(), which additionally
// checks the table/footer structure and that inter-section padding is
// zero, so a full verify pass covers every byte of the file.
// Corruption always surfaces as IoError, never as silently wrong
// analysis.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "elog/format.hpp"

namespace st::elog {

inline constexpr std::string_view kMagicV2{"STELOG2\0", 8};
inline constexpr std::string_view kFooterMagicV2{"STELOG2F", 8};

inline constexpr std::size_t kSectionAlign = 8;
inline constexpr std::size_t kSectionEntryBytes = 32;
inline constexpr std::size_t kFooterBytes = 32;
inline constexpr std::size_t kDirEntryBytes = 24;

enum class SectionKind : std::uint32_t {
  kStringPool = 1,
  kCaseDirectory = 2,
  kColPid = 3,
  kColCall = 4,
  kColStart = 5,
  kColDur = 6,
  kColFp = 7,
  kColSize = 8,
};

/// Kinds a reader accepts: 1..8 above, and 9..12, reserved (skipped).
inline constexpr std::uint32_t kSectionKindMin = 1;
inline constexpr std::uint32_t kSectionKindMax = 12;

/// Human-readable kind name ("pool", "pid", ...) for stat/error output;
/// "reserved" for kinds 9..12.
[[nodiscard]] std::string_view section_kind_name(SectionKind kind);

/// ColStart encodings (the `aux` field of its table entry).
inline constexpr std::uint32_t kStartEncodingFixed = 0;
inline constexpr std::uint32_t kStartEncodingVarint = 1;

/// One row of the section table (in-memory form).
struct SectionEntry {
  SectionKind kind{};
  std::uint32_t case_index = 0;  ///< 0 for pool/directory
  std::uint64_t offset = 0;      ///< from file start; 8-byte aligned
  std::uint64_t length = 0;      ///< payload bytes (padding excluded)
  std::uint32_t crc = 0;         ///< crc32 of the payload bytes
  std::uint32_t aux = 0;         ///< per-kind extra (ColStart encoding)
};

void put_section_entry(std::string& out, const SectionEntry& e);
[[nodiscard]] SectionEntry load_section_entry(const char* p);

struct FooterV2 {
  std::uint64_t table_offset = 0;
  std::uint32_t section_count = 0;
  std::uint32_t case_count = 0;
  std::uint32_t table_crc = 0;
};

void put_footer(std::string& out, const FooterV2& f);

/// Parses and structurally validates the 32-byte footer at the tail of
/// `file` (magic, reserved field, table bounds). Throws IoError.
[[nodiscard]] FooterV2 load_footer(std::string_view file);

// -- varint (zigzag LEB128) --------------------------------------------

[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

void put_uvarint(std::string& out, std::uint64_t v);

/// Decodes one LEB128 varint and advances *p. Throws IoError on
/// truncation and on encodings longer than 10 bytes.
[[nodiscard]] std::uint64_t read_uvarint(const char** p, const char* end);

}  // namespace st::elog
