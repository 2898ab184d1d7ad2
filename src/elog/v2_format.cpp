#include "elog/v2_format.hpp"

#include "support/errors.hpp"

namespace st::elog {

std::string_view section_kind_name(SectionKind kind) {
  switch (kind) {
    case SectionKind::kStringPool: return "pool";
    case SectionKind::kCaseDirectory: return "directory";
    case SectionKind::kColPid: return "pid";
    case SectionKind::kColCall: return "call";
    case SectionKind::kColStart: return "start";
    case SectionKind::kColDur: return "dur";
    case SectionKind::kColFp: return "fp";
    case SectionKind::kColSize: return "size";
  }
  return "reserved";
}

void put_section_entry(std::string& out, const SectionEntry& e) {
  put_u32(out, static_cast<std::uint32_t>(e.kind));
  put_u32(out, e.case_index);
  put_u64(out, e.offset);
  put_u64(out, e.length);
  put_u32(out, e.crc);
  put_u32(out, e.aux);
}

SectionEntry load_section_entry(const char* p) {
  SectionEntry e;
  e.kind = static_cast<SectionKind>(load_u32(p));
  e.case_index = load_u32(p + 4);
  e.offset = load_u64(p + 8);
  e.length = load_u64(p + 16);
  e.crc = load_u32(p + 24);
  e.aux = load_u32(p + 28);
  return e;
}

void put_footer(std::string& out, const FooterV2& f) {
  put_u64(out, f.table_offset);
  put_u32(out, f.section_count);
  put_u32(out, f.case_count);
  put_u32(out, f.table_crc);
  put_u32(out, 0);  // reserved; checked on read so every byte is covered
  out.append(kFooterMagicV2);
}

FooterV2 load_footer(std::string_view file) {
  if (file.size() < kMagicV2.size() + kFooterBytes) {
    throw IoError("elog v2: file too small for footer");
  }
  const char* p = file.data() + (file.size() - kFooterBytes);
  if (std::string_view(p + 24, 8) != kFooterMagicV2) {
    throw IoError("elog v2: bad footer magic");
  }
  FooterV2 f;
  f.table_offset = load_u64(p);
  f.section_count = load_u32(p + 8);
  f.case_count = load_u32(p + 12);
  f.table_crc = load_u32(p + 16);
  if (load_u32(p + 20) != 0) throw IoError("elog v2: footer reserved field not zero");
  const std::uint64_t table_len =
      static_cast<std::uint64_t>(f.section_count) * kSectionEntryBytes;
  // The table abuts the footer exactly: no unaccounted trailing bytes.
  if (f.table_offset < kMagicV2.size() || f.table_offset % kSectionAlign != 0 ||
      f.table_offset + table_len != file.size() - kFooterBytes) {
    throw IoError("elog v2: section table bounds corrupt");
  }
  return f;
}

void put_uvarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t read_uvarint(const char** p, const char* end) {
  std::uint64_t v = 0;
  int shift = 0;
  const char* cur = *p;
  while (true) {
    if (cur == end) throw IoError("elog v2: truncated varint");
    if (shift >= 64) throw IoError("elog v2: overlong varint");
    const auto byte = static_cast<unsigned char>(*cur++);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *p = cur;
  return v;
}

}  // namespace st::elog
