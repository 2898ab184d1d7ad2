#include "elog/v2_store.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "support/crc32.hpp"
#include "support/errors.hpp"
#include "support/faultpoint.hpp"

namespace st::elog {

namespace {

constexpr std::uint32_t kNoSection = 0xFFFFFFFFu;

/// Wrap-consistent signed add/sub through u64 (corrupt deltas must
/// wrap, not trip signed-overflow UB; encode and decode agree exactly).
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

std::string section_label(const SectionEntry& e) {
  std::string label(section_kind_name(e.kind));
  const auto raw = static_cast<std::uint32_t>(e.kind);
  if (raw >= static_cast<std::uint32_t>(SectionKind::kColPid) &&
      raw <= static_cast<std::uint32_t>(SectionKind::kColSize)) {
    label += " of case " + std::to_string(e.case_index);
  }
  return label;
}

}  // namespace

// ---- encoding ----------------------------------------------------------

EncodedCase encode_case(const model::Case& c) {
  EncodedCase ec;
  ec.cid = c.id().cid;
  ec.host = c.id().host;
  ec.rid = c.id().rid;
  const auto events = c.events();
  ec.rows = events.size();

  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string_view, std::uint32_t, SvHash, std::equal_to<>> local;
  const auto intern_local = [&](std::string_view s) {
    const auto it = local.find(s);
    if (it != local.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(ec.strings.size());
    ec.strings.push_back(s);
    local.emplace(s, id);
    return id;
  };
  // Distinct-id sets for the index sections: first-seen collection
  // here, sorted at the end (ids are local; append_encoded re-sorts
  // after the file-level remap anyway).
  std::vector<char> seen_call;
  std::vector<char> seen_fp;
  const auto note = [](std::vector<char>& seen, std::vector<std::uint32_t>& set,
                       std::uint32_t id) {
    if (id >= seen.size()) seen.resize(id + 1, 0);
    if (!seen[id]) {
      seen[id] = 1;
      set.push_back(id);
    }
  };

  std::string fixed;
  std::string varint;
  ec.col_pid.reserve(events.size() * 8);
  ec.col_call.reserve(events.size() * 4);
  ec.col_dur.reserve(events.size() * 8);
  ec.col_fp.reserve(events.size() * 4);
  ec.col_size.reserve(events.size() * 8);
  fixed.reserve(events.size() * 8);
  std::int64_t prev = 0;
  for (const model::Event& e : events) {
    put_u64(ec.col_pid, e.pid);
    const std::uint32_t call_id = intern_local(e.call);
    put_u32(ec.col_call, call_id);
    note(seen_call, ec.call_set, call_id);
    const std::int64_t delta = wrap_sub(e.start, prev);
    prev = e.start;
    put_i64(fixed, delta);
    put_uvarint(varint, zigzag_encode(delta));
    put_i64(ec.col_dur, e.dur);
    const std::uint32_t fp_id = intern_local(e.fp);
    put_u32(ec.col_fp, fp_id);
    note(seen_fp, ec.fp_set, fp_id);
    put_i64(ec.col_size, e.size);
    ec.min_start = std::min(ec.min_start, e.start);
    ec.max_start = std::max(ec.max_start, e.start);
    ec.min_pid = std::min(ec.min_pid, e.pid);
    ec.max_pid = std::max(ec.max_pid, e.pid);
  }
  std::sort(ec.call_set.begin(), ec.call_set.end());
  std::sort(ec.fp_set.begin(), ec.fp_set.end());
  // Write-time choice, deterministic per case: whichever start encoding
  // is strictly smaller (ties keep fixed width — cheaper to decode).
  if (varint.size() < fixed.size()) {
    ec.col_start = std::move(varint);
    ec.start_encoding = kStartEncodingVarint;
  } else {
    ec.col_start = std::move(fixed);
    ec.start_encoding = kStartEncodingFixed;
  }
  return ec;
}

// ---- writer ------------------------------------------------------------

ElogV2Writer::ElogV2Writer(std::ostream& out, ElogV2WriterOptions opts)
    : out_(&out), opts_(opts) {
  write_raw(kMagicV2);
}

ElogV2Writer::ElogV2Writer(const std::string& path, ElogV2WriterOptions opts)
    : file_(std::make_unique<PublishedFile>(path)), out_(&file_->stream()), opts_(opts) {
  write_raw(kMagicV2);
}

void ElogV2Writer::write_raw(std::string_view bytes) {
  out_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!*out_) throw IoError("elog v2 write failed");
  offset_ += bytes.size();
}

void ElogV2Writer::add_section(SectionKind kind, std::uint32_t case_index,
                               std::string_view payload, std::uint32_t aux) {
  static constexpr char kZeros[kSectionAlign] = {};
  const std::size_t pad = (kSectionAlign - offset_ % kSectionAlign) % kSectionAlign;
  if (pad != 0) write_raw(std::string_view(kZeros, pad));
  SectionEntry e;
  e.kind = kind;
  e.case_index = case_index;
  e.offset = offset_;
  e.length = payload.size();
  e.crc = Crc32::of(payload.data(), payload.size());
  e.aux = aux;
  entries_.push_back(e);
  write_raw(payload);
}

std::uint32_t ElogV2Writer::intern(std::string_view s) {
  const auto it = pool_ids_.find(s);
  if (it != pool_ids_.end()) return it->second;
  if (pool_blob_bytes_ + s.size() > 0xFFFFFFFFull) {
    throw IoError("elog v2: string pool exceeds 4 GiB");
  }
  const auto id = static_cast<std::uint32_t>(pool_strings_.size());
  pool_strings_.emplace_back(s);
  pool_ids_.emplace(pool_strings_.back(), id);
  pool_blob_bytes_ += s.size();
  return id;
}

void ElogV2Writer::append(const model::Case& c) { append_encoded(encode_case(c)); }

void ElogV2Writer::append_encoded(EncodedCase&& ec) {
  if (finalized_) throw LogicError("ElogV2Writer::append after finalize");
  if (cases_ >= 0xFFFFFFFFull) throw IoError("elog v2: too many cases");
  // Intern in the exact order a staged write would (cid, host, then the
  // case-local dictionary in first-use order) — this is what makes the
  // streamed sink's file byte-identical to the staged one.
  const std::uint32_t cid_id = intern(ec.cid);
  const std::uint32_t host_id = intern(ec.host);
  std::vector<std::uint32_t> remap;
  remap.reserve(ec.strings.size());
  for (const std::string_view s : ec.strings) remap.push_back(intern(s));
  // Rewrite the id columns from case-local to file-level ids in place.
  for (std::string* col : {&ec.col_call, &ec.col_fp}) {
    for (std::size_t off = 0; off < col->size(); off += 4) {
      store_u32(col->data() + off, remap[load_u32(col->data() + off)]);
    }
  }

  put_u32(directory_, cid_id);
  put_u32(directory_, host_id);
  put_u64(directory_, ec.rid);
  put_u64(directory_, ec.rows);

  const auto case_index = static_cast<std::uint32_t>(cases_);
  if (opts_.write_index) {
    put_i64(zones_, ec.min_start);
    put_i64(zones_, ec.max_start);
    put_u64(zones_, ec.min_pid);
    put_u64(zones_, ec.max_pid);
    // The remap permutes ids arbitrarily (file-level interning order),
    // so the sets must be re-sorted; it is injective per case (distinct
    // strings get distinct file ids), so no re-dedup is needed.
    for (std::uint32_t& id : ec.call_set) id = remap[id];
    for (std::uint32_t& id : ec.fp_set) id = remap[id];
    std::sort(ec.call_set.begin(), ec.call_set.end());
    std::sort(ec.fp_set.begin(), ec.fp_set.end());
    if (call_set_ids_.size() + ec.call_set.size() > 0xFFFFFFFFull ||
        fp_set_ids_.size() + ec.fp_set.size() > 0xFFFFFFFFull) {
      throw IoError("elog v2: index sets exceed u32 offsets");
    }
    for (const std::uint32_t id : ec.call_set) {
      call_set_ids_.push_back(id);
      postings_[id].push_back(case_index);
    }
    call_set_ends_.push_back(static_cast<std::uint32_t>(call_set_ids_.size()));
    fp_set_ids_.insert(fp_set_ids_.end(), ec.fp_set.begin(), ec.fp_set.end());
    fp_set_ends_.push_back(static_cast<std::uint32_t>(fp_set_ids_.size()));
  }
  add_section(SectionKind::kColPid, case_index, ec.col_pid);
  add_section(SectionKind::kColCall, case_index, ec.col_call);
  add_section(SectionKind::kColStart, case_index, ec.col_start, ec.start_encoding);
  add_section(SectionKind::kColDur, case_index, ec.col_dur);
  add_section(SectionKind::kColFp, case_index, ec.col_fp);
  add_section(SectionKind::kColSize, case_index, ec.col_size);
  ++cases_;
}

void ElogV2Writer::finalize() {
  if (finalized_) return;
  std::string pool_payload;
  put_u32(pool_payload, static_cast<std::uint32_t>(pool_strings_.size()));
  put_u32(pool_payload, 0);  // reserved; readers require zero
  std::uint64_t end = 0;
  for (const auto& s : pool_strings_) {
    end += s.size();
    put_u32(pool_payload, static_cast<std::uint32_t>(end));
  }
  for (const auto& s : pool_strings_) pool_payload.append(s);
  add_section(SectionKind::kStringPool, 0, pool_payload);
  add_section(SectionKind::kCaseDirectory, 0, directory_);
  if (opts_.write_index) {
    add_section(SectionKind::kZoneMap, 0, zones_);
    const auto set_payload = [](const std::vector<std::uint32_t>& ends,
                                const std::vector<std::uint32_t>& ids) {
      std::string out;
      out.reserve((ends.size() + ids.size()) * 4);
      for (const std::uint32_t e : ends) put_u32(out, e);
      for (const std::uint32_t id : ids) put_u32(out, id);
      return out;
    };
    add_section(SectionKind::kCallSet, 0, set_payload(call_set_ends_, call_set_ids_));
    add_section(SectionKind::kFpSet, 0, set_payload(fp_set_ends_, fp_set_ids_));
    std::string posting;
    posting.reserve(8 + postings_.size() * 8 + call_set_ids_.size() * 4);
    put_u32(posting, static_cast<std::uint32_t>(postings_.size()));
    put_u32(posting, 0);  // reserved; readers require zero
    std::uint64_t end = 0;
    for (const auto& [id, list] : postings_) {
      end += list.size();
      put_u32(posting, id);
      put_u32(posting, static_cast<std::uint32_t>(end));
    }
    for (const auto& [id, list] : postings_) {
      for (const std::uint32_t c : list) put_u32(posting, c);
    }
    add_section(SectionKind::kPosting, 0, posting);
  }

  static constexpr char kZeros[kSectionAlign] = {};
  const std::size_t pad = (kSectionAlign - offset_ % kSectionAlign) % kSectionAlign;
  if (pad != 0) write_raw(std::string_view(kZeros, pad));
  std::string table;
  table.reserve(entries_.size() * kSectionEntryBytes);
  for (const SectionEntry& e : entries_) put_section_entry(table, e);
  FooterV2 f;
  f.table_offset = offset_;
  f.section_count = static_cast<std::uint32_t>(entries_.size());
  f.case_count = static_cast<std::uint32_t>(cases_);
  f.table_crc = Crc32::of(table.data(), table.size());
  write_raw(table);
  std::string footer;
  put_footer(footer, f);
  write_raw(footer);
  out_->flush();
  if (!*out_) throw IoError("elog v2 write failed");
  finalized_ = true;
  if (file_) file_->publish();
}

void write_event_log_v2(std::ostream& out, const model::EventLog& log,
                        ElogV2WriterOptions opts) {
  ElogV2Writer writer(out, opts);
  for (const model::Case& c : log.cases()) writer.append(c);
  writer.finalize();
}

void write_event_log_v2_file(const std::string& path, const model::EventLog& log,
                             ElogV2WriterOptions opts) {
  ElogV2Writer writer(path, opts);
  for (const model::Case& c : log.cases()) writer.append(c);
  writer.finalize();
}

// ---- mapped reader -----------------------------------------------------

std::shared_ptr<MappedElog> MappedElog::from_buffer(
    std::shared_ptr<strace::TraceBuffer> buffer) {
  if (!buffer) throw LogicError("MappedElog::from_buffer: null buffer");
  FAULT_POINT("elog.open");
  std::shared_ptr<MappedElog> m(new MappedElog());
  m->buffer_ = std::move(buffer);
  m->file_ = m->buffer_->text();
  const std::string_view file = m->file_;

  if (file.size() < kMagicV2.size() + kFooterBytes) {
    throw IoError("elog v2: file too small");
  }
  if (file.substr(0, kMagicV2.size()) != kMagicV2) throw IoError("elog v2: bad magic");
  const FooterV2 f = load_footer(file);

  const char* table = file.data() + f.table_offset;
  const std::uint64_t table_len =
      static_cast<std::uint64_t>(f.section_count) * kSectionEntryBytes;
  if (Crc32::of(table, table_len) != f.table_crc) {
    throw IoError("elog v2: section table crc mismatch");
  }
  // Bound the case count against the file BEFORE sizing anything by it:
  // the directory needs 24 bytes per case inside the section area.
  if (static_cast<std::uint64_t>(f.case_count) * kDirEntryBytes > f.table_offset) {
    throw IoError("elog v2: case count implausible");
  }

  m->entries_.reserve(f.section_count);
  m->cases_.assign(f.case_count, CaseRef{});
  for (CaseRef& cr : m->cases_) {
    for (std::uint32_t& c : cr.col) c = kNoSection;
  }
  std::size_t pool_index = kNoSection;
  std::size_t dir_index = kNoSection;
  for (std::uint32_t i = 0; i < f.section_count; ++i) {
    const SectionEntry e =
        load_section_entry(table + static_cast<std::size_t>(i) * kSectionEntryBytes);
    const auto kind_raw = static_cast<std::uint32_t>(e.kind);
    if (kind_raw < kSectionKindMin || kind_raw > kSectionKindMax) {
      throw IoError("elog v2: unknown section kind " + std::to_string(kind_raw));
    }
    if (e.offset < kMagicV2.size() || e.offset % kSectionAlign != 0 ||
        e.length > f.table_offset || e.offset > f.table_offset - e.length) {
      throw IoError("elog v2: section bounds corrupt (" + section_label(e) + ")");
    }
    if (e.kind == SectionKind::kStringPool) {
      if (pool_index != kNoSection) throw IoError("elog v2: duplicate string pool");
      if (e.case_index != 0) throw IoError("elog v2: string pool has a case index");
      pool_index = i;
    } else if (e.kind == SectionKind::kCaseDirectory) {
      if (dir_index != kNoSection) throw IoError("elog v2: duplicate case directory");
      if (e.case_index != 0) throw IoError("elog v2: case directory has a case index");
      dir_index = i;
    } else if (section_kind_is_index(e.kind)) {
      // Optional file-level index sections. Discovery only here: their
      // CRCs and structural invariants are validated by index_view()
      // the first time a query consults them (and by verify()).
      std::uint32_t* slot = nullptr;
      switch (e.kind) {
        case SectionKind::kZoneMap: slot = &m->zone_section_; break;
        case SectionKind::kCallSet: slot = &m->callset_section_; break;
        case SectionKind::kFpSet: slot = &m->fpset_section_; break;
        default: slot = &m->posting_section_; break;
      }
      if (*slot != kNoSection) {
        throw IoError("elog v2: duplicate section (" + section_label(e) + ")");
      }
      if (e.case_index != 0) {
        throw IoError("elog v2: index section has a case index (" + section_label(e) + ")");
      }
      *slot = i;
    } else {
      if (e.case_index >= f.case_count) {
        throw IoError("elog v2: section case index out of range");
      }
      std::uint32_t& slot =
          m->cases_[e.case_index].col[kind_raw - static_cast<std::uint32_t>(SectionKind::kColPid)];
      if (slot != kNoSection) {
        throw IoError("elog v2: duplicate section (" + section_label(e) + ")");
      }
      slot = i;
    }
    m->entries_.push_back(e);
  }
  if (pool_index == kNoSection) throw IoError("elog v2: missing string pool");
  if (dir_index == kNoSection) throw IoError("elog v2: missing case directory");
  m->pool_section_ = pool_index;
  m->validated_ = std::make_unique<std::atomic<bool>[]>(f.section_count);

  // Case directory: small and needed for every query — decode eagerly
  // (this is the only per-case work open does; still no event parsing).
  const SectionEntry& dir = m->entries_[dir_index];
  if (dir.length != static_cast<std::uint64_t>(f.case_count) * kDirEntryBytes) {
    throw IoError("elog v2: case directory size mismatch");
  }
  m->validate_section(dir_index);
  const char* dp = file.data() + dir.offset;
  for (std::uint32_t i = 0; i < f.case_count; ++i, dp += kDirEntryBytes) {
    CaseRef& cr = m->cases_[i];
    cr.cid_id = load_u32(dp);
    cr.host_id = load_u32(dp + 4);
    cr.rid = load_u64(dp + 8);
    cr.rows = load_u64(dp + 16);
    m->total_rows_ += cr.rows;
  }

  // String pool header: bounds only; the CRC over the (possibly large)
  // blob stays lazy.
  const SectionEntry& pe = m->entries_[pool_index];
  if (pe.length < 8) throw IoError("elog v2: string pool too small");
  const char* pp = file.data() + pe.offset;
  m->pool_count_ = load_u32(pp);
  if (load_u32(pp + 4) != 0) throw IoError("elog v2: string pool reserved field not zero");
  const std::uint64_t ends_bytes = static_cast<std::uint64_t>(m->pool_count_) * 4;
  if (ends_bytes > pe.length - 8) {
    throw IoError("elog v2: string pool count exceeds section");
  }
  m->pool_ends_ = pp + 8;
  m->pool_blob_ = pp + 8 + ends_bytes;
  m->pool_blob_len_ = pe.length - 8 - ends_bytes;

  // Cross-checks: every case has all six columns, ids land in the pool,
  // fixed-width column lengths match the directory's row counts
  // (division form — a corrupt length must not overflow a multiply).
  for (std::uint32_t i = 0; i < f.case_count; ++i) {
    const CaseRef& cr = m->cases_[i];
    for (std::size_t k = 0; k < 6; ++k) {
      if (cr.col[k] == kNoSection) {
        throw IoError("elog v2: case " + std::to_string(i) + " missing column " +
                      std::string(section_kind_name(
                          static_cast<SectionKind>(k + static_cast<std::size_t>(
                                                           SectionKind::kColPid)))));
      }
    }
    if (cr.cid_id >= m->pool_count_ || cr.host_id >= m->pool_count_) {
      throw IoError("elog v2: case " + std::to_string(i) + " id out of pool range");
    }
    const auto expect_width = [&](const SectionEntry& e, std::uint64_t width) {
      if (e.length % width != 0 || e.length / width != cr.rows) {
        throw IoError("elog v2: column size mismatch (" + section_label(e) + ")");
      }
    };
    expect_width(m->entries_[cr.col[0]], 8);  // pid
    expect_width(m->entries_[cr.col[1]], 4);  // call
    const SectionEntry& start = m->entries_[cr.col[2]];
    if (start.aux != kStartEncodingFixed && start.aux != kStartEncodingVarint) {
      throw IoError("elog v2: unknown start encoding " + std::to_string(start.aux));
    }
    if (start.aux == kStartEncodingFixed) expect_width(start, 8);
    expect_width(m->entries_[cr.col[3]], 8);  // dur
    expect_width(m->entries_[cr.col[4]], 4);  // fp
    expect_width(m->entries_[cr.col[5]], 8);  // size
  }
  // Index sections: only the O(1) size checks here — the CRC + content
  // passes stay lazy (index_view), like every other section body.
  if (m->zone_section_ != kNoSection &&
      m->entries_[m->zone_section_].length !=
          static_cast<std::uint64_t>(f.case_count) * kZoneEntryBytes) {
    throw IoError("elog v2: zone map size mismatch");
  }
  for (const std::uint32_t s : {m->callset_section_, m->fpset_section_}) {
    if (s == kNoSection) continue;
    const SectionEntry& e = m->entries_[s];
    if (e.length % 4 != 0 || e.length / 4 < f.case_count) {
      throw IoError("elog v2: id-set section too small (" + section_label(e) + ")");
    }
  }
  if (m->posting_section_ != kNoSection && (m->entries_[m->posting_section_].length < 8 ||
                                            m->entries_[m->posting_section_].length % 4 != 0)) {
    throw IoError("elog v2: posting section too small");
  }
  return m;
}

void MappedElog::validate_section(std::size_t index) const {
  std::atomic<bool>& flag = validated_[index];
  if (flag.load(std::memory_order_acquire)) return;
  // After the already-validated check, so the fault's nth counter
  // counts actual validations: hit 1 is the case directory at open,
  // then pool + six columns per first-touched case.
  FAULT_POINT("elog.crc");
  const SectionEntry& e = entries_[index];
  if (Crc32::of(file_.data() + e.offset, e.length) != e.crc) {
    throw IoError("elog v2: crc mismatch in section " + section_label(e));
  }
  flag.store(true, std::memory_order_release);
}

std::string_view MappedElog::pool_string(std::uint32_t id) const {
  validate_section(pool_section_);
  if (id >= pool_count_) throw IoError("elog v2: string pool id out of range");
  const std::uint32_t begin = id == 0 ? 0 : load_u32(pool_ends_ + 4 * (id - 1));
  const std::uint32_t end = load_u32(pool_ends_ + 4 * id);
  if (end < begin || end > pool_blob_len_) {
    throw IoError("elog v2: string pool offsets corrupt");
  }
  return {pool_blob_ + begin, end - begin};
}

model::CaseId MappedElog::case_id(std::size_t i) const {
  if (i >= cases_.size()) throw LogicError("MappedElog::case_id: index out of range");
  const CaseRef& cr = cases_[i];
  return model::CaseId{std::string(pool_string(cr.cid_id)),
                       std::string(pool_string(cr.host_id)), cr.rid};
}

std::uint64_t MappedElog::case_rows(std::size_t i) const {
  if (i >= cases_.size()) throw LogicError("MappedElog::case_rows: index out of range");
  return cases_[i].rows;
}

std::uint32_t MappedElog::case_cid_id(std::size_t i) const {
  if (i >= cases_.size()) throw LogicError("MappedElog::case_cid_id: index out of range");
  return cases_[i].cid_id;
}

std::uint32_t MappedElog::case_host_id(std::size_t i) const {
  if (i >= cases_.size()) throw LogicError("MappedElog::case_host_id: index out of range");
  return cases_[i].host_id;
}

MappedElog::ZoneMap MappedElog::IndexView::zone(std::size_t case_index) const {
  const char* p = zones + case_index * kZoneEntryBytes;
  return {load_i64(p), load_i64(p + 8), load_u64(p + 16), load_u64(p + 24)};
}

bool MappedElog::has_index() const {
  return zone_section_ != kNoSection || callset_section_ != kNoSection ||
         fpset_section_ != kNoSection || posting_section_ != kNoSection;
}

MappedElog::IndexView MappedElog::index_view() const {
  FAULT_POINT("elog.index");
  IndexView iv;
  const auto cases = static_cast<std::uint64_t>(cases_.size());
  if (zone_section_ != kNoSection) {
    validate_section(zone_section_);
    iv.zones = file_.data() + entries_[zone_section_].offset;
  }
  if (callset_section_ != kNoSection) {
    validate_section(callset_section_);
    const SectionEntry& e = entries_[callset_section_];
    iv.call_ends = file_.data() + e.offset;
    iv.call_ids = iv.call_ends + cases * 4;
  }
  if (fpset_section_ != kNoSection) {
    validate_section(fpset_section_);
    const SectionEntry& e = entries_[fpset_section_];
    iv.fp_ends = file_.data() + e.offset;
    iv.fp_ids = iv.fp_ends + cases * 4;
  }
  if (posting_section_ != kNoSection) {
    validate_section(posting_section_);
    const SectionEntry& e = entries_[posting_section_];
    const char* p = file_.data() + e.offset;
    iv.posting_keys = load_u32(p);
    if (load_u32(p + 4) != 0) throw IoError("elog v2: posting reserved field not zero");
    if (static_cast<std::uint64_t>(iv.posting_keys) * 8 > e.length - 8) {
      throw IoError("elog v2: posting key count exceeds section");
    }
    iv.posting_table = p + 8;
    iv.posting_cases = p + 8 + static_cast<std::uint64_t>(iv.posting_keys) * 8;
  }
  // Structural pass once per mapping (CRCs alone do not rule out a
  // hostile-but-checksummed index, and pruning from a malformed one
  // would be a WRONG RESULT, not a crash — the one failure mode this
  // format forbids).
  if (!index_checked_.load(std::memory_order_acquire)) {
    validate_index_structure(iv);
    index_checked_.store(true, std::memory_order_release);
  }
  return iv;
}

void MappedElog::validate_index_structure(const IndexView& iv) const {
  const auto cases = static_cast<std::uint64_t>(cases_.size());
  const auto check_sets = [&](const char* ends, const char* ids, std::uint32_t section,
                              const char* what) {
    if (!ends) return;
    const SectionEntry& e = entries_[section];
    const std::uint64_t id_slots = e.length / 4 - cases;  // open checked length
    std::uint32_t prev_end = 0;
    for (std::uint64_t i = 0; i < cases; ++i) {
      const std::uint32_t end = load_u32(ends + i * 4);
      if (end < prev_end || end > id_slots) {
        throw IoError(std::string("elog v2: ") + what + " ends not monotonic");
      }
      std::uint32_t prev_id = 0;
      for (std::uint32_t k = prev_end; k < end; ++k) {
        const std::uint32_t id = load_u32(ids + static_cast<std::uint64_t>(k) * 4);
        if (id >= pool_count_ || (k > prev_end && id <= prev_id)) {
          throw IoError(std::string("elog v2: ") + what + " ids unsorted or out of range");
        }
        prev_id = id;
      }
      prev_end = end;
    }
    if (prev_end != id_slots) {
      throw IoError(std::string("elog v2: ") + what + " has trailing ids");
    }
  };
  check_sets(iv.call_ends, iv.call_ids, callset_section_, "call set");
  check_sets(iv.fp_ends, iv.fp_ids, fpset_section_, "fp set");
  if (iv.posting_table) {
    const SectionEntry& e = entries_[posting_section_];
    const std::uint64_t entry_slots =
        (e.length - 8 - static_cast<std::uint64_t>(iv.posting_keys) * 8) / 4;
    std::uint32_t prev_key = 0;
    std::uint32_t prev_end = 0;
    for (std::uint32_t k = 0; k < iv.posting_keys; ++k) {
      const std::uint32_t key = load_u32(iv.posting_table + static_cast<std::uint64_t>(k) * 8);
      const std::uint32_t end =
          load_u32(iv.posting_table + static_cast<std::uint64_t>(k) * 8 + 4);
      if (key >= pool_count_ || (k > 0 && key <= prev_key)) {
        throw IoError("elog v2: posting keys unsorted or out of range");
      }
      if (end < prev_end || end > entry_slots) {
        throw IoError("elog v2: posting ends not monotonic");
      }
      std::uint32_t prev_case = 0;
      for (std::uint32_t i = prev_end; i < end; ++i) {
        const std::uint32_t c = load_u32(iv.posting_cases + static_cast<std::uint64_t>(i) * 4);
        if (c >= cases || (i > prev_end && c <= prev_case)) {
          throw IoError("elog v2: posting case list unsorted or out of range");
        }
        prev_case = c;
      }
      prev_key = key;
      prev_end = end;
    }
    if (prev_end != entry_slots) throw IoError("elog v2: posting has trailing entries");
  }
}

MappedElog::ColumnView MappedElog::case_columns(std::size_t i) const {
  if (i >= cases_.size()) throw LogicError("MappedElog::case_columns: index out of range");
  const CaseRef& cr = cases_[i];
  validate_section(pool_section_);
  for (std::size_t k = 0; k < 6; ++k) validate_section(cr.col[k]);
  ColumnView v;
  v.rows = cr.rows;
  v.pid = file_.data() + entries_[cr.col[0]].offset;
  v.call = file_.data() + entries_[cr.col[1]].offset;
  const SectionEntry& start_e = entries_[cr.col[2]];
  v.start = file_.data() + start_e.offset;
  v.start_len = start_e.length;
  v.start_encoding = start_e.aux;
  v.dur = file_.data() + entries_[cr.col[3]].offset;
  v.fp = file_.data() + entries_[cr.col[4]].offset;
  v.size = file_.data() + entries_[cr.col[5]].offset;
  return v;
}

template <bool kEvents, bool kPairs>
model::CaseId MappedElog::decode(std::size_t i, std::vector<model::Event>* events,
                                std::vector<std::uint64_t>* pairs) const {
  if (i >= cases_.size()) throw LogicError("MappedElog::case_at: index out of range");
  const CaseRef& cr = cases_[i];
  validate_section(pool_section_);
  for (std::size_t k = 0; k < 6; ++k) validate_section(cr.col[k]);

  const std::string_view cid = pool_string(cr.cid_id);
  const std::string_view host = pool_string(cr.host_id);
  const auto rows = static_cast<std::size_t>(cr.rows);
  if constexpr (kEvents) events->assign(rows, model::Event{});
  if constexpr (kPairs) pairs->reserve(pairs->size() + rows);

  const auto put_start = [events](std::size_t r, std::int64_t start) {
    if constexpr (kEvents) (*events)[r].start = start;
  };
  const SectionEntry& start_e = entries_[cr.col[2]];
  if (start_e.aux == kStartEncodingVarint) {
    const char* p = file_.data() + start_e.offset;
    const char* end = p + start_e.length;
    std::int64_t prev = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      prev = wrap_add(prev, zigzag_decode(read_uvarint(&p, end)));
      put_start(r, prev);
    }
    if (p != end) throw IoError("elog v2: start column has trailing bytes");
  } else {
    const char* p = file_.data() + start_e.offset;
    std::int64_t prev = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      prev = wrap_add(prev, load_i64(p + r * 8));
      put_start(r, prev);
    }
  }

  const char* pid = file_.data() + entries_[cr.col[0]].offset;
  const char* call = file_.data() + entries_[cr.col[1]].offset;
  const char* dur = file_.data() + entries_[cr.col[3]].offset;
  const char* fp = file_.data() + entries_[cr.col[4]].offset;
  const char* size = file_.data() + entries_[cr.col[5]].offset;

  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint32_t call_id = load_u32(call + r * 4);
    const std::uint32_t fp_id = load_u32(fp + r * 4);
    const std::string_view call_s = pool_string(call_id);
    const std::string_view fp_s = pool_string(fp_id);
    if constexpr (kPairs) pairs->push_back(static_cast<std::uint64_t>(call_id) << 32 | fp_id);
    if constexpr (kEvents) {
      model::Event& e = (*events)[r];
      e.cid = cid;
      e.host = host;
      e.rid = cr.rid;
      e.pid = load_u64(pid + r * 8);
      e.call = call_s;
      e.dur = load_i64(dur + r * 8);
      e.fp = fp_s;
      e.size = load_i64(size + r * 8);
    }
  }
  return model::CaseId{std::string(cid), std::string(host), cr.rid};
}

model::Case MappedElog::case_at(std::size_t i) const {
  std::vector<model::Event> events;
  model::CaseId id = decode<true, false>(i, &events, nullptr);
  return model::Case(std::move(id), std::move(events));
}

void MappedElog::case_at(std::size_t i, model::Case& out,
                         std::vector<std::uint64_t>& pairs) const {
  std::vector<model::Event> events = std::move(out).take_events();
  pairs.clear();
  model::CaseId id = decode<true, true>(i, &events, &pairs);
  assemble_case(std::move(id), std::move(events), pairs, out);
}

void MappedElog::check_case(std::size_t i, std::vector<std::uint64_t>& pairs) const {
  (void)decode<false, true>(i, nullptr, &pairs);
}

void MappedElog::verify() const {
  for (std::size_t i = 0; i < entries_.size(); ++i) validate_section(i);
  // Index sections also carry structural invariants (sorted sets,
  // monotonic offsets) that CRCs cannot enforce — include them so a
  // full verify covers hostile-but-checksummed index content too.
  if (has_index()) (void)index_view();
  // Every byte of the file is now accounted for: magic and footer by
  // open, the table by its footer crc, sections by their entry crcs.
  // What remains is the alignment padding — require it zero (and
  // sections non-overlapping) so a flipped bit ANYWHERE surfaces.
  std::vector<std::size_t> order(entries_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (entries_[a].offset != entries_[b].offset) {
      return entries_[a].offset < entries_[b].offset;
    }
    return entries_[a].length < entries_[b].length;
  });
  std::uint64_t pos = kMagicV2.size();
  const FooterV2 f = load_footer(file_);
  for (const std::size_t i : order) {
    const SectionEntry& e = entries_[i];
    if (e.offset < pos) {
      throw IoError("elog v2: overlapping sections (" + section_label(e) + ")");
    }
    for (std::uint64_t b = pos; b < e.offset; ++b) {
      if (file_[b] != 0) throw IoError("elog v2: nonzero padding before section");
    }
    pos = e.offset + e.length;
  }
  if (pos > f.table_offset) throw IoError("elog v2: section overlaps table");
  for (std::uint64_t b = pos; b < f.table_offset; ++b) {
    if (file_[b] != 0) throw IoError("elog v2: nonzero padding before table");
  }
}

bool MappedElog::is_mapped() const { return buffer_->is_mapped(); }

void assemble_case(model::CaseId id, std::vector<model::Event> events,
                   std::vector<std::uint64_t>& pairs, model::Case& out) {
  if (!std::is_sorted(events.begin(), events.end(),
                      [](const model::Event& a, const model::Event& b) {
                        return a.start < b.start;
                      })) {
    // The Case's stable sort by start, applied to the pairs too.
    std::vector<std::size_t> order(events.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return events[a].start < events[b].start;
    });
    std::vector<model::Event> sorted_events;
    std::vector<std::uint64_t> sorted_pairs;
    sorted_events.reserve(order.size());
    sorted_pairs.reserve(order.size());
    for (const std::size_t r : order) {
      sorted_events.push_back(events[r]);
      sorted_pairs.push_back(pairs[r]);
    }
    events = std::move(sorted_events);
    pairs = std::move(sorted_pairs);
  }
  out = model::Case(std::move(id), std::move(events));
}

std::shared_ptr<MappedElog> open_v2(const std::string& path) {
  return MappedElog::from_buffer(strace::TraceBuffer::from_file_mmap(path));
}

model::EventLog read_event_log_v2(std::shared_ptr<MappedElog> mapped,
                                  const ElogReadOptions& opts) {
  model::EventLog log;
  for (std::size_t i = 0; i < mapped->case_count(); ++i) {
    try {
      log.add_case(mapped->case_at(i));
    } catch (...) {
      log.add_warning(quarantine_warning(*mapped, i, std::current_exception(), opts));
    }
  }
  // The events view straight into the mapping; the log owns it now.
  log.adopt(std::move(mapped));
  return log;
}

std::string quarantine_warning(const MappedElog& mapped, std::size_t i,
                               const std::exception_ptr& error, const RunPolicy& policy) {
  if (!policy.keep_going) std::rethrow_exception(error);
  try {
    std::rethrow_exception(error);
  } catch (const IoError& e) {
    // One corrupt section loses its case, not the corpus. The label
    // prefers the case id, but the pool holding it may itself be the
    // corrupt section — fall back to the index alone.
    std::string label = "case " + std::to_string(i);
    try {
      label += " (" + mapped.case_id(i).to_string() + ")";
    } catch (const IoError&) {
    }
    return label + " quarantined: " + e.what();
  }
}

// ---- streaming sink ----------------------------------------------------

namespace {

struct V2SinkPartial final : pipeline::SinkPartial {
  struct Item {
    EncodedCase ec;
    std::shared_ptr<strace::StringArena> arena;
    std::shared_ptr<strace::TraceBuffer> buffer;
  };
  std::vector<Item> items;
};

}  // namespace

std::unique_ptr<pipeline::SinkPartial> ElogV2WriterSink::make_partial() const {
  return std::make_unique<V2SinkPartial>();
}

void ElogV2WriterSink::fold(pipeline::SinkPartial& p, const pipeline::CaseContext& ctx) const {
  auto& partial = static_cast<V2SinkPartial&>(p);
  // Encode on the pool thread (the expensive part: dictionary build +
  // column packing); keep the case's string owners alive until merge
  // has interned everything into the writer's file-level pool.
  partial.items.push_back({encode_case(ctx.c), ctx.arena, ctx.buffer});
}

void ElogV2WriterSink::absorb(pipeline::SinkPartial& /*acc*/,
                              std::unique_ptr<pipeline::SinkPartial> p) const {
  auto& partial = static_cast<V2SinkPartial&>(*p);
  for (V2SinkPartial::Item& item : partial.items) {
    writer_->append_encoded(std::move(item.ec));
  }
}

void ElogV2WriterSink::merge(std::unique_ptr<pipeline::SinkPartial> /*acc*/) {}

}  // namespace st::elog
