#include "pipeline/partial_codec.hpp"

#include <bit>
#include <utility>

#include "elog/format.hpp"
#include "elog/v2_format.hpp"
#include "support/crc32.hpp"
#include "support/errors.hpp"
#include "support/faultpoint.hpp"

namespace st::pipeline {

namespace {

using elog::load_u32;
using elog::load_u64;
using elog::put_u32;
using elog::put_u64;
using elog::put_uvarint;
using elog::read_uvarint;
using elog::zigzag_decode;
using elog::zigzag_encode;

[[noreturn]] void fail(const std::string& what) { throw IoError("partial blob: " + what); }

/// The assigned section kinds; 5 and 7 are retired (see the header).
[[nodiscard]] constexpr bool known_kind(std::uint32_t kind) {
  return kind >= 1 && kind <= 9 && kind != 5 && kind != 7;
}

void put_svarint(std::string& out, std::int64_t v) { put_uvarint(out, zigzag_encode(v)); }

void put_double(std::string& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

/// Bounds-checked decode cursor over one (already CRC-validated)
/// section payload. Every read throws IoError past the end, element
/// counts are bounded against the bytes left before anything
/// allocates, and sections must be read to exactly their last byte.
class Cursor {
 public:
  explicit Cursor(std::string_view payload)
      : p_(payload.data()), end_(payload.data() + payload.size()) {}

  [[nodiscard]] std::uint64_t uvarint() { return read_uvarint(&p_, end_); }
  [[nodiscard]] std::int64_t svarint() { return zigzag_decode(uvarint()); }

  [[nodiscard]] std::uint64_t u64() {
    if (remaining() < 8) fail("truncated section payload");
    const std::uint64_t v = load_u64(p_);
    p_ += 8;
    return v;
  }

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  /// A length-prefixed byte string.
  [[nodiscard]] std::string_view text() {
    const std::size_t n = count();
    const std::string_view v(p_, n);
    p_ += n;
    return v;
  }

  [[nodiscard]] bool boolean() {
    if (remaining() < 1) fail("truncated section payload");
    const unsigned char b = static_cast<unsigned char>(*p_++);
    if (b > 1) fail("boolean field out of range");
    return b == 1;
  }

  /// An element count, bounded by the bytes left (every encoded
  /// element occupies at least one byte) so a corrupted count can
  /// never become a giant allocation.
  [[nodiscard]] std::size_t count() {
    const std::uint64_t n = uvarint();
    if (n > remaining()) fail("element count exceeds section payload");
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  void expect_exhausted() const {
    if (p_ != end_) fail("trailing bytes in section payload");
  }

 private:
  const char* p_;
  const char* end_;
};

void put_case_id(PartialWriter& w, std::string& out, const model::CaseId& id) {
  put_uvarint(out, w.intern(id.cid));
  put_uvarint(out, w.intern(id.host));
  put_uvarint(out, id.rid);
}

[[nodiscard]] model::CaseId read_case_id(const PartialReader& r, Cursor& c) {
  model::CaseId id;
  id.cid = std::string(r.pool_string(c.uvarint()));
  id.host = std::string(r.pool_string(c.uvarint()));
  id.rid = c.uvarint();
  return id;
}

void put_variant_counts(PartialWriter& w, std::string& out, const model::VariantCounts& v) {
  put_uvarint(out, v.size());
  for (const auto& [trace, multiplicity] : v) {
    put_uvarint(out, multiplicity);
    put_uvarint(out, trace.size());
    for (const model::Activity& a : trace) put_uvarint(out, w.intern(a));
  }
}

[[nodiscard]] model::VariantCounts read_variant_counts(const PartialReader& r, Cursor& c) {
  model::VariantCounts out;
  const std::size_t n = c.count();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t multiplicity = c.uvarint();
    const std::size_t len = c.count();
    model::ActivityTrace trace;
    trace.reserve(len);
    for (std::size_t j = 0; j < len; ++j) trace.emplace_back(r.pool_string(c.uvarint()));
    out.emplace_hint(out.end(), std::move(trace), static_cast<std::size_t>(multiplicity));
  }
  return out;
}

}  // namespace

// ---- PartialWriter -----------------------------------------------------

std::uint32_t PartialWriter::intern(std::string_view s) {
  if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  ids_.emplace(strings_.back(), id);
  return id;
}

void PartialWriter::add_section(PartialSection kind, std::string payload) {
  for (const auto& [existing, bytes] : sections_) {
    if (existing == kind) throw LogicError("partial blob: duplicate section kind");
  }
  sections_.emplace_back(kind, std::move(payload));
}

std::string PartialWriter::finish() const {
  std::string pool;
  put_u32(pool, static_cast<std::uint32_t>(strings_.size()));
  put_u32(pool, 0);
  std::uint32_t end = 0;
  for (const std::string& s : strings_) {
    end += static_cast<std::uint32_t>(s.size());
    put_u32(pool, end);
  }
  for (const std::string& s : strings_) pool.append(s);

  std::string out{kPartialMagic};
  put_u32(out, static_cast<std::uint32_t>(1 + sections_.size()));
  const auto emit = [&out](PartialSection kind, std::string_view payload) {
    put_u32(out, static_cast<std::uint32_t>(kind));
    put_u32(out, 0);
    put_u64(out, payload.size());
    out.append(payload);
    put_u32(out, Crc32::of(payload.data(), payload.size()));
  };
  emit(PartialSection::kStringPool, pool);
  for (const auto& [kind, payload] : sections_) emit(kind, payload);
  return out;
}

// ---- PartialReader -----------------------------------------------------

PartialReader::PartialReader(std::string_view blob) {
  if (blob.size() < kPartialMagic.size() + 4) fail("truncated header");
  if (blob.substr(0, kPartialMagic.size()) != kPartialMagic) fail("bad magic");
  const char* p = blob.data() + kPartialMagic.size();
  const char* end = blob.data() + blob.size();
  const std::uint32_t count = load_u32(p);
  p += 4;

  for (std::uint32_t i = 0; i < count; ++i) {
    if (static_cast<std::size_t>(end - p) < 16) fail("truncated section header");
    const std::uint32_t kind = load_u32(p);
    const std::uint32_t reserved = load_u32(p + 4);
    const std::uint64_t length = load_u64(p + 8);
    p += 16;
    if (reserved != 0) fail("nonzero reserved field");
    if (!known_kind(kind)) fail("unknown section kind");
    if (length > static_cast<std::uint64_t>(end - p) ||
        static_cast<std::uint64_t>(end - p) - length < 4)
      fail("section length exceeds blob");
    const std::string_view payload(p, static_cast<std::size_t>(length));
    p += length;
    const std::uint32_t crc = load_u32(p);
    p += 4;
    if (crc != Crc32::of(payload.data(), payload.size())) fail("section checksum mismatch");
    if (i == 0 && kind != static_cast<std::uint32_t>(PartialSection::kStringPool))
      fail("string pool is not the first section");
    if (present_[kind]) fail("duplicate section kind");
    present_[kind] = true;
    sections_[kind] = payload;
  }
  if (p != end) fail("trailing bytes after last section");
  if (!present_[static_cast<std::size_t>(PartialSection::kStringPool)])
    fail("missing string pool");

  const std::string_view pool = sections_[static_cast<std::size_t>(PartialSection::kStringPool)];
  if (pool.size() < 8) fail("truncated string pool");
  pool_count_ = load_u32(pool.data());
  if (load_u32(pool.data() + 4) != 0) fail("nonzero reserved field");
  if (static_cast<std::uint64_t>(pool_count_) * 4 > pool.size() - 8)
    fail("string pool count exceeds section");
  pool_ends_ = pool.data() + 8;
  pool_blob_ = pool_ends_ + std::size_t{pool_count_} * 4;
  const std::size_t blob_len = pool.size() - 8 - std::size_t{pool_count_} * 4;
  std::uint32_t prev = 0;
  for (std::uint32_t i = 0; i < pool_count_; ++i) {
    const std::uint32_t e = load_u32(pool_ends_ + std::size_t{i} * 4);
    if (e < prev || e > blob_len) fail("string pool offsets not monotonic");
    prev = e;
  }
  if (prev != blob_len) fail("string pool blob size mismatch");
}

bool PartialReader::has_section(PartialSection kind) const {
  return present_[static_cast<std::size_t>(kind)];
}

std::string_view PartialReader::section(PartialSection kind) const {
  if (!has_section(kind)) fail("missing section");
  return sections_[static_cast<std::size_t>(kind)];
}

std::string_view PartialReader::pool_string(std::uint64_t id) const {
  if (id >= pool_count_) fail("string id out of range");
  const std::uint32_t begin = id == 0 ? 0 : load_u32(pool_ends_ + (id - 1) * 4);
  const std::uint32_t end = load_u32(pool_ends_ + id * 4);
  return {pool_blob_ + begin, end - begin};
}

// ---- per-sink pairs ----------------------------------------------------
// Each pair is exact: decode(encode(x)) == x, bit for bit (doubles
// travel as u64 bit patterns). test_partial_codec reaches them through
// encode_shard_partial / decode_shard_partial.

namespace {

void encode_dfg_partial(PartialWriter& w, const dfg::Dfg& g) {
  std::string s;
  put_uvarint(s, g.nodes().size());
  for (const auto& [a, n] : g.nodes()) {
    put_uvarint(s, w.intern(a));
    put_uvarint(s, n);
  }
  put_uvarint(s, g.edges().size());
  for (const auto& [edge, n] : g.edges()) {
    put_uvarint(s, w.intern(edge.first));
    put_uvarint(s, w.intern(edge.second));
    put_uvarint(s, n);
  }
  put_uvarint(s, g.trace_count());
  w.add_section(PartialSection::kDfg, std::move(s));
}

dfg::Dfg decode_dfg_partial(const PartialReader& r) {
  Cursor c(r.section(PartialSection::kDfg));
  std::map<dfg::Activity, std::uint64_t> nodes;
  const std::size_t node_count = c.count();
  for (std::size_t i = 0; i < node_count; ++i) {
    dfg::Activity a{r.pool_string(c.uvarint())};
    const std::uint64_t n = c.uvarint();
    nodes.emplace_hint(nodes.end(), std::move(a), n);
  }
  std::map<std::pair<dfg::Activity, dfg::Activity>, std::uint64_t> edges;
  const std::size_t edge_count = c.count();
  for (std::size_t i = 0; i < edge_count; ++i) {
    dfg::Activity from{r.pool_string(c.uvarint())};
    dfg::Activity to{r.pool_string(c.uvarint())};
    const std::uint64_t n = c.uvarint();
    edges.emplace_hint(edges.end(), std::make_pair(std::move(from), std::move(to)), n);
  }
  const std::uint64_t trace_count = c.uvarint();
  c.expect_exhausted();
  return dfg::Dfg::from_parts(std::move(nodes), std::move(edges), trace_count);
}

void encode_case_stats_partial(PartialWriter& w, const std::vector<model::CaseSummary>& v) {
  std::string s;
  put_uvarint(s, v.size());
  for (const model::CaseSummary& cs : v) {
    put_case_id(w, s, cs.id);
    put_uvarint(s, cs.events);
    put_uvarint(s, cs.calls.size());
    for (const auto& [call, n] : cs.calls) {
      put_uvarint(s, w.intern(call));
      put_uvarint(s, n);
    }
    put_svarint(s, cs.bytes_read);
    put_svarint(s, cs.bytes_written);
    put_svarint(s, cs.total_dur);
    put_svarint(s, cs.first_start);
    put_svarint(s, cs.last_end);
  }
  w.add_section(PartialSection::kCaseStats, std::move(s));
}

std::vector<model::CaseSummary> decode_case_stats_partial(const PartialReader& r) {
  Cursor c(r.section(PartialSection::kCaseStats));
  std::vector<model::CaseSummary> out;
  const std::size_t n = c.count();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    model::CaseSummary cs;
    cs.id = read_case_id(r, c);
    cs.events = static_cast<std::size_t>(c.uvarint());
    const std::size_t calls = c.count();
    for (std::size_t j = 0; j < calls; ++j) {
      std::string call{r.pool_string(c.uvarint())};
      const std::uint64_t count = c.uvarint();
      cs.calls.emplace_hint(cs.calls.end(), std::move(call), static_cast<std::size_t>(count));
    }
    cs.bytes_read = c.svarint();
    cs.bytes_written = c.svarint();
    cs.total_dur = c.svarint();
    cs.first_start = c.svarint();
    cs.last_end = c.svarint();
    out.push_back(std::move(cs));
  }
  c.expect_exhausted();
  return out;
}

void encode_variants_partial(PartialWriter& w, const model::VariantCounts& v) {
  std::string s;
  put_variant_counts(w, s, v);
  w.add_section(PartialSection::kVariants, std::move(s));
}

model::VariantCounts decode_variants_partial(const PartialReader& r) {
  Cursor c(r.section(PartialSection::kVariants));
  model::VariantCounts out = read_variant_counts(r, c);
  c.expect_exhausted();
  return out;
}

void encode_io_stats_partial(PartialWriter& w, const dfg::IoStatistics::Partial& p) {
  std::string s;
  put_uvarint(s, p.cases().size());
  for (const dfg::IoStatistics::CaseContribution& cc : p.cases()) {
    put_case_id(w, s, cc.id);
    put_uvarint(s, cc.activities.size());
    for (const auto& [a, contrib] : cc.activities) {
      put_uvarint(s, w.intern(a));
      put_svarint(s, contrib.total_dur);
      put_uvarint(s, contrib.event_count);
      put_svarint(s, contrib.bytes);
      s.push_back(contrib.has_bytes ? '\1' : '\0');
      put_double(s, contrib.rate_sum);
      put_uvarint(s, contrib.rate_samples);
      put_uvarint(s, contrib.intervals.size());
      Micros prev_start = 0;
      for (const dfg::Interval& iv : contrib.intervals) {
        put_svarint(s, iv.start - prev_start);
        put_svarint(s, iv.end - iv.start);
        prev_start = iv.start;
      }
    }
  }
  w.add_section(PartialSection::kIoStats, std::move(s));
}

dfg::IoStatistics::Partial decode_io_stats_partial(const PartialReader& r) {
  Cursor c(r.section(PartialSection::kIoStats));
  std::vector<dfg::IoStatistics::CaseContribution> cases;
  const std::size_t n = c.count();
  cases.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    dfg::IoStatistics::CaseContribution cc;
    cc.id = read_case_id(r, c);
    const std::size_t acts = c.count();
    for (std::size_t j = 0; j < acts; ++j) {
      model::Activity a{r.pool_string(c.uvarint())};
      dfg::IoStatistics::ActivityContribution contrib;
      contrib.total_dur = c.svarint();
      contrib.event_count = c.uvarint();
      contrib.bytes = c.svarint();
      contrib.has_bytes = c.boolean();
      contrib.rate_sum = c.f64();
      contrib.rate_samples = c.uvarint();
      const std::size_t intervals = c.count();
      contrib.intervals.reserve(intervals);
      Micros prev_start = 0;
      for (std::size_t k = 0; k < intervals; ++k) {
        dfg::Interval iv;
        iv.start = prev_start + c.svarint();
        iv.end = iv.start + c.svarint();
        contrib.intervals.push_back(iv);
        prev_start = iv.start;
      }
      cc.activities.emplace_hint(cc.activities.end(), std::move(a), std::move(contrib));
    }
    cases.push_back(std::move(cc));
  }
  c.expect_exhausted();
  return dfg::IoStatistics::Partial::from_cases(std::move(cases));
}

void encode_edge_stats_partial(PartialWriter& w, const dfg::EdgeStatistics::Partial& p) {
  std::string s;
  put_uvarint(s, p.stats().size());
  for (const auto& [edge, es] : p.stats()) {
    put_uvarint(s, w.intern(edge.first));
    put_uvarint(s, w.intern(edge.second));
    put_uvarint(s, es.count);
    put_svarint(s, es.total_gap);
    put_svarint(s, es.max_gap);
    put_uvarint(s, es.overlapped);
  }
  w.add_section(PartialSection::kEdgeStats, std::move(s));
}

dfg::EdgeStatistics::Partial decode_edge_stats_partial(const PartialReader& r) {
  Cursor c(r.section(PartialSection::kEdgeStats));
  std::map<dfg::EdgeStatistics::Edge, dfg::EdgeStat> stats;
  const std::size_t n = c.count();
  for (std::size_t i = 0; i < n; ++i) {
    model::Activity from{r.pool_string(c.uvarint())};
    model::Activity to{r.pool_string(c.uvarint())};
    dfg::EdgeStat es;
    es.count = c.uvarint();
    es.total_gap = c.svarint();
    es.max_gap = c.svarint();
    es.overlapped = c.uvarint();
    stats.emplace_hint(stats.end(), std::make_pair(std::move(from), std::move(to)), es);
  }
  c.expect_exhausted();
  return dfg::EdgeStatistics::Partial::from_stats(std::move(stats));
}

}  // namespace

// ---- the shard unit ----------------------------------------------------

void ShardPartial::merge(ShardPartial&& other) {
  case_count += other.case_count;
  total_events += other.total_events;
  health.merge_counters(other.health);
  // Same consecutive-duplicate collapse pipeline::ingest applies while
  // assembling warnings, re-applied at the shard seam so the
  // concatenation equals one in-process run's warning list.
  for (std::string& warning : other.warnings) {
    if (warnings.empty() || warnings.back() != warning) warnings.push_back(std::move(warning));
  }
  graph.merge(other.graph);
  case_summaries.insert(case_summaries.end(),
                        std::make_move_iterator(other.case_summaries.begin()),
                        std::make_move_iterator(other.case_summaries.end()));
  model::merge_variant_counts(variants, std::move(other.variants));
  io.merge(std::move(other.io));
  edges.merge(std::move(other.edges));
}

std::string encode_shard_partial(const ShardPartial& p) {
  PartialWriter w;
  std::string meta;
  put_uvarint(meta, p.mapping.size());
  meta.append(p.mapping);
  put_uvarint(meta, p.case_count);
  put_uvarint(meta, p.total_events);
  put_uvarint(meta, p.warnings.size());
  for (const std::string& warning : p.warnings) put_uvarint(meta, w.intern(warning));
  put_uvarint(meta, p.health.files_requested);
  put_uvarint(meta, p.health.files_ingested);
  put_uvarint(meta, p.health.files_skipped);
  put_uvarint(meta, p.health.cases_quarantined);
  w.add_section(PartialSection::kMeta, std::move(meta));
  encode_dfg_partial(w, p.graph);
  encode_case_stats_partial(w, p.case_summaries);
  encode_variants_partial(w, p.variants);
  encode_io_stats_partial(w, p.io);
  encode_edge_stats_partial(w, p.edges);
  return w.finish();
}

ShardPartial decode_shard_partial(std::string_view blob) {
  // Injection point for the coordinator's corrupt-blob handling: a
  // truncated/bit-flipped view must fail the PartialReader's eager
  // validation below with IoError (retryable at the shard layer).
  std::string scratch;
  if (fault::armed()) blob = fault::corrupt_view("codec.decode", blob, scratch);
  const PartialReader r(blob);
  ShardPartial p;
  Cursor meta(r.section(PartialSection::kMeta));
  p.mapping = std::string(meta.text());
  p.case_count = meta.uvarint();
  p.total_events = meta.uvarint();
  const std::size_t warnings = meta.count();
  p.warnings.reserve(warnings);
  for (std::size_t i = 0; i < warnings; ++i) {
    p.warnings.emplace_back(r.pool_string(meta.uvarint()));
  }
  p.health.files_requested = meta.uvarint();
  p.health.files_ingested = meta.uvarint();
  p.health.files_skipped = meta.uvarint();
  p.health.cases_quarantined = meta.uvarint();
  meta.expect_exhausted();
  p.graph = decode_dfg_partial(r);
  p.case_summaries = decode_case_stats_partial(r);
  p.variants = decode_variants_partial(r);
  p.io = decode_io_stats_partial(r);
  p.edges = decode_edge_stats_partial(r);
  return p;
}

}  // namespace st::pipeline
