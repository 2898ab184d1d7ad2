#include "elog/v2_select.hpp"

#include <algorithm>
#include <optional>
#include <string_view>

#include "elog/format.hpp"
#include "support/errors.hpp"
#include "support/strings.hpp"

namespace st::elog {

namespace {

// ---- compiled query ----------------------------------------------------

/// Dense bit-set over pool ids (or case indices) — the compiled form of
/// every set-valued restriction.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t bits) : words_((bits + 63) / 64, 0) {}

  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Same signed-wrap add the store's decoder uses (corrupt deltas must
/// wrap identically on both paths, not trip UB).
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// A Query compiled against one file's dictionary: every string
/// restriction becomes a bitmap over pool ids, built in a single pass
/// over the pool. After construction, selection never compares strings.
struct CompiledQuery {
  bool has_calls = false;
  bool has_fp = false;
  bool has_cids = false;
  bool has_hosts = false;
  bool has_window = false;
  Micros from = 0;
  Micros to = 0;
  std::uint32_t pool_n = 0;
  Bitmap call_ok;
  Bitmap fp_ok;
  Bitmap cid_ok;
  Bitmap host_ok;
  std::vector<std::uint32_t> call_ids;  ///< accepted pool ids, ascending
  /// Set when exactly one pool id is accepted by the call restriction —
  /// unlocks the SWAR equality prefilter over the call column.
  std::optional<std::uint32_t> single_call_id;
};

CompiledQuery compile(const MappedElog& m, const model::Query& q) {
  CompiledQuery cq;
  cq.pool_n = m.pool_count();
  cq.has_calls = !q.compiled_calls().empty();
  cq.has_fp = !q.fp_substrings().empty();
  cq.has_cids = q.cid_set().has_value();
  cq.has_hosts = q.host_set().has_value();
  cq.has_window = q.has_window();
  cq.from = q.from();
  cq.to = q.to();
  if (!(cq.has_calls || cq.has_fp || cq.has_cids || cq.has_hosts)) return cq;

  if (cq.has_calls) cq.call_ok = Bitmap(cq.pool_n);
  if (cq.has_fp) cq.fp_ok = Bitmap(cq.pool_n);
  if (cq.has_cids) cq.cid_ok = Bitmap(cq.pool_n);
  if (cq.has_hosts) cq.host_ok = Bitmap(cq.pool_n);

  const auto& calls = q.compiled_calls();  // sorted
  for (std::uint32_t id = 0; id < cq.pool_n; ++id) {
    const std::string_view s = m.pool_string(id);
    if (cq.has_calls && std::binary_search(calls.begin(), calls.end(), s)) {
      cq.call_ok.set(id);
      cq.call_ids.push_back(id);
    }
    if (cq.has_fp) {
      bool all = true;
      for (const std::string& needle : q.fp_substrings()) {
        if (!contains(s, needle)) {
          all = false;
          break;
        }
      }
      if (all) cq.fp_ok.set(id);
    }
    if (cq.has_cids && q.cid_set()->count(std::string(s)) != 0) cq.cid_ok.set(id);
    if (cq.has_hosts && q.host_set()->count(std::string(s)) != 0) cq.host_ok.set(id);
  }
  if (cq.has_calls && cq.call_ids.size() == 1) cq.single_call_id = cq.call_ids[0];
  return cq;
}

// ---- SWAR call-column prefilter ----------------------------------------

/// Fills `mask` with one bit per row: row r's u32 equals `accept`.
/// SWAR two-lanes-per-u64: XOR against the broadcast pattern turns
/// matches into zero lanes; the classic zero-lane detector
/// ((x - 1·lanes) & ~x & high-bits) rejects most words in four ALU ops.
/// The detector can report a false candidate in the high lane when the
/// low lane is zero, so candidates are confirmed with exact lane
/// compares — the mask itself is always exact.
void fill_eq_mask_u32(const char* data, std::size_t rows, std::uint32_t accept,
                      std::vector<std::uint64_t>& mask) {
  mask.assign((rows + 63) / 64, 0);
  const std::uint64_t pattern =
      (static_cast<std::uint64_t>(accept) << 32) | accept;
  constexpr std::uint64_t kLaneOnes = 0x0000000100000001ULL;
  constexpr std::uint64_t kLaneHighs = 0x8000000080000000ULL;
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const std::uint64_t x = load_u64(data + r * 4) ^ pattern;
    if ((((x - kLaneOnes) & ~x) & kLaneHighs) != 0) {
      if (static_cast<std::uint32_t>(x) == 0)
        mask[r >> 6] |= std::uint64_t{1} << (r & 63);
      if ((x >> 32) == 0)
        mask[(r + 1) >> 6] |= std::uint64_t{1} << ((r + 1) & 63);
    }
  }
  if (r < rows && load_u32(data + r * 4) == accept)
    mask[r >> 6] |= std::uint64_t{1} << (r & 63);
}

// ---- per-segment selection ---------------------------------------------

struct SegmentState {
  CompiledQuery cq;
  MappedElog::IndexView iv;
  /// Cases that can contain an accepted call, from the posting list
  /// (only when a call restriction meets a present posting section).
  std::optional<Bitmap> candidates;
};

SegmentState make_state(const MappedElog& m, const model::Query& q) {
  SegmentState st;
  st.cq = compile(m, q);
  if (m.has_index()) st.iv = m.index_view();
  if (st.cq.has_calls && st.iv.posting_table != nullptr) {
    Bitmap b(m.case_count());
    for (const std::uint32_t want : st.cq.call_ids) {
      // Binary search the posting key table (keys ascend).
      std::uint32_t lo = 0;
      std::uint32_t hi = st.iv.posting_keys;
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        const std::uint32_t key =
            load_u32(st.iv.posting_table + static_cast<std::uint64_t>(mid) * 8);
        if (key < want) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo >= st.iv.posting_keys ||
          load_u32(st.iv.posting_table + static_cast<std::uint64_t>(lo) * 8) != want) {
        continue;
      }
      const std::uint32_t begin =
          lo == 0 ? 0
                  : load_u32(st.iv.posting_table +
                             static_cast<std::uint64_t>(lo - 1) * 8 + 4);
      const std::uint32_t end =
          load_u32(st.iv.posting_table + static_cast<std::uint64_t>(lo) * 8 + 4);
      for (std::uint32_t k = begin; k < end; ++k) {
        b.set(load_u32(st.iv.posting_cases + static_cast<std::uint64_t>(k) * 4));
      }
    }
    st.candidates = std::move(b);
  }
  return st;
}

/// True when case `i`'s distinct-id set (callset/fpset section layout)
/// intersects the accept bitmap.
bool set_intersects(const char* ends, const char* ids, std::size_t i, const Bitmap& ok) {
  const std::uint32_t begin = i == 0 ? 0 : load_u32(ends + (i - 1) * 4);
  const std::uint32_t end = load_u32(ends + i * 4);
  for (std::uint32_t k = begin; k < end; ++k) {
    if (ok.test(load_u32(ids + static_cast<std::uint64_t>(k) * 4))) return true;
  }
  return false;
}

/// The residual columnar scan: decode starts (delta chains force a full
/// walk), test the compiled predicate per row, materialize survivors
/// only. Matches case_at + Query::matches exactly, including the
/// trailing-bytes check on varint columns.
model::Case scan_case(const MappedElog& m, const CompiledQuery& cq, std::size_t i) {
  const MappedElog::ColumnView cols = m.case_columns(i);
  const auto rows = static_cast<std::size_t>(cols.rows);
  const std::string_view cid = m.pool_string(m.case_cid_id(i));
  const std::string_view host = m.pool_string(m.case_host_id(i));
  model::CaseId id = m.case_id(i);

  std::vector<std::uint64_t> call_mask;
  const bool use_mask = cq.single_call_id.has_value() && rows >= 8;
  if (use_mask) fill_eq_mask_u32(cols.call, rows, *cq.single_call_id, call_mask);

  std::vector<model::Event> events;
  const bool varint = cols.start_encoding == kStartEncodingVarint;
  const char* sp = cols.start;
  const char* send = cols.start + cols.start_len;
  std::int64_t prev = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (varint) {
      prev = wrap_add(prev, zigzag_decode(read_uvarint(&sp, send)));
    } else {
      prev = wrap_add(prev, load_i64(cols.start + r * 8));
    }
    // Validate BOTH dictionary ids before any predicate skips a row —
    // exactly the rows case_at would reject — so a hostile (checksummed)
    // column throws here too instead of silently filtering.
    const std::uint32_t call_id = load_u32(cols.call + r * 4);
    if (call_id >= cq.pool_n) throw IoError("elog v2: call column id out of pool range");
    const std::uint32_t fp_id = load_u32(cols.fp + r * 4);
    if (fp_id >= cq.pool_n) throw IoError("elog v2: fp column id out of pool range");
    if (use_mask) {
      if (((call_mask[r >> 6] >> (r & 63)) & 1) == 0) continue;
    } else if (cq.has_calls && !cq.call_ok.test(call_id)) {
      continue;
    }
    if (cq.has_window && (prev < cq.from || prev >= cq.to)) continue;
    if (cq.has_fp && !cq.fp_ok.test(fp_id)) continue;
    model::Event e;
    e.cid = cid;
    e.host = host;
    e.rid = id.rid;
    e.pid = load_u64(cols.pid + r * 8);
    e.call = m.pool_string(call_id);
    e.start = prev;
    e.dur = load_i64(cols.dur + r * 8);
    e.fp = m.pool_string(fp_id);
    e.size = load_i64(cols.size + r * 8);
    events.push_back(e);
  }
  if (varint && sp != send) throw IoError("elog v2: start column has trailing bytes");
  return model::Case(std::move(id), std::move(events));
}

/// One case through the compiled plan. nullopt = case dropped (cid/host
/// miss — the only droppers, same as apply_case); an index prune yields
/// the same EMPTY case apply produces for event-restricted cases.
std::optional<model::Case> select_case(const MappedElog& m, const SegmentState& st,
                                       std::size_t i) {
  const CompiledQuery& cq = st.cq;
  if (cq.has_cids && !cq.cid_ok.test(m.case_cid_id(i))) return std::nullopt;
  if (cq.has_hosts && !cq.host_ok.test(m.case_host_id(i))) return std::nullopt;
  if (!(cq.has_calls || cq.has_fp || cq.has_window)) return m.case_at(i);

  bool pruned = false;
  if (st.candidates && !st.candidates->test(i)) pruned = true;
  if (!pruned && cq.has_window && st.iv.zones != nullptr) {
    const MappedElog::ZoneMap z = st.iv.zone(i);
    if (z.max_start < cq.from || z.min_start >= cq.to) pruned = true;
  }
  if (!pruned && cq.has_calls && !st.candidates && st.iv.call_ends != nullptr) {
    pruned = !set_intersects(st.iv.call_ends, st.iv.call_ids, i, cq.call_ok);
  }
  if (!pruned && cq.has_fp && st.iv.fp_ends != nullptr) {
    pruned = !set_intersects(st.iv.fp_ends, st.iv.fp_ids, i, cq.fp_ok);
  }
  if (pruned) return model::Case(m.case_id(i), {});
  return scan_case(m, cq, i);
}

}  // namespace

model::EventLog select_v2(const std::shared_ptr<MappedElog>& mapped,
                          const model::Query& q) {
  if (!mapped) throw LogicError("select_v2: null MappedElog");
  const SegmentState st = make_state(*mapped, q);
  model::EventLog out;
  out.adopt(mapped);
  for (std::size_t i = 0; i < mapped->case_count(); ++i) {
    if (auto c = select_case(*mapped, st, i)) out.add_case(std::move(*c));
  }
  return out;
}

model::EventLog apply_query_indexed(const model::Query& q, const model::EventLog& base,
                                    std::span<const IndexedSegment> segments) {
  const std::span<const model::Case> cases = base.cases();
  model::EventLog out;
  out.adopt_owners_of(base);
  std::size_t next = 0;
  const auto scan_one = [&](std::size_t i) {
    if (auto c = q.apply_case(cases[i])) out.add_case(std::move(*c));
  };
  for (const IndexedSegment& seg : segments) {
    if (seg.first_case < next || seg.first_case + seg.case_count > cases.size()) {
      throw LogicError("apply_query_indexed: segments unsorted, overlapping, or out of range");
    }
    for (; next < seg.first_case; ++next) scan_one(next);
    if (!seg.mapped || seg.mapped->case_count() != seg.case_count) {
      // Not (or no longer) a clean v2 slice — plain per-case path.
      for (std::size_t k = 0; k < seg.case_count; ++k, ++next) scan_one(next);
      continue;
    }
    const SegmentState st = make_state(*seg.mapped, q);
    for (std::size_t k = 0; k < seg.case_count; ++k, ++next) {
      if (auto c = select_case(*seg.mapped, st, k)) out.add_case(std::move(*c));
    }
  }
  for (; next < cases.size(); ++next) scan_one(next);
  return out;
}

}  // namespace st::elog
