#include "elog/v2_select.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <ranges>
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

}  // namespace

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
  /// The index sections the prune reads.
  MappedElog::IndexView iv;
  /// Cases that can contain an accepted call, from the posting list
  /// (only when a call restriction meets a present posting section).
  std::optional<Bitmap> candidates;
};

namespace {

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

// ---- selection -----------------------------------------------------------

/// The cases that can contain an accepted call, from the posting list.
Bitmap posting_candidates(const MappedElog& m, const CompiledQuery& cq) {
  // Posting table entry k: (call id, end of its run of posting_cases).
  const auto entry = [&cq](std::uint32_t k, std::uint32_t field) {
    return load_u32(cq.iv.posting_table + static_cast<std::uint64_t>(k) * 8 + field * 4);
  };
  Bitmap b(m.case_count());
  for (const std::uint32_t want : cq.call_ids) {
    // The keys ascend: binary search them.
    const std::uint32_t k = *std::ranges::partition_point(
        std::views::iota(std::uint32_t{0}, cq.iv.posting_keys),
        [&](std::uint32_t j) { return entry(j, 0) < want; });
    if (k == cq.iv.posting_keys || entry(k, 0) != want) continue;
    for (std::uint32_t p = k == 0 ? 0 : entry(k - 1, 1); p < entry(k, 1); ++p) {
      b.set(load_u32(cq.iv.posting_cases + static_cast<std::uint64_t>(p) * 4));
    }
  }
  return b;
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

/// The residual predicate over case i's rows, in row order: decodes
/// the start column (delta chains force a full walk) and counts the
/// rows that pass — with kBuild, also builds them into `events`, as
/// copies of `proto` (the case's cid, host and rid), and their pool-id
/// pairs into `pairs`. Every dictionary id
/// is checked before the predicate may skip its row, and so is the
/// start column's end: a hostile (checksummed) column throws the
/// IoError case_at would, never silently filters.
template <bool kBuild>
std::size_t walk_rows(const MappedElog& m, const CompiledQuery& cq, std::size_t i,
                      const model::Event& proto, std::vector<model::Event>* events,
                      std::vector<std::uint64_t>* pairs) {
  const MappedElog::ColumnView cols = m.case_columns(i);
  const auto rows = static_cast<std::size_t>(cols.rows);

  std::vector<std::uint64_t> call_mask;
  const bool use_mask = cq.single_call_id.has_value() && rows >= 8;
  if (use_mask) fill_eq_mask_u32(cols.call, rows, *cq.single_call_id, call_mask);

  std::size_t kept = 0;
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
    ++kept;
    if constexpr (kBuild) {
      model::Event& e = events->emplace_back(proto);
      e.pid = load_u64(cols.pid + r * 8);
      e.call = m.pool_string(call_id);
      e.start = prev;
      e.dur = load_i64(cols.dur + r * 8);
      e.fp = m.pool_string(fp_id);
      e.size = load_i64(cols.size + r * 8);
      pairs->push_back(static_cast<std::uint64_t>(call_id) << 32 | fp_id);
    }
  }
  if (varint && sp != send) throw IoError("elog v2: start column has trailing bytes");
  return kept;
}

/// Whether the index sections rule out every row of case i.
bool pruned(const CompiledQuery& cq, std::size_t i) {
  const MappedElog::IndexView& iv = cq.iv;
  if (cq.candidates && !cq.candidates->test(i)) return true;
  if (cq.has_window && iv.zones != nullptr) {
    const MappedElog::ZoneMap z = iv.zone(i);
    if (z.max_start < cq.from || z.min_start >= cq.to) return true;
  }
  if (cq.has_calls && !cq.candidates && iv.call_ends != nullptr &&
      !set_intersects(iv.call_ends, iv.call_ids, i, cq.call_ok)) {
    return true;
  }
  return cq.has_fp && iv.fp_ends != nullptr && !set_intersects(iv.fp_ends, iv.fp_ids, i, cq.fp_ok);
}

}  // namespace

Selection select(const MappedElog& mapped, const model::Query& q,
                 std::span<const std::size_t> cases) {
  auto compiled = std::make_shared<CompiledQuery>(compile(mapped, q));
  CompiledQuery& cq = *compiled;
  if (mapped.has_index()) cq.iv = mapped.index_view();
  if (cq.has_calls && cq.iv.posting_table) cq.candidates = posting_candidates(mapped, cq);
  const bool event_restricted = cq.has_calls || cq.has_fp || cq.has_window;
  Selection out;
  for (const std::size_t i : cases) {
    // cid/host misses are the only droppers, as in apply_case.
    if (cq.has_cids && !cq.cid_ok.test(mapped.case_cid_id(i))) continue;
    if (cq.has_hosts && !cq.host_ok.test(mapped.case_host_id(i))) continue;
    Selection::Kept& kept = out.cases.emplace_back(Selection::Kept{i, Selection::Rows::kAll});
    const std::uint64_t rows = mapped.case_rows(i);
    if (!event_restricted) {
      out.events += rows;
      continue;
    }
    const std::size_t n =
        pruned(cq, i) ? 0 : walk_rows<false>(mapped, cq, i, {}, nullptr, nullptr);
    kept.rows = n == 0 ? Selection::Rows::kNone
                : n == rows ? Selection::Rows::kAll
                            : Selection::Rows::kSome;
    out.events += n;
  }
  out.predicate = std::move(compiled);
  return out;
}

void load_selected(const MappedElog& mapped, const Selection& s, std::size_t k,
                   model::Case& out, std::vector<std::uint64_t>& pairs) {
  const Selection::Kept& kept = s.cases[k];
  switch (kept.rows) {
    case Selection::Rows::kAll:
      mapped.case_at(kept.index, out, pairs);
      return;
    case Selection::Rows::kNone:
      pairs.clear();
      out = model::Case(mapped.case_id(kept.index), {});
      return;
    case Selection::Rows::kSome: {
      std::vector<model::Event> events = std::move(out).take_events();
      events.clear();
      pairs.clear();
      model::CaseId id = mapped.case_id(kept.index);
      model::Event proto;
      proto.cid = mapped.pool_string(mapped.case_cid_id(kept.index));
      proto.host = mapped.pool_string(mapped.case_host_id(kept.index));
      proto.rid = id.rid;
      walk_rows<true>(mapped, *s.predicate, kept.index, proto, &events, &pairs);
      assemble_case(std::move(id), std::move(events), pairs, out);
      return;
    }
  }
}

model::EventLog select_v2(const std::shared_ptr<MappedElog>& mapped,
                          const model::Query& q) {
  if (!mapped) throw LogicError("select_v2: null MappedElog");
  std::vector<std::size_t> every(mapped->case_count());
  std::iota(every.begin(), every.end(), std::size_t{0});
  const Selection s = select(*mapped, q, every);
  model::EventLog out;
  out.adopt(mapped);
  std::vector<std::uint64_t> pairs;
  for (std::size_t k = 0; k < s.cases.size(); ++k) {
    model::Case c;
    load_selected(*mapped, s, k, c, pairs);
    out.add_case(std::move(c));
  }
  return out;
}

}  // namespace st::elog
