#include "elog/v2_select.hpp"

#include <algorithm>
#include <numeric>
#include <string_view>

#include "elog/format.hpp"
#include "support/errors.hpp"
#include "support/strings.hpp"

namespace st::elog {

namespace {

// ---- compiled query ----------------------------------------------------

/// Dense bit-set over pool ids — the compiled form of every set-valued
/// restriction.
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
    if (cq.has_calls && std::binary_search(calls.begin(), calls.end(), s)) cq.call_ok.set(id);
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
  return cq;
}

// ---- selection -----------------------------------------------------------

/// The residual predicate over case i's rows, in row order: counts the
/// rows that pass — with kBuild, also builds them into `events`, as
/// copies of `proto` (the case's cid, host and rid), and their pool-id
/// pairs into `pairs`. A count reads only the columns its predicate
/// tests (the start column's delta chain only under a window); a build
/// reads them all. Every dictionary id read is checked before the
/// predicate may skip its row, and so is the end of a start column
/// read: a hostile (checksummed) column throws the IoError case_at
/// would, never silently filters.
template <bool kBuild>
std::size_t walk_rows(const MappedElog& m, const CompiledQuery& cq, std::size_t i,
                      const model::Event& proto, std::vector<model::Event>* events,
                      std::vector<std::uint64_t>* pairs) {
  const MappedElog::ColumnView cols = m.case_columns(i);
  const auto rows = static_cast<std::size_t>(cols.rows);
  const bool read_start = kBuild || cq.has_window;
  const bool read_call = kBuild || cq.has_calls;
  const bool read_fp = kBuild || cq.has_fp;
  std::size_t kept = 0;
  const bool varint = cols.start_encoding == kStartEncodingVarint;
  const char* sp = cols.start;
  const char* send = cols.start + cols.start_len;
  std::int64_t prev = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (read_start) {
      prev = wrap_add(prev, varint ? zigzag_decode(read_uvarint(&sp, send))
                                   : load_i64(cols.start + r * 8));
    }
    std::uint32_t call_id = 0;
    if (read_call) {
      call_id = load_u32(cols.call + r * 4);
      if (call_id >= cq.pool_n) throw IoError("elog v2: call column id out of pool range");
    }
    std::uint32_t fp_id = 0;
    if (read_fp) {
      fp_id = load_u32(cols.fp + r * 4);
      if (fp_id >= cq.pool_n) throw IoError("elog v2: fp column id out of pool range");
    }
    if (cq.has_calls && !cq.call_ok.test(call_id)) continue;
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
  if (read_start && varint && sp != send) {
    throw IoError("elog v2: start column has trailing bytes");
  }
  return kept;
}

}  // namespace

Selection select(const MappedElog& mapped, const model::Query& q,
                 std::span<const std::size_t> cases) {
  auto compiled = std::make_shared<CompiledQuery>(compile(mapped, q));
  const CompiledQuery& cq = *compiled;
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
    const std::size_t n = walk_rows<false>(mapped, cq, i, {}, nullptr, nullptr);
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
