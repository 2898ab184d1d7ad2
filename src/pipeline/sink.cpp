#include "pipeline/sink.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/from_strace.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "strace/filename.hpp"
#include "support/errors.hpp"
#include "support/faultpoint.hpp"

namespace st::pipeline {

namespace {

/// One file's converted case, its string owners, and one folded
/// partial per sink.
struct Converted {
  model::Case c;
  std::shared_ptr<strace::StringArena> arena;  ///< the case's interned cid/host
  std::shared_ptr<strace::TraceBuffer> buffer;  ///< the records' storage
  std::vector<std::string> warnings;            ///< raw reader warnings
  std::vector<std::unique_ptr<SinkPartial>> partials;  ///< one per sink, sink order
};

constexpr std::size_t kUnmapped = std::numeric_limits<std::size_t>::max();

/// The distinct mappings among a run's sinks (by address, in sink
/// order) and the one each sink folds: kUnmapped for a sink without.
struct MappingPlan {
  std::vector<const model::Mapping*> mappings;
  std::vector<std::size_t> of_sink;

  explicit MappingPlan(std::span<CaseSink* const> sinks) {
    of_sink.reserve(sinks.size());
    for (const CaseSink* sink : sinks) {
      const model::Mapping* f = sink->mapping();
      if (f == nullptr) {
        of_sink.push_back(kUnmapped);
        continue;
      }
      const auto it = std::find(mappings.begin(), mappings.end(), f);
      of_sink.push_back(static_cast<std::size_t>(it - mappings.begin()));
      if (it == mappings.end()) mappings.push_back(f);
    }
  }
};

/// One task's fold — a file in run(), a chunk in fold_cases: a partial
/// per sink, and per distinct mapping an activity dictionary that lives
/// as long as the task, so each case is mapped once per mapping however
/// many sinks fold it.
class TaskFold {
 public:
  TaskFold(std::span<CaseSink* const> sinks, const MappingPlan& plan)
      : sinks_(sinks), plan_(plan), dicts_(plan.mappings.size()), mapped_(plan.mappings.size()) {
    partials_.reserve(sinks.size());
    for (const CaseSink* sink : sinks) partials_.push_back(sink->make_partial());
  }

  void fold(const model::Case& c, const std::shared_ptr<strace::StringArena>& arena,
            const std::shared_ptr<strace::TraceBuffer>& buffer) {
    for (std::size_t m = 0; m < mapped_.size(); ++m) {
      model::map_case(c, *plan_.mappings[m], dicts_[m], mapped_[m]);
    }
    for (std::size_t s = 0; s < sinks_.size(); ++s) {
      const std::size_t m = plan_.of_sink[s];
      const bool mapped = m != kUnmapped;
      sinks_[s]->fold(*partials_[s], CaseContext{c, arena, buffer, mapped ? &mapped_[m] : nullptr,
                                                 mapped ? &dicts_[m] : nullptr});
    }
  }

  /// Seals every partial while the dictionaries are alive and hands the
  /// partials over, in sink order.
  std::vector<std::unique_ptr<SinkPartial>> seal() && {
    for (std::size_t s = 0; s < sinks_.size(); ++s) {
      const std::size_t m = plan_.of_sink[s];
      sinks_[s]->seal(*partials_[s], m == kUnmapped ? nullptr : &dicts_[m]);
    }
    return std::move(partials_);
  }

 private:
  std::span<CaseSink* const> sinks_;
  const MappingPlan& plan_;
  std::vector<model::ActivityDict> dicts_;
  std::vector<model::MappedCase> mapped_;
  std::vector<std::unique_ptr<SinkPartial>> partials_;
};

/// The (from, to) key of an id-keyed edge map.
std::uint64_t edge_key(std::uint32_t from, std::uint32_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

/// The names of an edge key's endpoints.
std::pair<model::Activity, model::Activity> edge_names(std::uint64_t key,
                                                       const model::ActivityDict& dict) {
  return {dict.name(static_cast<std::uint32_t>(key >> 32)),
          dict.name(static_cast<std::uint32_t>(key))};
}

/// What happened to one input file, in input-index order.
enum class Disp : unsigned char {
  kOk,           ///< parsed, converted, merged
  kSkipped,      ///< never ingested (bad name, unopenable, unparseable)
  kQuarantined,  ///< parsed, but its case failed to convert or fold
};

/// One input file's way to the merge cursor. The callbacks of its
/// parse write `converted` or `error`; `settled` (stored last) hands
/// the slot to the cursor, which alone reads and clears it.
struct FileSlot {
  std::atomic<bool> settled{false};
  Converted converted;
  std::exception_ptr error;   ///< a parse, convert or fold failure
  Disp on_error = Disp::kOk;  ///< what `error` makes of the file under keep_going
  Disp disp = Disp::kOk;
  std::string reason;  ///< why the file was skipped or quarantined

  /// Settles a file this thread skipped before its parse.
  void settle_skipped(std::string why) {
    disp = Disp::kSkipped;
    reason = std::move(why);
    settled.store(true);
  }
};

/// One run-local accumulator per sink: absorb() folds a task's partials
/// in, in the order it is called; merge() hands each sink its
/// accumulator, once.
class Accumulators {
 public:
  explicit Accumulators(std::span<CaseSink* const> sinks) : sinks_(sinks) {
    acc_.reserve(sinks.size());
    for (const CaseSink* sink : sinks) acc_.push_back(sink->make_partial());
  }

  void absorb(std::vector<std::unique_ptr<SinkPartial>>& partials) {
    for (std::size_t s = 0; s < sinks_.size(); ++s) {
      sinks_[s]->absorb(*acc_[s], std::move(partials[s]));
    }
  }

  void merge() && {
    for (std::size_t s = 0; s < sinks_.size(); ++s) sinks_[s]->merge(std::move(acc_[s]));
  }

 private:
  std::span<CaseSink* const> sinks_;
  std::vector<std::unique_ptr<SinkPartial>> acc_;
};

/// Rethrows `e` to classify it. Data-shaped failures — IoError and
/// ParseError, which include injected faults — may be quarantined
/// under keep_going; LogicError and foreign exceptions never are.
bool quarantinable(const std::exception_ptr& e, std::string& what) {
  try {
    std::rethrow_exception(e);
  } catch (const LogicError&) {
    return false;
  } catch (const ParseError& err) {
    what = err.what();
    return true;
  } catch (const IoError& err) {
    what = err.what();
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

std::string_view classify_warning(std::string_view warning) {
  // Order matters: a skip/quarantine message embeds the original error
  // text, which may itself look like a line-level parse warning.
  if (warning.find(": skipped: ") != std::string_view::npos) return "file-skipped";
  if (warning.find("quarantined: ") != std::string_view::npos) return "case-quarantined";
  if (warning.find("unfinished call never resumed") != std::string_view::npos) {
    return "unfinished-call";
  }
  if (warning.find(": line ") != std::string_view::npos) return "malformed-line";
  return "other";
}

void DataHealth::classify(std::span<const std::string> warnings) {
  for (const auto& warning : warnings) {
    ++warnings_by_class[std::string(classify_warning(warning))];
  }
}

void DataHealth::merge_counters(const DataHealth& other) {
  files_requested += other.files_requested;
  files_ingested += other.files_ingested;
  files_skipped += other.files_skipped;
  cases_quarantined += other.cases_quarantined;
}

model::EventLog run(const std::vector<std::string>& paths, ThreadPool& pool,
                    std::span<CaseSink* const> sinks, const StreamOptions& opts,
                    DataHealth* health) {
  const std::size_t n = paths.size();
  const bool keep_going = opts.keep_going;
  std::vector<FileSlot> slots(n);

  // Validate every file name before any I/O: the error for a bad name
  // is deterministic (first offender in input order) and cheap.
  std::vector<strace::TraceFileId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto id = strace::parse_trace_filename(paths[i]);
    if (!id) {
      const ParseError err("trace file name does not follow cid_host_rid.st: " + paths[i]);
      if (!keep_going) throw err;
      slots[i].settle_skipped(err.what());
      continue;
    }
    ids[i] = std::move(*id);
  }

  // The merge cursor: input-order assembly of the log, the health
  // counters and every sink's accumulator, run by whichever pool
  // thread settles a file while no other thread holds it. Everything
  // below is touched only by the cursor's holder (and, after the join,
  // by this thread).
  model::EventLog log;
  DataHealth h;
  h.files_requested = n;
  Accumulators acc(sinks);
  std::size_t next = 0;           // the first slot not yet assembled
  bool stalled = false;           // slot `next` fails the run
  std::atomic<bool> busy{false};  // the cursor's try-lock
  std::string prefixed;  // reused "<path>: <warning>" buffer
  const auto add_warning = [&log](std::string& text) {
    // A malformed region repeating the same defect floods the log
    // with copies of one message; keep the first of each run.
    if (!log.warnings().empty() && log.warnings().back() == text) return;
    log.add_warning(text);
  };
  // Assembles slot i: case order, event order and warning order come
  // out byte-identical to the staged path. Skipped and quarantined
  // files contribute their structured warning at their input-order
  // slot and nothing else. False when the slot's error fails the run.
  const auto assemble = [&](std::size_t i) {
    FileSlot& slot = slots[i];
    if (slot.error) {
      if (!keep_going || !quarantinable(slot.error, slot.reason)) return false;
      slot.disp = slot.on_error;
    }
    if (slot.disp != Disp::kOk) {
      prefixed.clear();
      prefixed += paths[i];
      prefixed += slot.disp == Disp::kSkipped ? ": skipped: " : ": case quarantined: ";
      prefixed += slot.reason;
      add_warning(prefixed);
      ++(slot.disp == Disp::kSkipped ? h.files_skipped : h.cases_quarantined);
      return true;
    }
    Converted& cv = slot.converted;
    if (cv.arena) log.adopt(std::move(cv.arena));
    log.add_case(std::move(cv.c));
    if (cv.buffer) log.adopt(std::move(cv.buffer));
    for (const auto& warning : cv.warnings) {
      prefixed.clear();
      prefixed.reserve(paths[i].size() + 2 + warning.size());
      prefixed += paths[i];
      prefixed += ": ";
      prefixed += warning;
      add_warning(prefixed);
    }
    acc.absorb(cv.partials);
    cv = Converted{};
    return true;
  };
  // Try-lock, assemble every settled prefix slot, unlock. A slot that
  // settles while another thread holds the cursor is picked up by that
  // thread's re-check after it unlocks (all seq_cst: either the holder
  // sees the flag or the settler wins the lock), so no settled prefix
  // waits for the join.
  const auto advance = [&] {
    while (!busy.exchange(true)) {
      while (!stalled && next < n && slots[next].settled.load()) {
        try {
          stalled = !assemble(next);
        } catch (...) {
          // An absorb that throws leaves the accumulators half-folded:
          // that fails the run under either policy.
          slots[next].error = std::current_exception();
          stalled = true;
        }
        if (!stalled) ++next;
      }
      const std::size_t at = next;
      const bool stop = stalled;
      busy.store(false);
      if (stop || at == n || !slots[at].settled.load()) return;
    }
  };

  strace::ParallelReadOptions read_opts;
  read_opts.min_chunk_bytes = opts.min_chunk_bytes;
  read_opts.pool = &pool;
  const MappingPlan plan(sinks);
  // The parse's file indices are dense over the files it was given.
  std::vector<std::size_t> orig_of(n);
  // Each file converts, and every sink folds its case, the moment its
  // parse settles: inside the reader's per-file callback, on the pool
  // thread that finished the file's last chunk. The callback writes
  // only its own slot; the settle hook then publishes the slot to the
  // cursor and tries to advance it. Everything they reference is
  // declared before the handle, whose join (below, or in its
  // destructor) leaves no callback running.
  strace::StreamedParse parse(
      read_opts,
      [&](std::size_t k, strace::ReadResult&& result) {
        const std::size_t i = orig_of[k];
        // Never throws: an exception escaping here would be recorded as
        // the file's parse failure ("skipped" rather than "case
        // quarantined" under keep_going).
        try {
          FAULT_POINT("pipeline.convert");
          Converted out;
          // Small blocks: this arena holds exactly one case's interned
          // cid/host, and a swarm of small trace files must not pin a
          // 64 KiB block each.
          out.arena = std::make_shared<strace::StringArena>(256);
          out.c = model::case_from_records(ids[i], result.records, *out.arena);
          out.warnings = std::move(result.warnings);
          out.buffer = std::move(result.buffer);
          FAULT_POINT("sink.fold");
          TaskFold task(sinks, plan);
          task.fold(out.c, out.arena, out.buffer);
          out.partials = std::move(task).seal();
          slots[i].converted = std::move(out);
        } catch (...) {
          slots[i].error = std::current_exception();
          slots[i].on_error = Disp::kQuarantined;
        }
      },
      [&](std::size_t k, std::exception_ptr parse_error) {
        FileSlot& slot = slots[orig_of[k]];
        if (parse_error) {
          slot.error = std::move(parse_error);
          slot.on_error = Disp::kSkipped;
        }
        slot.settled.store(true);
        advance();
      });

  std::size_t live = 0;
  // Open each surviving file in input order, on this thread, and submit
  // its chunks before opening the next, so the opens overlap the parse.
  // Fail fast: an unopenable file is the run's error, whatever failed
  // before it — stop submitting, join (the handle's destructor) and
  // rethrow; nothing merges.
  for (std::size_t i = 0; i < n; ++i) {
    if (slots[i].settled.load()) continue;  // a bad name, under keep_going
    std::shared_ptr<strace::TraceBuffer> buffer;
    try {
      buffer = strace::TraceBuffer::from_file_mmap(paths[i]);
    } catch (const IoError& e) {
      if (!keep_going) throw;
      slots[i].settle_skipped(e.what());
      continue;
    }
    orig_of[live++] = i;
    (void)parse.add(std::move(buffer));
  }

  // Every file has settled once the parse joins; the cursor then takes
  // whatever no settle hook got to, and stops at the lowest input
  // index whose error fails the run (a sink fold that threw competes
  // with parse errors under that one rule).
  parse.join();
  advance();
  if (stalled) std::rethrow_exception(slots[next].error);  // sinks stay empty

  // The one shot the injection matrix gets at the merge phase: BEFORE
  // the first merge, so a firing fault still leaves every sink empty —
  // never half-merged.
  FAULT_POINT("sink.merge");
  std::move(acc).merge();
  if (health != nullptr) {
    h.files_ingested = n - h.files_skipped - h.cases_quarantined;
    h.classify(log.warnings());
    *health = std::move(h);
  }
  return log;
}

model::EventLog run(const std::vector<std::string>& paths, ThreadPool& pool,
                    std::initializer_list<CaseSink*> sinks, const StreamOptions& opts,
                    DataHealth* health) {
  return run(paths, pool, std::span<CaseSink* const>(sinks.begin(), sinks.size()), opts,
             health);
}

void fold_cases(std::span<const model::Case> cases, std::span<CaseSink* const> sinks,
                ThreadPool* pool) {
  // One chunk inline; on a pool, parallel_for's chunk count.
  const std::size_t target = pool == nullptr ? 1 : default_chunks(*pool, cases.size());
  const std::size_t per = std::max<std::size_t>(1, (cases.size() + target - 1) / target);
  std::vector<std::vector<std::unique_ptr<SinkPartial>>> parts((cases.size() + per - 1) / per);
  const MappingPlan plan(sinks);
  // The cases' owner holds their storage; there is nothing to adopt.
  const std::shared_ptr<strace::StringArena> no_arena;
  const std::shared_ptr<strace::TraceBuffer> no_buffer;
  const auto fold_chunk = [&](std::size_t k) {
    FAULT_POINT("sink.fold");
    TaskFold task(sinks, plan);
    for (const model::Case& c : cases.subspan(k * per, std::min(per, cases.size() - k * per))) {
      task.fold(c, no_arena, no_buffer);
    }
    parts[k] = std::move(task).seal();
  };
  if (pool == nullptr) {
    for (std::size_t k = 0; k < parts.size(); ++k) fold_chunk(k);
  } else {
    // The workers allocate their partials from their own malloc arenas,
    // which cannot reuse the pages the caller's arena has free (a
    // loader's transient copies, say); hand those back first, so the
    // partials do not stack on top of them in resident memory.
    malloc_trim(0);
    // Awaits every chunk; the lowest failing chunk's error propagates.
    parallel_for(*pool, 0, parts.size(), fold_chunk);
  }
  // Only now, with every chunk folded: a failing fold merges nothing.
  Accumulators acc(sinks);
  for (auto& partials : parts) acc.absorb(partials);
  std::move(acc).merge();
}

// ---- DfgSink -----------------------------------------------------------

namespace {
struct DfgPartial final : SinkPartial {
  std::vector<std::uint64_t> nodes;                        ///< count by activity id
  std::unordered_map<std::uint64_t, std::uint64_t> edges;  ///< count by edge_key
  std::uint64_t traces = 0;
  dfg::Dfg graph;  ///< the counts by name, from seal()
};
}  // namespace

std::unique_ptr<SinkPartial> DfgSink::make_partial() const {
  return std::make_unique<DfgPartial>();
}

void DfgSink::fold(SinkPartial& p, const CaseContext& ctx) const {
  // Dfg::add_trace over ids: the markers count once per trace, and an
  // activity named like a marker shares its id.
  auto& part = static_cast<DfgPartial&>(p);
  part.nodes.resize(ctx.activities->size());
  ++part.traces;
  ++part.nodes[model::ActivityDict::kStart];
  ++part.nodes[model::ActivityDict::kEnd];
  std::uint32_t prev = model::ActivityDict::kStart;
  for (const std::uint32_t a : ctx.mapped->activities) {
    ++part.nodes[a];
    ++part.edges[edge_key(prev, a)];
    prev = a;
  }
  ++part.edges[edge_key(prev, model::ActivityDict::kEnd)];
}

void DfgSink::seal(SinkPartial& p, const model::ActivityDict* activities) const {
  auto& part = static_cast<DfgPartial&>(p);
  std::map<model::Activity, std::uint64_t> nodes;
  for (std::uint32_t a = 0; a < part.nodes.size(); ++a) {
    if (part.nodes[a] > 0) nodes.emplace(activities->name(a), part.nodes[a]);
  }
  std::map<std::pair<model::Activity, model::Activity>, std::uint64_t> edges;
  for (const auto& [key, count] : part.edges) edges.emplace(edge_names(key, *activities), count);
  part.graph = dfg::Dfg::from_parts(std::move(nodes), std::move(edges), part.traces);
  // A run's partials wait for the input-order merge: keep only names.
  part.nodes = {};
  part.edges = {};
}

void DfgSink::absorb(SinkPartial& acc, std::unique_ptr<SinkPartial> p) const {
  static_cast<DfgPartial&>(acc).graph.merge(std::move(static_cast<DfgPartial&>(*p).graph));
}

void DfgSink::merge(std::unique_ptr<SinkPartial> acc) {
  graph_.merge(std::move(static_cast<DfgPartial&>(*acc).graph));
}

// ---- CaseStatsSink -----------------------------------------------------

namespace {
struct CaseStatsPartial final : SinkPartial {
  model::CaseSummaries acc;
};
}  // namespace

std::unique_ptr<SinkPartial> CaseStatsSink::make_partial() const {
  return std::make_unique<CaseStatsPartial>();
}

void CaseStatsSink::fold(SinkPartial& p, const CaseContext& ctx) const {
  static_cast<CaseStatsPartial&>(p).acc.add(ctx.c);
}

void CaseStatsSink::absorb(SinkPartial& acc, std::unique_ptr<SinkPartial> p) const {
  static_cast<CaseStatsPartial&>(acc).acc.merge(std::move(static_cast<CaseStatsPartial&>(*p).acc));
}

void CaseStatsSink::merge(std::unique_ptr<SinkPartial> acc) {
  acc_.merge(std::move(static_cast<CaseStatsPartial&>(*acc).acc));
}

// ---- VariantsSink ------------------------------------------------------

namespace {
struct VariantsPartial final : SinkPartial {
  std::map<std::vector<std::uint32_t>, std::size_t> traces;  ///< σ_f(c) as ids
  model::VariantCounts counts;                                ///< by name, from seal()
};
}  // namespace

std::unique_ptr<SinkPartial> VariantsSink::make_partial() const {
  return std::make_unique<VariantsPartial>();
}

void VariantsSink::fold(SinkPartial& p, const CaseContext& ctx) const {
  ++static_cast<VariantsPartial&>(p).traces[ctx.mapped->activities];
}

void VariantsSink::seal(SinkPartial& p, const model::ActivityDict* activities) const {
  // The dictionary is injective, so distinct id traces name distinct
  // traces: the multiset is ActivityLog::build(log, f).variants()'s.
  auto& part = static_cast<VariantsPartial&>(p);
  for (const auto& [ids, count] : part.traces) {
    model::ActivityTrace trace;
    trace.reserve(ids.size());
    for (const std::uint32_t a : ids) trace.push_back(activities->name(a));
    part.counts.emplace(std::move(trace), count);
  }
  part.traces = {};
}

void VariantsSink::absorb(SinkPartial& acc, std::unique_ptr<SinkPartial> p) const {
  model::merge_variant_counts(static_cast<VariantsPartial&>(acc).counts,
                              std::move(static_cast<VariantsPartial&>(*p).counts));
}

void VariantsSink::merge(std::unique_ptr<SinkPartial> acc) {
  model::merge_variant_counts(variants_, std::move(static_cast<VariantsPartial&>(*acc).counts));
}

// ---- IoStatsSink -------------------------------------------------------

namespace {
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

struct IoStatsPartial final : SinkPartial {
  std::vector<dfg::IoStatistics::CaseContribution> cases;
  // Per-case scratch: the slot of each activity id the case touched.
  std::vector<std::uint32_t> slot_of;
  std::vector<std::pair<std::uint32_t, dfg::IoStatistics::ActivityContribution>> slots;
};
}  // namespace

std::unique_ptr<SinkPartial> IoStatsSink::make_partial() const {
  return std::make_unique<IoStatsPartial>();
}

void IoStatsSink::fold(SinkPartial& p, const CaseContext& ctx) const {
  // IoStatistics::Partial::add_case over ids: each activity's events
  // fold in event order, and the case's activities are named once.
  auto& part = static_cast<IoStatsPartial&>(p);
  part.slot_of.resize(ctx.activities->size(), kNoSlot);
  const model::MappedCase& m = *ctx.mapped;
  const auto events = ctx.c.events();
  for (std::size_t k = 0; k < m.activities.size(); ++k) {
    std::uint32_t& slot = part.slot_of[m.activities[k]];
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(part.slots.size());
      part.slots.emplace_back(m.activities[k], dfg::IoStatistics::ActivityContribution{});
    }
    part.slots[slot].second.add(events[m.events[k]]);
  }
  dfg::IoStatistics::CaseContribution contribution;
  contribution.id = ctx.c.id();
  for (auto& [a, con] : part.slots) {
    contribution.activities.emplace(ctx.activities->name(a), std::move(con));
    part.slot_of[a] = kNoSlot;
  }
  part.slots.clear();
  part.cases.push_back(std::move(contribution));
}

void IoStatsSink::seal(SinkPartial& p, const model::ActivityDict* /*activities*/) const {
  auto& part = static_cast<IoStatsPartial&>(p);
  part.slot_of = {};
  part.slots = {};
}

void IoStatsSink::absorb(SinkPartial& acc, std::unique_ptr<SinkPartial> p) const {
  auto& into = static_cast<IoStatsPartial&>(acc).cases;
  auto& from = static_cast<IoStatsPartial&>(*p).cases;
  if (into.empty()) {
    into = std::move(from);
  } else {
    into.insert(into.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
  }
}

void IoStatsSink::merge(std::unique_ptr<SinkPartial> acc) {
  partial_.merge(
      dfg::IoStatistics::Partial::from_cases(std::move(static_cast<IoStatsPartial&>(*acc).cases)));
}

// ---- EdgeStatsSink -----------------------------------------------------

namespace {
struct EdgeStatsPartial final : SinkPartial {
  std::unordered_map<std::uint64_t, dfg::EdgeStat> edges;  ///< by edge_key
  dfg::EdgeStatistics::Partial p;                          ///< by name, from seal()
};
}  // namespace

std::unique_ptr<SinkPartial> EdgeStatsSink::make_partial() const {
  return std::make_unique<EdgeStatsPartial>();
}

void EdgeStatsSink::fold(SinkPartial& p, const CaseContext& ctx) const {
  // EdgeStatistics::Partial::add_case over ids.
  auto& part = static_cast<EdgeStatsPartial&>(p);
  const model::MappedCase& m = *ctx.mapped;
  const auto events = ctx.c.events();
  for (std::size_t k = 1; k < m.activities.size(); ++k) {
    part.edges[edge_key(m.activities[k - 1], m.activities[k])].add(
        events[m.events[k]].start - events[m.events[k - 1]].end());
  }
}

void EdgeStatsSink::seal(SinkPartial& p, const model::ActivityDict* activities) const {
  auto& part = static_cast<EdgeStatsPartial&>(p);
  std::map<dfg::EdgeStatistics::Edge, dfg::EdgeStat> stats;
  for (const auto& [key, stat] : part.edges) stats.emplace(edge_names(key, *activities), stat);
  part.p = dfg::EdgeStatistics::Partial::from_stats(std::move(stats));
  part.edges = {};
}

void EdgeStatsSink::absorb(SinkPartial& acc, std::unique_ptr<SinkPartial> p) const {
  static_cast<EdgeStatsPartial&>(acc).p.merge(std::move(static_cast<EdgeStatsPartial&>(*p).p));
}

void EdgeStatsSink::merge(std::unique_ptr<SinkPartial> acc) {
  partial_.merge(std::move(static_cast<EdgeStatsPartial&>(*acc).p));
}

}  // namespace st::pipeline
