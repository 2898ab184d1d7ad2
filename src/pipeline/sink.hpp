// CaseSink: the composable consumer side of the streaming pipeline —
// the abstraction that turns the PR 4 trace -> EventLog -> DFG chain
// into the repo's analytics substrate. One streamed pass over the
// trace bytes can now feed ANY set of analytics, instead of the DFG
// alone: the graph build, per-case summaries, trace variants and the
// activity and edge statistics all fold each file's case on the pool
// thread that finished parsing it, where previously each of them was a
// separate barrier-delimited walk over a fully materialized EventLog.
//
// A sink is monoid-shaped, mirroring the Dfg merge the DFG build has
// always used (refs [24][25] of the paper):
//
//   make_partial()      a fresh accumulator: one per task (one
//                       converted file in run(), one chunk of cases in
//                       fold_cases), created on the pool thread running
//                       it, and one per run, the run-local accumulator
//                       the tasks' partials are absorbed into;
//   fold(partial, ctx)  folds one completed Case into that partial
//                       right after its conversion, on the pool thread
//                       that finished the file's parse, while other
//                       files may still parse. `const`: sinks keep all
//                       mutable state in the partial, so concurrent
//                       folds into distinct partials are safe by
//                       construction;
//   seal(partial, dict) once per partial, on the same thread, after its
//                       task's last fold: where a sink that counted by
//                       activity id turns its counts back into names
//                       and drops its id-keyed state, which would
//                       otherwise wait for the absorb;
//   absorb(acc, partial) folds a task's partial into the run-local
//                       accumulator, strictly in input order. In run()
//                       it runs at the merge cursor: on whichever pool
//                       thread settles a file while no other thread
//                       holds the cursor, which then absorbs every
//                       settled prefix file (and, after the join, on
//                       the calling thread). Never concurrently with
//                       another absorb of the same run. `const` like
//                       fold: the accumulator is the run's, not the
//                       sink's;
//   merge(acc)          hands the accumulator to the sink's output,
//                       exactly once per successful run, on the calling
//                       thread after the join.
//
// Map each event once. A sink that folds activities names its mapping
// f through mapping(); run() and fold_cases apply each distinct f once
// per case, into a MappedCase of activity ids interned in the task's
// ActivityDict (model/mapped_case.hpp), and pass both in the
// CaseContext. A registry mapping runs once per distinct (call, fp) of
// the task, through the dictionary's memo. So DfgSink, VariantsSink, IoStatsSink and EdgeStatsSink
// count in id-indexed vectors and integer-keyed maps, and strings come
// back once per (partial, key) in seal() — once per (case, activity)
// for the I/O statistics — into the same Dfg, VariantCounts and
// statistics partials as the string-keyed references (build_serial,
// ActivityLog, IoStatistics::compute, EdgeStatistics::compute).
//
// Determinism contract (asserted by tests/test_pipeline_sinks.cpp):
// every sink's output is byte-identical to its staged counterpart at
// any worker count and any chunk size, absorb() runs strictly in input
// order, errors propagate with lowest-input-index-wins (a sink fold
// that throws competes with parse errors on input index), and NO
// merge() runs on a failing run — a sink is either fully folded or
// still empty, never half-merged. A failing run may have absorbed a
// prefix of its files into accumulators it then drops; only the
// container sink's absorb has an effect outside the run (it appends to
// its writer, whose unpublished file a failed run discards).
// Lifetime: the per-task arena and TraceBuffer of a case reach fold()
// through the context, so sinks whose output keeps views into the case
// (the elog v2 writer sink) can adopt them; the run adopts them into
// its primary EventLog before anything escapes either way.
//
// Usage — one pass, many analytics:
//
//   st::ThreadPool pool(8);
//   st::pipeline::DfgSink graph(f);
//   st::pipeline::CaseStatsSink stats;
//   st::pipeline::VariantsSink variants(f);
//   st::model::EventLog log =
//       st::pipeline::run(paths, pool, {&graph, &stats, &variants});
//   use(graph.take_graph(), stats.take_summaries(), variants.take_variants());
//
//   // Cases already in a log (a container's, a query's view): the same
//   // sinks, folded in chunks on the pool (inline with a null pool).
//   st::pipeline::DfgSink g(f);
//   st::pipeline::IoStatsSink io(f);
//   const std::array<st::pipeline::CaseSink*, 2> sinks{&g, &io};
//   st::pipeline::fold_cases(log.cases(), sinks, &pool);
//   use(g.take_graph(), io.finalize());
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dfg/dfg.hpp"
#include "dfg/edge_stats.hpp"
#include "dfg/stats.hpp"
#include "model/activity_log.hpp"
#include "model/case_stats.hpp"
#include "model/event_log.hpp"
#include "model/mapped_case.hpp"
#include "model/mapping.hpp"
#include "strace/reader.hpp"
#include "support/run_policy.hpp"

namespace st {
class ThreadPool;
}  // namespace st

namespace st::pipeline {

/// Error policy lives in the inherited RunPolicy (support/
/// run_policy.hpp). keep_going == false (default): fail fast — the
/// first data problem (unopenable file, bad file name, parse/convert
/// failure) aborts the run with a typed error and no sink sees a
/// merge. true: data-shaped failures (IoError/ParseError) quarantine
/// the offending FILE with a structured warning ("<path>: skipped:
/// ..." before conversion, "<path>: case quarantined: ..." after) and
/// the run completes over the surviving inputs; LogicError and
/// foreign exceptions still abort either way.
struct StreamOptions : RunPolicy {
  /// Lower bound per parse chunk (strace::ParallelReadOptions). It
  /// changes how a file splits across the pool, never an output byte.
  std::size_t min_chunk_bytes = 1 << 20;
};

/// What a run ingested, dropped and complained about — the report's
/// "Data health" section. Counters travel through shard partials and
/// sum; warnings_by_class is recomputed from the (deterministic)
/// warning list, so sharded and streamed runs agree byte for byte.
struct DataHealth {
  std::uint64_t files_requested = 0;
  std::uint64_t files_ingested = 0;
  std::uint64_t files_skipped = 0;      ///< unopenable/unparseable, keep_going only
  std::uint64_t cases_quarantined = 0;  ///< converted/folded cases dropped, keep_going only
  std::map<std::string, std::uint64_t> warnings_by_class;

  /// Tallies warnings_by_class over a warning list (additive).
  void classify(std::span<const std::string> warnings);
  /// Sums the counters only — classify() the merged warning list
  /// separately so the classes match the streamed run exactly.
  void merge_counters(const DataHealth& other);

  bool operator==(const DataHealth&) const = default;
};

/// Stable warning taxonomy for DataHealth::warnings_by_class.
[[nodiscard]] std::string_view classify_warning(std::string_view warning);

/// One sink's per-conversion-task accumulator. Sinks define their own
/// derived type and downcast in fold()/absorb()/merge().
class SinkPartial {
 public:
  virtual ~SinkPartial() = default;
};

/// What fold() sees of one converted case, beyond the case itself: the
/// owners of its string storage, and the case as activity ids. `arena`
/// holds the case's interned cid/host, `buffer` the parsed trace bytes
/// its call/fp views point into (null for cases that did not come from
/// a parsed buffer). Copy the shared_ptrs into the partial if the
/// sink's output outlives the run with views intact. `mapped` is the
/// case under the sink's mapping(), its ids drawn from `activities`,
/// the task's dictionary for that mapping; both are null for a sink
/// whose mapping() is.
struct CaseContext {
  const model::Case& c;
  const std::shared_ptr<strace::StringArena>& arena;
  const std::shared_ptr<strace::TraceBuffer>& buffer;
  const model::MappedCase* mapped = nullptr;
  const model::ActivityDict* activities = nullptr;
};

class CaseSink {
 public:
  virtual ~CaseSink() = default;

  /// The mapping f whose activity ids fold() reads from the context;
  /// null (the default) for a sink that reads only the events. Sinks
  /// returning the same Mapping share one mapping pass per case. The
  /// mapping must outlive the run.
  [[nodiscard]] virtual const model::Mapping* mapping() const { return nullptr; }

  [[nodiscard]] virtual std::unique_ptr<SinkPartial> make_partial() const = 0;

  /// Folds one case into `p`. Runs on a pool thread; must touch no
  /// sink state outside `p`.
  virtual void fold(SinkPartial& p, const CaseContext& ctx) const = 0;

  /// Finishes `p` after its task's last fold, on the same thread, while
  /// `activities` (the task's dictionary for mapping(); null when it
  /// is null) is still alive: the last point ids can be named. Default:
  /// nothing.
  virtual void seal(SinkPartial& /*p*/, const model::ActivityDict* /*activities*/) const {}

  /// Folds a task's partial `p` into the run-local accumulator `acc`
  /// (a make_partial() of this sink). Strictly in input order, never
  /// concurrently with another absorb of the same run, on whichever
  /// thread holds the merge cursor.
  virtual void absorb(SinkPartial& acc, std::unique_ptr<SinkPartial> p) const = 0;

  /// Folds the run's accumulator into the sink's output: once per
  /// successful run, on the thread that called run() or fold_cases,
  /// after every task finished. Never on a failing run.
  virtual void merge(std::unique_ptr<SinkPartial> acc) = 0;
};

/// Drives one streamed parse -> convert pass over `paths` and folds
/// every completed Case into every sink, all on `pool`: the calling
/// thread opens file i and submits its parse before opening file i+1;
/// a file converts and folds on the pool thread that finished its last
/// parse chunk, so with one worker file i folds right after file i
/// parses, before file i+1 starts; the merge cursor then assembles the
/// log and absorbs the partials of every settled prefix file as it
/// goes. Returns the assembled EventLog — byte-identical to the
/// staged per-file build (case, event and warning order), with
/// per-task arenas and TraceBuffers adopted before it escapes. File
/// names must follow cid_host_rid.st (ParseError for the first
/// offender, checked before any I/O); on any failure every task is
/// awaited, the lowest-input-index error is rethrown and no sink sees
/// a merge — except that an unopenable file, found while earlier files
/// parse, is the error whatever failed before it. Under
/// opts.keep_going data failures quarantine their file instead (see
/// StreamOptions). `health`, when non-null, receives the run's
/// DataHealth either way.
[[nodiscard]] model::EventLog run(const std::vector<std::string>& paths, ThreadPool& pool,
                                  std::span<CaseSink* const> sinks,
                                  const StreamOptions& opts = {}, DataHealth* health = nullptr);

/// Brace-list convenience: run(paths, pool, {&graph, &stats}).
[[nodiscard]] model::EventLog run(const std::vector<std::string>& paths, ThreadPool& pool,
                                  std::initializer_list<CaseSink*> sinks,
                                  const StreamOptions& opts = {}, DataHealth* health = nullptr);

/// Folds cases already in memory into every sink: contiguous chunks on
/// `pool` (one chunk inline when it is null), one partial and one
/// activity dictionary per mapping per chunk, absorbed in chunk order
/// on the calling thread and merged once — the output is the staged
/// computation's at any worker count. fold() sees a null arena and buffer: the cases' owner
/// keeps their storage alive. run()'s
/// error contract: every chunk is awaited, the lowest chunk's error is
/// rethrown and no sink sees a merge. Not callable from a task on `pool`.
void fold_cases(std::span<const model::Case> cases, std::span<CaseSink* const> sinks,
                ThreadPool* pool);

// ---- the analytics, re-expressed as sinks ------------------------------

/// Per-case DFG construction: node and edge counts by activity id per
/// task, named once per partial and merged through the Dfg monoid; the
/// result equals dfg::build_serial on the returned log. `f` must
/// outlive the run.
class DfgSink final : public CaseSink {
 public:
  explicit DfgSink(const model::Mapping& f) : f_(&f) {}

  [[nodiscard]] const model::Mapping* mapping() const override { return f_; }
  [[nodiscard]] std::unique_ptr<SinkPartial> make_partial() const override;
  void fold(SinkPartial& p, const CaseContext& ctx) const override;
  void seal(SinkPartial& p, const model::ActivityDict* activities) const override;
  void absorb(SinkPartial& acc, std::unique_ptr<SinkPartial> p) const override;
  void merge(std::unique_ptr<SinkPartial> acc) override;

  [[nodiscard]] const dfg::Dfg& graph() const { return graph_; }
  [[nodiscard]] dfg::Dfg take_graph() { return std::move(graph_); }

 private:
  const model::Mapping* f_;
  dfg::Dfg graph_;
};

/// Per-case summaries (model/case_stats.hpp) in case order —
/// byte-identical to summarize_cases on the returned log.
class CaseStatsSink final : public CaseSink {
 public:
  [[nodiscard]] std::unique_ptr<SinkPartial> make_partial() const override;
  void fold(SinkPartial& p, const CaseContext& ctx) const override;
  void absorb(SinkPartial& acc, std::unique_ptr<SinkPartial> p) const override;
  void merge(std::unique_ptr<SinkPartial> acc) override;

  [[nodiscard]] const std::vector<model::CaseSummary>& summaries() const {
    return acc_.summaries;
  }
  [[nodiscard]] std::vector<model::CaseSummary> take_summaries() {
    return std::move(acc_.summaries);
  }

 private:
  model::CaseSummaries acc_;
};

/// Just the variant multiset — byte-identical to
/// ActivityLog::build(log, f).variants(), without carrying per-case
/// traces when only the multiplicities matter. `f` must outlive the run.
class VariantsSink final : public CaseSink {
 public:
  explicit VariantsSink(const model::Mapping& f) : f_(&f) {}

  [[nodiscard]] const model::Mapping* mapping() const override { return f_; }
  [[nodiscard]] std::unique_ptr<SinkPartial> make_partial() const override;
  void fold(SinkPartial& p, const CaseContext& ctx) const override;
  void seal(SinkPartial& p, const model::ActivityDict* activities) const override;
  void absorb(SinkPartial& acc, std::unique_ptr<SinkPartial> p) const override;
  void merge(std::unique_ptr<SinkPartial> acc) override;

  [[nodiscard]] const model::VariantCounts& variants() const { return variants_; }
  [[nodiscard]] model::VariantCounts take_variants() { return std::move(variants_); }

 private:
  const model::Mapping* f_;
  model::VariantCounts variants_;
};

/// Activity statistics (Load / bytes / DR / max-concurrency / ranks)
/// as a sink: fold() gathers one case's contributions by activity id
/// and names them into an IoStatistics::CaseContribution, absorb() and
/// merge() CONCATENATE them in input order (no FP arithmetic, so worker
/// count cannot change bits), and finalize() runs the fixed-shape
/// pairwise double-sum tree — bit-identical to IoStatistics::compute on the
/// returned log, asserted with exact double equality by
/// test_stats_sinks. `f` must outlive the run.
class IoStatsSink final : public CaseSink {
 public:
  explicit IoStatsSink(const model::Mapping& f) : f_(&f) {}

  [[nodiscard]] const model::Mapping* mapping() const override { return f_; }
  [[nodiscard]] std::unique_ptr<SinkPartial> make_partial() const override;
  void fold(SinkPartial& p, const CaseContext& ctx) const override;
  void seal(SinkPartial& p, const model::ActivityDict* activities) const override;
  void absorb(SinkPartial& acc, std::unique_ptr<SinkPartial> p) const override;
  void merge(std::unique_ptr<SinkPartial> acc) override;

  /// The merged (un-finalized) partial — what a shard worker encodes,
  /// and what timeline() renders from.
  [[nodiscard]] const dfg::IoStatistics::Partial& partial() const { return partial_; }
  [[nodiscard]] dfg::IoStatistics::Partial take_partial() { return std::move(partial_); }

  /// Runs the deterministic summation tree over the folded cases,
  /// activities as tasks on `pool` when it is non-null.
  [[nodiscard]] dfg::IoStatistics finalize(ThreadPool* pool = nullptr) const {
    return partial_.finalize(pool);
  }

 private:
  const model::Mapping* f_;
  dfg::IoStatistics::Partial partial_;
};

/// Directly-follows gap statistics as a sink — all-integer partials,
/// bit-identical to EdgeStatistics::compute on the returned log at any
/// worker count. `f` must outlive the run.
class EdgeStatsSink final : public CaseSink {
 public:
  explicit EdgeStatsSink(const model::Mapping& f) : f_(&f) {}

  [[nodiscard]] const model::Mapping* mapping() const override { return f_; }
  [[nodiscard]] std::unique_ptr<SinkPartial> make_partial() const override;
  void fold(SinkPartial& p, const CaseContext& ctx) const override;
  void seal(SinkPartial& p, const model::ActivityDict* activities) const override;
  void absorb(SinkPartial& acc, std::unique_ptr<SinkPartial> p) const override;
  void merge(std::unique_ptr<SinkPartial> acc) override;

  [[nodiscard]] const dfg::EdgeStatistics::Partial& partial() const { return partial_; }
  [[nodiscard]] dfg::EdgeStatistics::Partial take_partial() { return std::move(partial_); }
  [[nodiscard]] dfg::EdgeStatistics finalize() const { return partial_.finalize(); }

 private:
  const model::Mapping* f_;
  dfg::EdgeStatistics::Partial partial_;
};

}  // namespace st::pipeline
