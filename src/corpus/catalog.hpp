// corpus::Catalog — the resident, immutable corpus behind serve mode.
//
// ROADMAP's "production-scale analysis system" needs the batch tools'
// primitives re-packaged for heavy concurrent READ traffic: load the
// corpus once (elog v2 containers open by mmap with zero reparse;
// trace files stream through pipeline::run), hold it immutably behind
// shared_ptr ownership, and memoize every derived artifact the serve
// verbs read — query-filtered logs, DFGs, I/O statistics, case
// summaries, full HTML reports — in a thread-safe LRU cache.
//
// The cache key IS the wire format: artifacts are keyed by the
// canonical Query::describe() fingerprint (plus the artifact kind), so
// two requests that mean the same query — however they were spelled on
// the wire — hit the same entry, and a cache key printed in a log is a
// replayable request.
//
// Concurrency contract:
//   - every getter is safe to call from any number of threads;
//   - a given (kind, query) is computed ONCE even under a stampede —
//     latecomers block on the winner's shared_future (single-flight);
//   - a computation that throws is NOT cached (the error propagates to
//     every waiter of that flight; the next request retries);
//   - artifacts are returned as shared_ptr<const T>: eviction never
//     invalidates a handle a caller still holds.
//
// Determinism contract: every artifact is byte-identical to the
// offline CLI path over the same inputs — filtered logs use the same
// serial Query::apply, reports the same query_report below that
// trace_explorer --render report calls, so CI can cmp served bytes
// against the batch tool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfg/dfg.hpp"
#include "dfg/stats.hpp"
#include "elog/v2_select.hpp"
#include "model/case_stats.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"
#include "model/query.hpp"
#include "parallel/thread_pool.hpp"
#include "report/report.hpp"
#include "support/run_policy.hpp"

namespace st::corpus {

struct CatalogOptions {
  /// Activity mapping every DFG/statistics artifact uses (registry
  /// short name, model::mapping_by_name).
  std::string mapping = "top2";
  /// Maximum number of memoized artifacts (across all kinds); at least
  /// 1 is always kept. Least-recently-USED entries evict first.
  std::size_t cache_capacity = 64;
  /// Load-time error policy (support/run_policy.hpp): keep_going
  /// quarantines unreadable inputs with a warning instead of failing
  /// the load.
  RunPolicy policy;
};

/// Cache observability — returned by Catalog::cache_stats() and
/// reported by the serve `stat` verb and bench_serve's hit-rate.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      ///< flights started (stampede = 1 miss)
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// A loaded corpus: the base log, its v2-backed slices for the indexed
/// query planner, and every warning the load produced.
struct LoadedCorpus {
  model::EventLog log;
  /// Cleanly-read v2 containers, as (sorted, non-overlapping) slices
  /// of `log`. Empty = queries always scan.
  std::vector<elog::IndexedSegment> segments;
  /// Trace ingestion warnings ("<path>: line N: ..."), then per
  /// container in input order "<path>: <quarantine warning>" and, under
  /// keep_going, "<path>: skipped: <error>". Collected here because
  /// EventLog::merge drops every input log's own warnings.
  std::vector<std::string> warnings;
};

/// The one loader behind Catalog::load and trace_explorer's positional
/// inputs: .elog containers and cid_host_rid.st trace files mix
/// freely. Traces stream through pipeline::run on `pool`, then each
/// container's cases decode on `pool` and move (no event is copied)
/// into the log, containers in input order. `policy.keep_going` quarantines
/// CRC-failing container cases and skips unreadable containers with a
/// warning.
[[nodiscard]] LoadedCorpus load_corpus(const std::vector<std::string>& inputs, ThreadPool& pool,
                                       const RunPolicy& policy);

/// The ReportOptions of a query-driven report — ONE place, so the
/// serve path and trace_explorer's offline --render report produce
/// byte-identical HTML by construction.
[[nodiscard]] report::ReportOptions query_report_options(const model::Query& q,
                                                         const model::Mapping& f);

/// The HTML report of a query's filtered `view`: the report's sinks
/// folded over its cases (report::report_data on `pool`, inline when
/// null), a StatisticsColoring of the statistics, render_report with
/// query_report_options — the one definition behind the served
/// `report` verb and trace_explorer's --render report. The bytes do not
/// depend on the pool. Catalog misses pass none: under serve_forever a
/// miss already runs on a pool worker, and a fold that waited on its
/// own pool could starve it.
[[nodiscard]] std::string query_report(const model::EventLog& view, const model::Query& q,
                                       const model::Mapping& f, ThreadPool* pool = nullptr);

class Catalog {
 public:
  explicit Catalog(CatalogOptions opts = {});
  ~Catalog();                         // out-of-line: Cache is incomplete here
  Catalog(Catalog&&) noexcept;        // movable (hand a catalog to the server)
  Catalog& operator=(Catalog&&) noexcept;

  /// Loads the corpus through load_corpus, so the base log is
  /// byte-identical to trace_explorer's over the same inputs. Call
  /// once, before serving; the catalog is immutable afterwards.
  void load(const std::vector<std::string>& inputs, ThreadPool& pool);

  /// The unfiltered corpus (shared, immutable).
  [[nodiscard]] std::shared_ptr<const model::EventLog> base() const { return base_; }
  /// Warnings collected during load (keep_going quarantines).
  [[nodiscard]] const std::vector<std::string>& load_warnings() const { return load_warnings_; }
  [[nodiscard]] const model::Mapping& mapping() const { return mapping_; }

  // -- memoized derived artifacts ------------------------------------
  // All single-flight, LRU-cached under the canonical describe() key.

  /// The query-filtered view of the corpus. Cases backed by cleanly-
  /// loaded v2 containers are selected through the indexed planner
  /// (elog/v2_select.hpp) — byte-identical to Query::apply by contract,
  /// so cache keys, wire bytes and the offline path are unchanged; the
  /// other cases go through Query::apply_case.
  [[nodiscard]] std::shared_ptr<const model::EventLog> filtered(const model::Query& q);
  /// DFG of the filtered view under the catalog mapping.
  [[nodiscard]] std::shared_ptr<const dfg::Dfg> graph(const model::Query& q);
  /// Activity/I-O statistics of the filtered view.
  [[nodiscard]] std::shared_ptr<const dfg::IoStatistics> io_stats(const model::Query& q);
  /// Per-case summary rows of the filtered view.
  [[nodiscard]] std::shared_ptr<const std::vector<model::CaseSummary>> summaries(
      const model::Query& q);
  /// The full self-contained HTML report of the filtered view —
  /// byte-identical to `trace_explorer --query <q> --render report`.
  [[nodiscard]] std::shared_ptr<const std::string> report_html(const model::Query& q);

  [[nodiscard]] CacheStats cache_stats() const;

 private:
  /// Looks up `key`, or runs `compute` exactly once (single-flight)
  /// and caches the result. Returns the cached shared artifact.
  std::shared_ptr<const void> memoized(const std::string& key,
                                       std::shared_ptr<const void> (Catalog::*compute)(
                                           const model::Query&),
                                       const model::Query& q);

  template <typename T>
  std::shared_ptr<const T> artifact(const char* kind,
                                    std::shared_ptr<const void> (Catalog::*compute)(
                                        const model::Query&),
                                    const model::Query& q) {
    return std::static_pointer_cast<const T>(memoized(std::string(kind) + '|' + q.describe(),
                                                      compute, q));
  }

  std::shared_ptr<const void> compute_filtered(const model::Query& q);
  std::shared_ptr<const void> compute_graph(const model::Query& q);
  std::shared_ptr<const void> compute_io_stats(const model::Query& q);
  std::shared_ptr<const void> compute_summaries(const model::Query& q);
  std::shared_ptr<const void> compute_report(const model::Query& q);

  CatalogOptions opts_;
  model::Mapping mapping_;
  std::shared_ptr<const model::EventLog> base_;
  /// v2-backed slices of base_ (sorted, non-overlapping), recorded by
  /// load() for the indexed query path. Empty = always scan.
  std::vector<elog::IndexedSegment> segments_;
  std::vector<std::string> load_warnings_;

  struct Cache;                   // mutex + LRU list + map (catalog.cpp)
  std::unique_ptr<Cache> cache_;  // pointer so the header stays light
};

}  // namespace st::corpus
