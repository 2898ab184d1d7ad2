// corpus::Catalog — the resident, immutable corpus behind serve mode.
//
// The corpus is opened once (open_corpus: elog v2 containers by mmap,
// trace files imported in memory, all folded in column space) and held
// immutably. Every artifact the serve verbs read is memoized in a
// thread-safe LRU cache: a query's selection — which cases it keeps,
// and whether all, none or some of their rows — and, folded from it,
// DFGs, I/O statistics, case summaries and full HTML reports. No
// artifact is a copy of the corpus's events: a fold decodes the
// selected rows one case at a time.
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
//     invalidates a handle a caller still holds, while the catalog
//     lives.
//
// Determinism contract: every artifact is byte-identical to the
// offline CLI path over the same inputs — trace_explorer --query
// selects and folds through the same select and query_report below,
// so CI can cmp served bytes against the batch tool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfg/dfg.hpp"
#include "dfg/stats.hpp"
#include "elog/v2_fold.hpp"
#include "model/case_stats.hpp"
#include "model/mapping.hpp"
#include "model/query.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
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

/// The inputs — .elog containers and cid_host_rid.st trace files, mixed
/// freely — opened on `pool` as containers folded in column space
/// (elog::ContainerCases, one read-only dictionary per kCallFp mapping
/// of `mappings`): the trace files first, ingested once
/// (pipeline::ingest) into one in-memory container as `elog_tool
/// import` writes it, then each .elog in input order.
/// `policy.keep_going` quarantines unreadable trace files, CRC-failing
/// container cases and unreadable containers with a warning. A case id
/// met twice anywhere in the union is EventLog::merge's LogicError,
/// under keep_going too.
struct OpenedCorpus {
  std::vector<std::unique_ptr<elog::ContainerCases>> containers;  ///< in input order
  /// containers, as fold_cases takes them.
  std::vector<const pipeline::CaseSource*> sources;
  /// Trace ingestion warnings ("<path>: line N: ..."), then per
  /// container in input order "<path>: <quarantine warning>" and, under
  /// keep_going, "<path>: skipped: <error>".
  std::vector<std::string> warnings;
};
[[nodiscard]] OpenedCorpus open_corpus(const std::vector<std::string>& inputs, ThreadPool& pool,
                                       const RunPolicy& policy,
                                       std::span<const model::Mapping* const> mappings);

/// What a query keeps of an OpenedCorpus: each container through
/// ContainerCases::select, in the corpus's order. Their cases are
/// q.apply's over the corpus materialized as one log. Valid while the
/// corpus lives.
struct CorpusSelection {
  std::vector<std::unique_ptr<elog::ContainerCases::Selected>> owned;
  std::vector<const pipeline::CaseSource*> sources;  ///< `owned`, for fold_cases
  std::size_t case_count = 0;
  std::uint64_t total_events = 0;
};
[[nodiscard]] CorpusSelection select(const OpenedCorpus& corpus, const model::Query& q);

/// The ReportOptions of a query-driven report — ONE place, so the
/// serve path and trace_explorer's offline --render report produce
/// byte-identical HTML by construction.
[[nodiscard]] report::ReportOptions query_report_options(const model::Query& q,
                                                         const model::Mapping& f);

/// The HTML report of a query's view: the report's sinks folded over
/// its cases (report::report_data on `pool`, inline when null), a
/// StatisticsColoring of the statistics, render_report with
/// query_report_options — the one definition behind the served `report`
/// verb and trace_explorer's --render report. The bytes do not depend
/// on the pool nor on the kind of source. Catalog misses pass none:
/// under serve_forever a miss already runs on a pool worker, and a fold
/// that waited on its own pool could starve it.
[[nodiscard]] std::string query_report(std::span<const pipeline::CaseSource* const> view,
                                       const model::Query& q, const model::Mapping& f,
                                       ThreadPool* pool = nullptr);

class Catalog {
 public:
  explicit Catalog(CatalogOptions opts = {});
  ~Catalog();                         // out-of-line: Cache is incomplete here
  Catalog(Catalog&&) noexcept;        // movable (hand a catalog to the server)
  Catalog& operator=(Catalog&&) noexcept;

  /// Opens the corpus through open_corpus with the catalog mapping, so
  /// every artifact is trace_explorer's over the same inputs. Call
  /// once, before serving; the catalog is immutable afterwards.
  void load(const std::vector<std::string>& inputs, ThreadPool& pool);

  /// Warnings collected during load (keep_going quarantines).
  [[nodiscard]] const std::vector<std::string>& load_warnings() const;
  [[nodiscard]] const model::Mapping& mapping() const { return *mapping_; }
  /// The corpus's cases and events (0 before load).
  [[nodiscard]] std::size_t case_count() const { return cases_; }
  [[nodiscard]] std::uint64_t total_events() const { return events_; }

  // -- memoized derived artifacts ------------------------------------
  // All single-flight, LRU-cached under the canonical describe() key.

  /// The query's view of the corpus (select over the opened corpus):
  /// per container, the kept cases and which of their rows survive.
  /// Every other artifact folds it.
  [[nodiscard]] std::shared_ptr<const CorpusSelection> filtered(const model::Query& q);
  /// DFG of the query's view under the catalog mapping.
  [[nodiscard]] std::shared_ptr<const dfg::Dfg> graph(const model::Query& q);
  /// Activity/I-O statistics of the query's view.
  [[nodiscard]] std::shared_ptr<const dfg::IoStatistics> io_stats(const model::Query& q);
  /// Per-case summary rows of the query's view.
  [[nodiscard]] std::shared_ptr<const std::vector<model::CaseSummary>> summaries(
      const model::Query& q);
  /// The full self-contained HTML report of the query's view —
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

  /// Folds the query's view into `sink` inline: misses run on a pool worker.
  void fold_view(const model::Query& q, pipeline::CaseSink& sink);

  std::shared_ptr<const void> compute_filtered(const model::Query& q);
  std::shared_ptr<const void> compute_graph(const model::Query& q);
  std::shared_ptr<const void> compute_io_stats(const model::Query& q);
  std::shared_ptr<const void> compute_summaries(const model::Query& q);
  std::shared_ptr<const void> compute_report(const model::Query& q);

  CatalogOptions opts_;
  /// Behind a pointer: the containers key their dictionaries by the
  /// mapping's address, which must survive a move of the catalog.
  std::unique_ptr<const model::Mapping> mapping_;
  /// Null until load(). Declared before cache_, so cached selections,
  /// which point into it, are destroyed first.
  std::unique_ptr<const OpenedCorpus> corpus_;
  std::size_t cases_ = 0;
  std::uint64_t events_ = 0;

  struct Cache;                   // mutex + LRU list + map (catalog.cpp)
  std::unique_ptr<Cache> cache_;  // pointer so the header stays light
};

}  // namespace st::corpus
