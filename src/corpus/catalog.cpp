#include "corpus/catalog.hpp"

#include <array>
#include <future>
#include <mutex>
#include <utility>

#include "dfg/coloring.hpp"
#include "elog/store.hpp"
#include "pipeline/sink.hpp"
#include "support/errors.hpp"

namespace st::corpus {

LoadedCorpus load_corpus(const std::vector<std::string>& inputs, ThreadPool& pool,
                         const RunPolicy& policy) {
  std::vector<std::string> elogs;
  std::vector<std::string> traces;
  for (const auto& p : inputs) {
    (p.ends_with(".elog") ? elogs : traces).push_back(p);
  }
  LoadedCorpus out;
  if (!traces.empty()) {
    pipeline::StreamOptions stream_opts;
    static_cast<RunPolicy&>(stream_opts) = policy;
    out.log = pipeline::run(traces, pool, {}, stream_opts);
  }
  out.warnings = out.log.warnings();
  for (const auto& p : elogs) {
    try {
      auto part = elog::read_event_log_file_indexed(p, elog::ElogReadOptions{policy}, &pool);
      for (const auto& w : part.log.warnings()) out.warnings.push_back(p + ": " + w);
      if (part.mapped) {
        // A cleanly-read v2 container: its cases land contiguously at
        // the current tail of the merged log, so record the slice for
        // the indexed query planner.
        out.segments.push_back(elog::IndexedSegment{out.log.case_count(),
                                                    part.log.case_count(),
                                                    std::move(part.mapped)});
      }
      out.log = model::EventLog::merge(std::move(out.log), std::move(part.log));
    } catch (const IoError& e) {
      if (!policy.keep_going) throw;
      out.warnings.push_back(p + ": skipped: " + e.what());
    }
  }
  return out;
}

report::ReportOptions query_report_options(const model::Query& q, const model::Mapping& f) {
  report::ReportOptions opts;
  opts.title = "trace_explorer report";
  opts.description = "query: " + q.describe() + ", mapping: " + f.name();
  return opts;
}

std::string query_report(const model::EventLog& view, const model::Query& q,
                         const model::Mapping& f, ThreadPool* pool) {
  const auto opts = query_report_options(q, f);
  const auto data = report::report_data(view, f, opts, pool);
  const dfg::StatisticsColoring styler(data.stats);
  return report::render_report(data, f, &styler, opts);
}

/// The LRU memo table. One mutex guards everything; computations run
/// OUTSIDE the lock (the map holds shared_futures, so latecomers to an
/// in-flight key block on the winner without holding the mutex).
struct Catalog::Cache {
  struct Slot {
    std::shared_future<std::shared_ptr<const void>> future;
    std::list<std::string>::iterator pos;  ///< position in `lru`
    std::uint64_t id = 0;                  ///< flight identity (safe erase)
  };

  std::mutex mu;
  std::list<std::string> lru;  ///< front = most recently used
  std::unordered_map<std::string, Slot> map;
  CacheStats stats;
  std::uint64_t next_id = 0;
};

Catalog::Catalog(CatalogOptions opts) : opts_(std::move(opts)), cache_(new Cache) {
  if (opts_.cache_capacity == 0) opts_.cache_capacity = 1;
  mapping_ = model::mapping_by_name(opts_.mapping);
}

Catalog::~Catalog() = default;
Catalog::Catalog(Catalog&&) noexcept = default;
Catalog& Catalog::operator=(Catalog&&) noexcept = default;

void Catalog::load(const std::vector<std::string>& inputs, ThreadPool& pool) {
  if (base_) throw LogicError("Catalog::load: already loaded (the catalog is immutable)");
  auto loaded = load_corpus(inputs, pool, opts_.policy);
  segments_ = std::move(loaded.segments);
  load_warnings_ = std::move(loaded.warnings);
  base_ = std::make_shared<const model::EventLog>(std::move(loaded.log));
}

std::shared_ptr<const model::EventLog> Catalog::filtered(const model::Query& q) {
  return artifact<model::EventLog>("filtered", &Catalog::compute_filtered, q);
}

std::shared_ptr<const dfg::Dfg> Catalog::graph(const model::Query& q) {
  return artifact<dfg::Dfg>("graph", &Catalog::compute_graph, q);
}

std::shared_ptr<const dfg::IoStatistics> Catalog::io_stats(const model::Query& q) {
  return artifact<dfg::IoStatistics>("iostats", &Catalog::compute_io_stats, q);
}

std::shared_ptr<const std::vector<model::CaseSummary>> Catalog::summaries(const model::Query& q) {
  return artifact<std::vector<model::CaseSummary>>("summaries", &Catalog::compute_summaries, q);
}

std::shared_ptr<const std::string> Catalog::report_html(const model::Query& q) {
  return artifact<std::string>("report", &Catalog::compute_report, q);
}

CacheStats Catalog::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  CacheStats s = cache_->stats;
  s.entries = cache_->map.size();
  return s;
}

std::shared_ptr<const void> Catalog::memoized(const std::string& key,
                                              std::shared_ptr<const void> (Catalog::*compute)(
                                                  const model::Query&),
                                              const model::Query& q) {
  std::promise<std::shared_ptr<const void>> flight;
  std::shared_future<std::shared_ptr<const void>> result;
  std::uint64_t flight_id = 0;
  bool winner = false;
  {
    std::lock_guard<std::mutex> lock(cache_->mu);
    if (auto it = cache_->map.find(key); it != cache_->map.end()) {
      ++cache_->stats.hits;
      cache_->lru.splice(cache_->lru.begin(), cache_->lru, it->second.pos);
      result = it->second.future;
    } else {
      ++cache_->stats.misses;
      winner = true;
      flight_id = ++cache_->next_id;
      result = flight.get_future().share();
      cache_->lru.push_front(key);
      cache_->map.emplace(key, Cache::Slot{result, cache_->lru.begin(), flight_id});
    }
  }
  if (winner) {
    try {
      flight.set_value((this->*compute)(q));
      std::lock_guard<std::mutex> lock(cache_->mu);
      while (cache_->map.size() > opts_.cache_capacity) {
        // The just-inserted key sits at the LRU front, so with
        // capacity >= 1 it is never its own victim. An in-flight
        // victim only loses its cache slot — waiters hold future
        // copies, and its winner's set_value still reaches them.
        cache_->map.erase(cache_->lru.back());
        cache_->lru.pop_back();
        ++cache_->stats.evictions;
      }
    } catch (...) {
      // Failures are not cached: drop the slot (if it is still ours)
      // so the next request retries, then wake every waiter with the
      // error.
      {
        std::lock_guard<std::mutex> lock(cache_->mu);
        if (auto it = cache_->map.find(key);
            it != cache_->map.end() && it->second.id == flight_id) {
          cache_->lru.erase(it->second.pos);
          cache_->map.erase(it);
        }
      }
      flight.set_exception(std::current_exception());
    }
  }
  return result.get();  // rethrows the flight's exception for everyone
}

std::shared_ptr<const void> Catalog::compute_filtered(const model::Query& q) {
  if (!base_) throw LogicError("Catalog: load() the corpus before querying it");
  // Byte-identical to q.apply(*base_) by the v2_select contract (the
  // equivalence tests and the CI serve cmp hold it there), so the cache
  // key and every derived artifact are unchanged.
  return std::make_shared<const model::EventLog>(
      elog::apply_query_indexed(q, *base_, segments_));
}

// Misses fold inline (a null pool): they already run on a pool worker.

std::shared_ptr<const void> Catalog::compute_graph(const model::Query& q) {
  pipeline::DfgSink graph(mapping_);
  const std::array<pipeline::CaseSink*, 1> sinks{&graph};
  pipeline::fold_cases(filtered(q)->cases(), sinks, nullptr);
  return std::make_shared<const dfg::Dfg>(graph.take_graph());
}

std::shared_ptr<const void> Catalog::compute_io_stats(const model::Query& q) {
  pipeline::IoStatsSink io(mapping_);
  const std::array<pipeline::CaseSink*, 1> sinks{&io};
  pipeline::fold_cases(filtered(q)->cases(), sinks, nullptr);
  return std::make_shared<const dfg::IoStatistics>(io.finalize());
}

std::shared_ptr<const void> Catalog::compute_summaries(const model::Query& q) {
  return std::make_shared<const std::vector<model::CaseSummary>>(
      model::summarize_cases(*filtered(q)));
}

std::shared_ptr<const void> Catalog::compute_report(const model::Query& q) {
  return std::make_shared<const std::string>(query_report(*filtered(q), q, mapping_));
}

}  // namespace st::corpus
