#include "corpus/catalog.hpp"

#include <array>
#include <future>
#include <mutex>
#include <sstream>
#include <utility>

#include "dfg/coloring.hpp"
#include "elog/v2_fold.hpp"
#include "elog/v2_store.hpp"
#include "model/event_log.hpp"
#include "pipeline/sink.hpp"
#include "strace/trace_buffer.hpp"
#include "support/errors.hpp"

namespace st::corpus {

OpenedCorpus open_corpus(const std::vector<std::string>& inputs, ThreadPool& pool,
                         const RunPolicy& policy,
                         std::span<const model::Mapping* const> mappings) {
  std::vector<std::string> traces;
  std::vector<std::string> elogs;
  for (const auto& p : inputs) (p.ends_with(".elog") ? elogs : traces).push_back(p);
  OpenedCorpus out;
  model::CaseIdSet ids;
  const auto add = [&](std::unique_ptr<elog::ContainerCases> container) {
    for (std::size_t k = 0; k < container->case_count(); ++k) ids.add(container->case_id(k));
    out.sources.push_back(container.get());
    out.containers.push_back(std::move(container));
  };
  if (!traces.empty()) {
    // The trace files as `elog_tool import` writes them, in memory.
    std::ostringstream bytes(std::ios::binary);
    elog::ElogV2Writer writer(bytes);
    elog::ElogV2WriterSink sink(writer);
    const std::array<pipeline::CaseSink*, 1> sinks{&sink};
    pipeline::StreamOptions stream_opts;
    static_cast<RunPolicy&>(stream_opts) = policy;
    out.warnings = pipeline::ingest(traces, pool, sinks, stream_opts).warnings;
    writer.finalize();
    auto mapped = elog::MappedElog::from_buffer(
        std::make_shared<strace::TraceBuffer>(std::move(bytes).str()));
    add(std::make_unique<elog::ContainerCases>(std::move(mapped), mappings, policy, &pool));
  }
  for (const auto& p : elogs) {
    std::unique_ptr<elog::ContainerCases> container;
    try {
      container = std::make_unique<elog::ContainerCases>(elog::open_v2(p), mappings, policy, &pool);
    } catch (const IoError& e) {
      if (!policy.keep_going) throw;
      out.warnings.push_back(p + ": skipped: " + e.what());
      continue;
    }
    for (const auto& w : container->warnings()) out.warnings.push_back(p + ": " + w);
    add(std::move(container));
  }
  return out;
}

CorpusSelection select(const OpenedCorpus& corpus, const model::Query& q) {
  CorpusSelection out;
  for (const auto& container : corpus.containers) {
    auto selected = std::make_unique<elog::ContainerCases::Selected>(container->select(q));
    out.case_count += selected->case_count();
    out.total_events += selected->total_events();
    out.sources.push_back(selected.get());
    out.owned.push_back(std::move(selected));
  }
  return out;
}

report::ReportOptions query_report_options(const model::Query& q, const model::Mapping& f) {
  report::ReportOptions opts;
  opts.title = "trace_explorer report";
  opts.description = "query: " + q.describe() + ", mapping: " + f.name();
  return opts;
}

std::string query_report(std::span<const pipeline::CaseSource* const> view,
                         const model::Query& q, const model::Mapping& f, ThreadPool* pool) {
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

Catalog::Catalog(CatalogOptions opts)
    : opts_(std::move(opts)),
      mapping_(std::make_unique<const model::Mapping>(model::mapping_by_name(opts_.mapping))),
      cache_(new Cache) {
  if (opts_.cache_capacity == 0) opts_.cache_capacity = 1;
}

Catalog::~Catalog() = default;
Catalog::Catalog(Catalog&&) noexcept = default;
Catalog& Catalog::operator=(Catalog&&) noexcept = default;

void Catalog::load(const std::vector<std::string>& inputs, ThreadPool& pool) {
  if (corpus_) throw LogicError("Catalog::load: already loaded (the catalog is immutable)");
  const std::array<const model::Mapping*, 1> mappings{mapping_.get()};
  corpus_ = std::make_unique<const OpenedCorpus>(
      open_corpus(inputs, pool, opts_.policy, mappings));
  for (const auto& container : corpus_->containers) {
    cases_ += container->case_count();
    events_ += container->total_events();
  }
}

const std::vector<std::string>& Catalog::load_warnings() const {
  static const std::vector<std::string> kNone;
  return corpus_ ? corpus_->warnings : kNone;
}

std::shared_ptr<const CorpusSelection> Catalog::filtered(const model::Query& q) {
  return artifact<CorpusSelection>("filtered", &Catalog::compute_filtered, q);
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
  if (!corpus_) throw LogicError("Catalog: load() the corpus before querying it");
  return std::make_shared<const CorpusSelection>(select(*corpus_, q));
}

void Catalog::fold_view(const model::Query& q, pipeline::CaseSink& sink) {
  const auto view = filtered(q);
  const std::array<pipeline::CaseSink*, 1> sinks{&sink};
  pipeline::fold_cases(view->sources, sinks, nullptr);
}

std::shared_ptr<const void> Catalog::compute_graph(const model::Query& q) {
  pipeline::DfgSink graph(*mapping_);
  fold_view(q, graph);
  return std::make_shared<const dfg::Dfg>(graph.take_graph());
}

std::shared_ptr<const void> Catalog::compute_io_stats(const model::Query& q) {
  pipeline::IoStatsSink io(*mapping_);
  fold_view(q, io);
  return std::make_shared<const dfg::IoStatistics>(io.finalize());
}

std::shared_ptr<const void> Catalog::compute_summaries(const model::Query& q) {
  pipeline::CaseStatsSink cases;
  fold_view(q, cases);
  return std::make_shared<const std::vector<model::CaseSummary>>(cases.take_summaries());
}

std::shared_ptr<const void> Catalog::compute_report(const model::Query& q) {
  const auto view = filtered(q);
  return std::make_shared<const std::string>(query_report(view->sources, q, *mapping_));
}

}  // namespace st::corpus
