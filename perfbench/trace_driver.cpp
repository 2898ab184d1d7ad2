// pb_trace: the traced half of the end-to-end benchmark. For one
// workload it makes the public library calls the CLI (or the server)
// makes, in the same order, with a span around each call ("mirror"),
// then probes that split the work by layer over the same corpus: parse
// alone, the pipeline with no sink and with one sink at a time, layout
// and render, the shard codec and coordinator, container open / read /
// select, catalog misses and hits, and the request stream through
// handle_request. Every workload runs every probe, so each per-layer
// number is measured on each workload's own inputs. The mirror's output
// bytes are compared with the real CLI's (--expect-html), so the traced
// calls are known to do the work the timed process does.
//
//   pb_trace <workload> --work DIR --seconds S --spans out.json
//            --spans-elog out.elog --elog corpus.elog --requests F
//            --elog-tool PATH [--expect-html F] [--cache-entries K]
//            [--connections N]
//            trace files...
//
// Each iteration also runs the mirror once without spans, recording only
// its outer span as "untraced.cli.*", so the cost of tracing itself can
// be read off. Iterations repeat until --seconds have passed (at least
// one). Spans are held in memory and written once at the end, as JSON (name,
// start/end ns, parent, thread, iteration, plus counts) and as an elog
// v2 event log of the same spans: cid "bench", rid = thread, call =
// span name, fp = /perfbench/<workload>.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "corpus/catalog.hpp"
#include "corpus/serve.hpp"
#include "dfg/builder.hpp"
#include "dfg/coloring.hpp"
#include "dfg/layout.hpp"
#include "dfg/render_svg.hpp"
#include "elog/store.hpp"
#include "elog/v2_select.hpp"
#include "elog/v2_store.hpp"
#include "model/case_stats.hpp"
#include "model/mapping.hpp"
#include "model/query.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/partial_codec.hpp"
#include "pipeline/shard.hpp"
#include "pipeline/sink.hpp"
#include "report/report.hpp"
#include "strace/reader.hpp"
#include "support/cli.hpp"
#include "support/errors.hpp"
#include "requests.hpp"

namespace {

using namespace st;
using Clock = std::chrono::steady_clock;

// ---- spans -------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int thread = 0;
  int iteration = 0;
};

class Recorder {
 public:
  int open(std::string name, int parent, int thread) {
    const std::int64_t now = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(SpanRecord{std::move(name), now, now, parent, thread, iteration_.load()});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    const std::int64_t now = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count();
  }
  void set_iteration(int i) { iteration_.store(i); }
  [[nodiscard]] std::vector<SpanRecord> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  const Clock::time_point t0_ = Clock::now();
  std::atomic<int> iteration_{0};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Recorder g_recorder;
thread_local int t_thread = 0;
thread_local std::vector<int> t_stack;
/// False during the untraced pass of a mirror: then only its outer
/// "cli." span is recorded, renamed "untraced.cli.*".
bool g_tracing = true;

/// Scoped span: parent is the innermost open span of this thread.
class Span {
 public:
  explicit Span(std::string name) {
    if (!g_tracing) {
      if (!name.starts_with("cli.")) return;
      name = "untraced." + name;
    }
    id_ = g_recorder.open(std::move(name), t_stack.empty() ? -1 : t_stack.back(), t_thread);
    t_stack.push_back(id_);
  }
  ~Span() {
    if (id_ < 0) return;
    g_recorder.close(id_);
    t_stack.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  int id_ = -1;
};

template <typename F>
auto timed(std::string name, F&& f) {
  Span s(std::move(name));
  return f();
}

std::map<std::string, double> g_counts;

// ---- helpers -------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot read " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    throw IoError("cannot write " + path);
  }
}

struct Args {
  std::string workload;
  std::string work;
  std::vector<std::string> traces;  ///< the corpus's trace files
  std::string elog;                 ///< the corpus as an elog v2 container
  std::string expect_html;
  std::string elog_tool;
  std::string requests;
  std::size_t cache_entries = 64;
  std::size_t connections = 4;  ///< threads sharing the request stream
};

/// The mirror's HTML must equal the timed CLI's, byte for byte.
void check_html(const Args& a, const std::string& html) {
  if (a.expect_html.empty()) return;
  if (read_file(a.expect_html) != html) {
    throw LogicError("traced " + a.workload + " HTML differs from the CLI's " + a.expect_html);
  }
}

void count_graph(const dfg::Dfg& g) {
  g_counts["dfg.activities"] = static_cast<double>(g.activities().size());
  g_counts["dfg.edges"] = static_cast<double>(g.edges().size());
}

/// Layout alone, then the whole SVG render (which lays out again), as
/// render_report calls it. The render runs once first, so neither
/// timed call pays first-touch costs the other does not.
void render_probes(const dfg::Dfg& g, const dfg::IoStatistics& stats, const std::string& title) {
  dfg::SvgOptions svg_opts;
  svg_opts.title = title;
  const dfg::StatisticsColoring styler(stats);
  {
    Span s("probe.dfg.render_svg.warm");
    const auto warm = dfg::render_svg(g, &stats, &styler, svg_opts);
  }
  {
    Span s("probe.dfg.layout");
    const auto layout = dfg::layout_dfg(g, &stats, svg_opts.layout);
  }
  {
    Span s("probe.dfg.render_svg");
    const auto svg = dfg::render_svg(g, &stats, &styler, svg_opts);
  }
}

/// Distinct queries of the stream, in first-use order.
std::vector<model::Query> stream_queries(const std::vector<std::string>& lines) {
  std::vector<model::Query> out;
  std::set<std::string> seen;
  const auto add = [&](std::string_view text) {
    auto q = model::Query::parse(text);
    if (seen.insert(q.describe()).second) out.push_back(std::move(q));
  };
  for (const auto& line : lines) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string_view arg = std::string_view(line).substr(space + 1);
    if (const auto sep = arg.find(" :: "); sep != std::string_view::npos) {
      add(arg.substr(0, sep));
      add(arg.substr(sep + 4));
    } else {
      add(arg);
    }
  }
  return out;
}

/// The stream through handle_request on one thread per connection, each
/// taking the next request not yet taken, as pb_client's connections do
/// and as the server runs each connection on one pool worker. Records
/// the catalog's cache counters afterwards.
void serve_stream(corpus::Catalog& catalog, const std::vector<std::string>& lines,
                  std::size_t connections, const std::string& name) {
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::size_t> next{0};
  {
    Span stream(name);
    const int parent = stream.id();
    std::vector<std::jthread> threads;  // joined on every exit path
    for (std::size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        t_thread = static_cast<int>(c) + 1;
        t_stack.push_back(parent);
        for (std::size_t i = next++; i < lines.size(); i = next++) {
          Span s("serve.handle." + lines[i].substr(0, lines[i].find(' ')));
          if (!corpus::handle_request(catalog, lines[i]).ok) ++failed;
        }
        t_stack.clear();
      });
    }
  }
  if (failed != 0) throw LogicError(std::to_string(failed.load()) + " requests failed in-process");
  const auto cs = catalog.cache_stats();
  g_counts["corpus.hits"] = static_cast<double>(cs.hits);
  g_counts["corpus.misses"] = static_cast<double>(cs.misses);
  g_counts["corpus.evictions"] = static_cast<double>(cs.evictions);
}

// ---- probes: every layer, on every workload's corpus ---------------------

/// Parse alone, the pipeline with no sink, then with one sink at a time:
/// the differences are convert and per-sink fold cost. The statistics
/// sinks' serial finalize and the container write follow their runs.
void pipeline_probes(const Args& a, std::size_t threads) {
  const model::Mapping f = model::mapping_by_name("site");
  ThreadPool pool(threads);
  {
    std::mutex mu;
    std::vector<strace::ReadResult> results;
    std::uint64_t records = 0;
    std::uint64_t warnings = 0;
    {
      Span s("probe.strace.parse");
      strace::ParallelReadOptions ro;
      ro.pool = &pool;
      auto parse = strace::read_trace_files_streamed(
          a.traces, ro, [&](std::size_t, strace::ReadResult&& r) {
            std::lock_guard<std::mutex> lock(mu);
            records += r.records.size();
            warnings += r.warnings.size();
            results.push_back(std::move(r));
          });
      parse.wait();
    }
    g_counts["strace.records"] = static_cast<double>(records);
    g_counts["strace.warnings"] = static_cast<double>(warnings);
  }
  const auto sink_run = [&](const std::string& name, std::vector<pipeline::CaseSink*> sinks) {
    model::EventLog log;
    Span s(name);
    log = pipeline::run(a.traces, pool, std::span<pipeline::CaseSink* const>(sinks));
  };
  sink_run("probe.pipeline.ingest", {});
  {
    pipeline::DfgSink sink(f);
    sink_run("probe.pipeline.sink.dfg", {&sink});
  }
  {
    pipeline::CaseStatsSink sink;
    sink_run("probe.pipeline.sink.case_stats", {&sink});
  }
  {
    pipeline::VariantsSink sink(f);
    sink_run("probe.pipeline.sink.variants", {&sink});
  }
  {
    pipeline::IoStatsSink sink(f);
    sink_run("probe.pipeline.sink.io_stats", {&sink});
    timed("probe.dfg.io_stats.finalize", [&] { return sink.finalize(); });
  }
  {
    pipeline::EdgeStatsSink sink(f);
    sink_run("probe.pipeline.sink.edge_stats", {&sink});
    timed("probe.dfg.edge_stats.finalize", [&] { return sink.finalize(); });
  }
  const std::string path = a.work + "/probe.elog";
  {
    elog::ElogV2Writer writer(path);
    elog::ElogV2WriterSink sink(writer);
    sink_run("probe.pipeline.sink.elog_v2", {&sink});
    timed("probe.elog.v2.finalize", [&] { writer.finalize(); });
  }
  g_counts["elog.v2.bytes"] = static_cast<double>(std::filesystem::file_size(path));
}

/// Open, full read and indexed selection of every distinct query.
void elog_probes(const Args& a, const std::vector<model::Query>& queries) {
  std::shared_ptr<elog::MappedElog> mapped =
      timed("probe.elog.v2.open", [&] { return elog::open_v2(a.elog); });
  {
    const model::EventLog log =
        timed("probe.elog.v2.read", [&] { return elog::read_event_log_v2(mapped); });
  }
  Span s("probe.elog.v2.select");
  for (const auto& q : queries) const auto view = elog::select_v2(mapped, q);
}

/// The sharded coordinator's steps one by one (each shard folded
/// in-process over the split run_sharded makes), then run_sharded itself
/// with spawned fold-shard workers, as report-sharded --shards 2
/// --threads 2 runs it.
void shard_probes(const Args& a) {
  const model::Mapping f = model::mapping_by_name("site");
  pipeline::ShardOptions opts;
  opts.shards = 2;
  opts.mapping = "site";
  opts.worker_threads = 2;
  std::vector<std::vector<std::string>> splits;
  const std::size_t n = a.traces.size();
  for (std::size_t i = 0; i < opts.shards; ++i) {
    const std::size_t lo = i * n / opts.shards;
    const std::size_t hi = (i + 1) * n / opts.shards;
    if (lo < hi) splits.emplace_back(a.traces.begin() + lo, a.traces.begin() + hi);
  }
  std::vector<std::string> blobs;
  std::uint64_t blob_bytes = 0;
  for (std::size_t i = 0; i < splits.size(); ++i) {
    Span s("probe.shard.fold#" + std::to_string(i));
    blobs.push_back(pipeline::fold_shard(splits[i], opts));
    blob_bytes += blobs.back().size();
  }
  g_counts["shard.blob_bytes"] = static_cast<double>(blob_bytes);
  std::vector<pipeline::ShardPartial> parts;
  {
    Span s("probe.shard.decode");
    for (const auto& b : blobs) parts.push_back(pipeline::decode_shard_partial(b));
  }
  {
    Span s("probe.shard.encode");
    for (const auto& p : parts) blob_bytes -= pipeline::encode_shard_partial(p).size();
  }
  if (blob_bytes != 0) throw LogicError("shard partial did not re-encode to its own bytes");
  const auto analytics = timed("probe.shard.finalize",
                               [&] { return pipeline::finalize_shards(std::move(parts)); });
  timed("probe.shard.render", [&] { return report::render_sharded_report(analytics, f); });
  opts.fold_shard_exe = a.elog_tool;
  const auto spawned =
      timed("probe.shard.run_sharded", [&] { return pipeline::run_sharded(a.traces, opts); });
  if (spawned.shard_report.total_retries() != 0 || spawned.shard_report.total_fallbacks() != 0) {
    throw LogicError("sharded run needed retries or fallbacks");
  }
}

/// Every artifact kind a serve verb reads, computed once (miss) on an
/// unbounded catalog, then one hit, for the stream's most popular
/// queries.
void corpus_probes(const Args& a, const std::vector<model::Query>& queries) {
  corpus::CatalogOptions copts;
  copts.mapping = "top2";
  copts.cache_capacity = 1u << 20;
  corpus::Catalog catalog(copts);
  ThreadPool pool(4);
  timed("probe.corpus.load", [&] { catalog.load({a.elog}, pool); });
  const std::size_t probed = std::min<std::size_t>(queries.size(), 8);
  for (std::size_t i = 0; i < probed; ++i) {
    const auto& q = queries[i];
    timed("probe.corpus.miss.filtered", [&] { return catalog.filtered(q); });
    timed("probe.corpus.miss.graph", [&] { return catalog.graph(q); });
    timed("probe.corpus.miss.io_stats", [&] { return catalog.io_stats(q); });
    timed("probe.corpus.miss.summaries", [&] { return catalog.summaries(q); });
    timed("probe.corpus.miss.report_html", [&] { return catalog.report_html(q); });
    timed("probe.corpus.hit", [&] { return catalog.report_html(q); });
  }
}

/// The probes every workload runs after its mirror.
void layer_probes(const Args& a, std::size_t threads) {
  const auto lines = read_requests(a.requests);
  const auto queries = stream_queries(lines);
  pipeline_probes(a, threads);
  elog_probes(a, queries);
  shard_probes(a);
  corpus_probes(a, queries);
  if (a.workload != "serve_mix") {
    corpus::CatalogOptions copts;
    copts.mapping = "top2";
    copts.cache_capacity = a.cache_entries;
    corpus::Catalog catalog(copts);
    ThreadPool pool(4);
    catalog.load({a.elog}, pool);
    serve_stream(catalog, lines, a.connections, "probe.serve.stream");
  }
}

// ---- mirrors: each workload's CLI call sequence ------------------------

/// elog_tool import out.elog <files> --stream-report out.html --threads 4:
/// streaming_report's calls (pipeline::run with the report's five sinks
/// plus the container sink, finalize, render) spelled out so each gets
/// a span.
void campaign_ingest(const Args& a, bool probe) {
  const model::Mapping f = model::mapping_by_name("site");
  const std::string elog_path = a.work + "/traced.elog";
  report::ReportData data;
  std::string html;
  {
    Span cli("cli.import");
    auto pool = timed("pool.start", [] { return std::make_unique<ThreadPool>(4); });
    auto writer = timed("elog.v2.writer_open",
                        [&] { return std::make_unique<elog::ElogV2Writer>(elog_path); });
    elog::ElogV2WriterSink elog_sink(*writer);
    pipeline::DfgSink graph_sink(f);
    pipeline::CaseStatsSink stats_sink;
    pipeline::VariantsSink variants_sink(f);
    pipeline::IoStatsSink io_sink(f);
    pipeline::EdgeStatsSink edge_sink(f);
    std::vector<pipeline::CaseSink*> sinks = {&graph_sink, &stats_sink, &variants_sink,
                                              &io_sink,    &edge_sink,  &elog_sink};
    pipeline::DataHealth health;
    auto log = std::make_unique<model::EventLog>(timed("pipeline.run", [&] {
      return pipeline::run(a.traces, *pool, std::span<pipeline::CaseSink* const>(sinks), {},
                           &health);
    }));
    data.health = std::move(health);
    data.graph = graph_sink.take_graph();
    data.case_summaries = stats_sink.take_summaries();
    data.variants = variants_sink.take_variants();
    data.case_count = log->case_count();
    data.total_events = log->total_events();
    const dfg::IoStatistics::Partial io_partial = io_sink.take_partial();
    data.stats = timed("dfg.io_stats.finalize", [&] { return io_partial.finalize(); });
    data.edge_stats = timed("dfg.edge_stats.finalize", [&] { return edge_sink.finalize(); });
    const dfg::StatisticsColoring styler(data.stats);
    html = timed("report.render", [&] { return report::render_report(data, f, &styler, {}); });
    timed("report.write_html", [&] { write_file(a.work + "/traced.html", html); });
    timed("elog.v2.finalize", [&] { writer->finalize(); });
    timed("model.free", [&] { log.reset(); });
    timed("pool.stop", [&] { pool.reset(); });
  }
  check_html(a, html);
  if (!probe) return;
  count_graph(data.graph);
  g_counts["report.html_bytes"] = static_cast<double>(html.size());
  render_probes(data.graph, data.stats, report::ReportOptions{}.title);
  layer_probes(a, 4);
}

/// elog_tool report-sharded out.html <files> --shards 2 --threads 2.
void sharded_report(const Args& a, bool probe) {
  const model::Mapping f = model::mapping_by_name("site");
  pipeline::ShardOptions opts;
  opts.shards = 2;
  opts.mapping = "site";
  opts.worker_threads = 2;
  opts.fold_shard_exe = a.elog_tool;
  std::string html;
  dfg::Dfg graph;
  dfg::IoStatistics stats;
  {
    Span cli("cli.report_sharded");
    auto analytics = std::make_unique<pipeline::ShardedAnalytics>(
        timed("shard.run_sharded", [&] { return pipeline::run_sharded(a.traces, opts); }));
    if (analytics->shard_report.total_retries() != 0 ||
        analytics->shard_report.total_fallbacks() != 0) {
      throw LogicError("sharded run needed retries or fallbacks");
    }
    html = timed("shard.render", [&] { return report::render_sharded_report(*analytics, f); });
    timed("report.write_html", [&] { write_file(a.work + "/traced.html", html); });
    graph = std::move(analytics->graph);
    stats = std::move(analytics->io_stats);
    timed("model.free", [&] { analytics.reset(); });
  }
  check_html(a, html);
  if (!probe) return;
  count_graph(graph);
  g_counts["report.html_bytes"] = static_cast<double>(html.size());
  render_probes(graph, stats, report::ReportOptions{}.title);
  layer_probes(a, 2);
}

/// trace_explorer c96.elog --map last1 --render report, then
/// build_report's own steps: the ReportData it computes, and render.
void wide_report(const Args& a, bool probe) {
  const model::Mapping f = model::mapping_by_name("last1");
  const auto opts = corpus::query_report_options(model::Query{}, f);
  std::string html;
  {
    Span cli("cli.trace_explorer_report");
    auto log = std::make_unique<model::EventLog>();
    std::vector<elog::IndexedSegment> segments;
    auto part = timed("elog.v2.read_indexed", [&] {
      return elog::read_event_log_file_indexed(a.elog, elog::ElogReadOptions{});
    });
    if (part.mapped) {
      segments.push_back(
          elog::IndexedSegment{log->case_count(), part.log.case_count(), std::move(part.mapped)});
    }
    *log = timed("model.merge", [&] { return model::EventLog::merge(*log, std::move(part.log)); });
    const auto g = timed("dfg.build", [&] { return dfg::build_serial(*log, f); });
    const auto stats =
        timed("dfg.io_stats.compute", [&] { return dfg::IoStatistics::compute(*log, f); });
    const dfg::StatisticsColoring styler(stats);
    html = timed("report.build_report",
                 [&] { return report::build_report(*log, f, &styler, opts); });
    timed("report.write_html", [&] { write_file(a.work + "/traced.html", html); });
    timed("model.free", [&] {
      log.reset();
      segments.clear();
    });
  }
  check_html(a, html);
  if (!probe) return;
  g_counts["report.html_bytes"] = static_cast<double>(html.size());

  const model::EventLog log =
      timed("probe.report.load", [&] { return elog::read_event_log_v2(elog::open_v2(a.elog)); });
  report::ReportData data;
  {
    Span s("probe.report.build");
    data.graph = dfg::build_serial(log, f);
    data.stats = dfg::IoStatistics::compute(log, f);
    data.edge_stats = dfg::EdgeStatistics::compute(log, f);
    data.case_summaries = model::summarize_cases(log);
    data.case_count = log.case_count();
    data.total_events = log.total_events();
  }
  const dfg::StatisticsColoring styler(data.stats);
  const std::string probe_html =
      timed("probe.report.render", [&] { return report::render_report(data, f, &styler, opts); });
  if (probe_html != html) throw LogicError("build_report's steps do not reproduce its HTML");
  count_graph(data.graph);
  render_probes(data.graph, data.stats, opts.title);
  layer_probes(a, 4);
}

/// trace_explorer serve c96.elog --threads 4 --cache-entries K over the
/// connections' request stream, then the report of the whole corpus
/// (`report all`) step by step.
void serve_mix(const Args& a, bool probe) {
  const auto lines = read_requests(a.requests);
  {
    Span cli("cli.serve");
    corpus::CatalogOptions copts;
    copts.mapping = "top2";
    copts.cache_capacity = a.cache_entries;
    auto catalog = std::make_unique<corpus::Catalog>(copts);
    auto pool = std::make_unique<ThreadPool>(4);
    timed("corpus.load", [&] { catalog->load({a.elog}, *pool); });
    serve_stream(*catalog, lines, a.connections, "serve.stream");
    timed("model.free", [&] {
      catalog.reset();
      pool.reset();
    });
  }
  if (!probe) return;
  const model::Mapping f = model::mapping_by_name("top2");
  const model::EventLog log =
      timed("probe.report.load", [&] { return elog::read_event_log_v2(elog::open_v2(a.elog)); });
  report::ReportData data;
  {
    Span s("probe.report.build");
    data.graph = timed("probe.dfg.build", [&] { return dfg::build_serial(log, f); });
    data.stats = dfg::IoStatistics::compute(log, f);
    data.edge_stats = dfg::EdgeStatistics::compute(log, f);
    data.case_summaries = model::summarize_cases(log);
    data.case_count = log.case_count();
    data.total_events = log.total_events();
  }
  const dfg::StatisticsColoring styler(data.stats);
  const auto opts = corpus::query_report_options(model::Query{}, f);
  const std::string html =
      timed("probe.report.render", [&] { return report::render_report(data, f, &styler, opts); });
  g_counts["report.html_bytes"] = static_cast<double>(html.size());
  count_graph(data.graph);
  render_probes(data.graph, data.stats, opts.title);
  layer_probes(a, 4);
}

// ---- output --------------------------------------------------------------

void write_spans_json(const std::string& path, const Args& a,
                      const std::vector<SpanRecord>& spans, std::int64_t wall_ns,
                      int iterations) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"workload\":\"" << a.workload << "\",\"wall_ns\":" << wall_ns
      << ",\"iterations\":" << iterations << ",\"counts\":{";
  bool first = true;
  out.precision(17);
  for (const auto& [k, v] : g_counts) {
    out << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  out << "},\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << (i == 0 ? "" : ",") << "[\"" << s.name << "\"," << s.start_ns << "," << s.end_ns << ","
        << s.parent << "," << s.thread << "," << s.iteration << "]";
  }
  out << "]}\n";
  if (!out.flush()) throw IoError("cannot write " + path);
}

/// The spans as an event log: one case per thread, one event per span.
void write_spans_elog(const std::string& path, const std::string& workload,
                      const std::vector<SpanRecord>& spans) {
  model::EventLog log;
  auto& arena = log.arena();
  const std::string_view cid = arena.intern("bench");
  const std::string_view host = arena.intern("perfbench");
  const std::string_view fp = arena.intern("/perfbench/" + workload);
  std::map<int, std::vector<model::Event>> by_thread;
  const Micros base = 10LL * 3600 * kMicrosPerSecond;
  for (const auto& s : spans) {
    model::Event e;
    e.cid = cid;
    e.host = host;
    e.rid = static_cast<std::uint64_t>(s.thread);
    e.pid = static_cast<std::uint64_t>(s.thread);
    e.call = arena.intern(s.name);
    e.start = base + s.start_ns / 1000;
    e.dur = (s.end_ns - s.start_ns) / 1000;
    e.fp = fp;
    by_thread[s.thread].push_back(e);
  }
  for (auto& [thread, events] : by_thread) {
    log.add_case(model::Case(
        model::CaseId{"bench", "perfbench", static_cast<std::uint64_t>(thread)}, std::move(events)));
  }
  elog::write_event_log_v2_file(path, log);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("work", "scratch directory for outputs", std::nullopt);
  cli.add_flag("seconds", "measure for this long (at least one iteration)", "1");
  cli.add_flag("spans", "span JSON output", std::nullopt);
  cli.add_flag("spans-elog", "span event-log output (elog v2)", std::nullopt);
  cli.add_flag("elog", "the corpus as an elog v2 container", std::nullopt);
  cli.add_flag("requests", "request stream, one request line per line", std::nullopt);
  cli.add_flag("connections", "threads sharing the request stream", "4");
  cli.add_flag("elog-tool", "elog_tool binary (fold-shard workers)", std::nullopt);
  cli.add_flag("expect-html", "the CLI's HTML, which the traced calls must reproduce",
               std::nullopt);
  cli.add_flag("cache-entries", "serve catalog capacity", "64");
  try {
    cli.parse(argc, argv);
    const auto& pos = cli.positional();
    for (const char* flag : {"work", "spans", "spans-elog", "elog", "requests", "elog-tool"}) {
      if (!cli.has(flag)) throw ParseError(std::string("pb_trace: --") + flag + " is required");
    }
    if (pos.size() < 2) throw ParseError("usage: pb_trace <workload> [flags] trace files...");
    Args a;
    a.workload = pos[0];
    a.traces.assign(pos.begin() + 1, pos.end());
    a.work = cli.get("work");
    a.elog = cli.get("elog");
    a.requests = cli.get("requests");
    a.elog_tool = cli.get("elog-tool");
    if (cli.has("expect-html")) a.expect_html = cli.get("expect-html");
    a.cache_entries =
        static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("cache-entries")));
    a.connections =
        static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("connections")));
    const double seconds = cli.get_double("seconds");

    void (*run)(const Args&, bool) = nullptr;
    if (a.workload == "campaign_ingest") run = campaign_ingest;
    if (a.workload == "sharded_report") run = sharded_report;
    if (a.workload == "wide_report") run = wide_report;
    if (a.workload == "serve_mix") run = serve_mix;
    if (run == nullptr) throw ParseError("unknown workload: " + a.workload);

    int iterations = 0;
    const std::int64_t limit_ns = static_cast<std::int64_t>(seconds * 1e9);
    do {
      g_recorder.set_iteration(iterations);
      // The mirror without spans, then with them and the probes; the
      // order alternates, so neither pass is always the colder one.
      for (const bool traced : {iterations % 2 == 1, iterations % 2 == 0}) {
        g_tracing = traced;
        run(a, traced);
      }
      g_tracing = true;
      ++iterations;
    } while (g_recorder.now_ns() < limit_ns);
    const std::int64_t wall_ns = g_recorder.now_ns();
    const auto spans = g_recorder.take();
    write_spans_json(cli.get("spans"), a, spans, wall_ns, iterations);
    write_spans_elog(cli.get("spans-elog"), a.workload, spans);
  } catch (const Error& e) {
    std::cerr << "pb_trace: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "pb_trace: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
