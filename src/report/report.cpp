#include "report/report.hpp"

#include <algorithm>
#include <fstream>

#include "dfg/builder.hpp"
#include "dfg/render.hpp"
#include "dfg/render_svg.hpp"
#include "support/errors.hpp"
#include "support/si.hpp"

namespace st::report {

namespace {

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string flat(const model::Activity& a) {
  std::string out = a;
  std::replace(out.begin(), out.end(), '\n', ' ');
  return out;
}

void cases_table(std::string& html, const std::vector<model::CaseSummary>& summaries) {
  html += "<h2>Cases</h2>\n<table>\n<tr><th>case</th><th>events</th><th>read</th>"
          "<th>written</th><th>I/O time</th><th>span</th></tr>\n";
  for (const auto& s : summaries) {
    html += "<tr><td>" + html_escape(s.id.to_string()) + "</td><td>" +
            std::to_string(s.events) + "</td><td>" +
            format_bytes(static_cast<double>(s.bytes_read)) + "</td><td>" +
            format_bytes(static_cast<double>(s.bytes_written)) + "</td><td>" +
            std::to_string(s.total_dur) + " &micro;s</td><td>" + std::to_string(s.span()) +
            " &micro;s</td></tr>\n";
  }
  html += "</table>\n";
}

void stats_table(std::string& html, const dfg::IoStatistics& stats) {
  html += "<h2>Activity statistics</h2>\n<table>\n"
          "<tr><th>activity</th><th>events</th><th>Load</th><th>bytes</th>"
          "<th>DR</th><th>max-conc</th><th>ranks</th></tr>\n";
  for (const auto& [activity, s] : stats.per_activity()) {
    html += "<tr><td>" + html_escape(flat(activity)) + "</td><td>" +
            std::to_string(s.event_count) + "</td><td>" + format_ratio(s.rel_dur) + "</td><td>" +
            (s.has_bytes ? format_bytes(static_cast<double>(s.bytes)) : std::string("&ndash;")) +
            "</td><td>" +
            (s.rate_samples > 0 ? format_rate_mbps(s.mean_rate) : std::string("&ndash;")) +
            "</td><td>" + std::to_string(s.max_concurrency) + "</td><td>" +
            std::to_string(s.rank_count) + "</td></tr>\n";
  }
  html += "</table>\n";
}

void edges_table(std::string& html, const dfg::EdgeStatistics& stats) {
  html += "<h2>Directly-follows gaps</h2>\n<table>\n"
          "<tr><th>from</th><th>to</th><th>count</th><th>mean gap</th><th>max gap</th>"
          "<th>overlapped</th></tr>\n";
  for (const auto& [edge, s] : stats.per_edge()) {
    html += "<tr><td>" + html_escape(flat(edge.first)) + "</td><td>" +
            html_escape(flat(edge.second)) + "</td><td>" + std::to_string(s.count) +
            "</td><td>" + format_fixed(s.mean_gap(), 1) + " &micro;s</td><td>" +
            std::to_string(s.max_gap) + " &micro;s</td><td>" + std::to_string(s.overlapped) +
            "</td></tr>\n";
  }
  html += "</table>\n";
}

void variants_table(std::string& html, const model::VariantCounts& variants) {
  html += "<h2>Trace variants</h2>\n<table>\n"
          "<tr><th>count</th><th>length</th><th>sequence</th></tr>\n";
  for (const auto& [trace, mult] : variants) {
    std::string seq;
    for (const auto& a : trace) {
      if (!seq.empty()) seq += ", ";
      seq += flat(a);
    }
    html += "<tr><td>x" + std::to_string(mult) + "</td><td>" + std::to_string(trace.size()) +
            "</td><td>&lt;" + html_escape(seq) + "&gt;</td></tr>\n";
  }
  html += "</table>\n";
}

void health_table(std::string& html, const pipeline::DataHealth& health) {
  html += "<h2>Data health</h2>\n<table>\n"
          "<tr><th>files requested</th><th>ingested</th><th>skipped</th>"
          "<th>cases quarantined</th></tr>\n<tr><td>" +
          std::to_string(health.files_requested) + "</td><td>" +
          std::to_string(health.files_ingested) + "</td><td>" +
          std::to_string(health.files_skipped) + "</td><td>" +
          std::to_string(health.cases_quarantined) + "</td></tr>\n</table>\n";
  if (!health.warnings_by_class.empty()) {
    html += "<table>\n<tr><th>warning class</th><th>count</th></tr>\n";
    for (const auto& [cls, count] : health.warnings_by_class) {
      html += "<tr><td>" + html_escape(cls) + "</td><td>" + std::to_string(count) +
              "</td></tr>\n";
    }
    html += "</table>\n";
  }
}

}  // namespace

std::string render_report(const ReportData& data, const model::Mapping& f,
                          const dfg::Styler* styler, const ReportOptions& opts) {
  std::string html =
      "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>" +
      html_escape(opts.title) +
      "</title>\n<style>\n"
      "body{font-family:sans-serif;margin:2em;max-width:72em}\n"
      "table{border-collapse:collapse;margin:1em 0}\n"
      "th,td{border:1px solid #999;padding:4px 8px;font-size:13px;"
      "font-family:monospace;text-align:left}\n"
      "th{background:#eee}\n"
      "pre{background:#f6f6f6;padding:8px;overflow-x:auto}\n"
      ".meta{color:#555}\n</style>\n</head>\n<body>\n";
  html += "<h1>" + html_escape(opts.title) + "</h1>\n";
  if (!opts.description.empty()) {
    html += "<p class=\"meta\">" + html_escape(opts.description) + "</p>\n";
  }
  html += "<p class=\"meta\">mapping: <code>" + html_escape(f.name()) + "</code> &mdash; " +
          std::to_string(data.case_count) + " cases, " + std::to_string(data.total_events) +
          " events, total I/O time " + std::to_string(data.stats.total_duration()) +
          " &micro;s</p>\n";
  if (!opts.partition_legend.empty()) {
    html += "<p class=\"meta\">partition: " + html_escape(opts.partition_legend) + "</p>\n";
  }

  html += "<h2>Directly-Follows-Graph</h2>\n";
  dfg::SvgOptions svg_opts;
  svg_opts.title = opts.title;
  html += render_svg(data.graph, &data.stats, styler, svg_opts);

  stats_table(html, data.stats);
  cases_table(html, data.case_summaries);
  edges_table(html, data.edge_stats);
  if (data.variants) variants_table(html, *data.variants);
  if (data.health) health_table(html, *data.health);

  if (opts.timeline_activity) {
    html += "<h2>Timeline of " + html_escape(flat(*opts.timeline_activity)) + "</h2>\n<pre>" +
            html_escape(dfg::render_timeline(data.timeline, 80)) + "</pre>\n";
  }

  html += "</body>\n</html>\n";
  return html;
}

ReportData report_data(const model::EventLog& log, const model::Mapping& f,
                       const ReportOptions& opts) {
  ReportData data;
  data.graph = dfg::build_serial(log, f);
  data.stats = dfg::IoStatistics::compute(log, f);
  data.edge_stats = dfg::EdgeStatistics::compute(log, f);
  data.case_summaries = model::summarize_cases(log);
  data.case_count = log.case_count();
  data.total_events = log.total_events();
  if (opts.timeline_activity) {
    data.timeline = dfg::IoStatistics::timeline(log, f, *opts.timeline_activity);
  }
  return data;
}

std::string build_report(const model::EventLog& log, const model::Mapping& f,
                         const dfg::Styler* styler, const ReportOptions& opts) {
  return render_report(report_data(log, f, opts), f, styler, opts);
}

void write_report_file(const std::string& path, const model::EventLog& log,
                       const model::Mapping& f, const dfg::Styler* styler,
                       const ReportOptions& opts) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("cannot create report file: " + path);
  out << build_report(log, f, styler, opts);
  if (!out) throw IoError("report write failed: " + path);
}

StreamingReport streaming_report(const std::vector<std::string>& paths, const model::Mapping& f,
                                 ThreadPool& pool, const ReportOptions& opts,
                                 const pipeline::StreamOptions& stream_opts,
                                 std::span<pipeline::CaseSink* const> extra_sinks) {
  // The single pass: every analytic of the report folds on the pool
  // while the files parse — plus any caller sinks. Nothing below walks
  // the assembled log again.
  pipeline::DfgSink graph_sink(f);
  pipeline::CaseStatsSink stats_sink;
  pipeline::VariantsSink variants_sink(f);
  pipeline::IoStatsSink io_sink(f);
  pipeline::EdgeStatsSink edge_sink(f);
  std::vector<pipeline::CaseSink*> sinks = {&graph_sink, &stats_sink, &variants_sink, &io_sink,
                                            &edge_sink};
  sinks.insert(sinks.end(), extra_sinks.begin(), extra_sinks.end());
  StreamingReport out;
  pipeline::DataHealth health;
  out.log = pipeline::run(paths, pool, std::span<pipeline::CaseSink* const>(sinks), stream_opts,
                          &health);

  ReportData data;
  data.health = std::move(health);
  data.graph = graph_sink.take_graph();
  data.case_summaries = stats_sink.take_summaries();
  data.variants = variants_sink.take_variants();
  data.case_count = out.log.case_count();
  data.total_events = out.log.total_events();
  const dfg::IoStatistics::Partial io_partial = io_sink.take_partial();
  data.stats = io_partial.finalize();
  data.edge_stats = edge_sink.finalize();
  if (opts.timeline_activity) {
    data.timeline = io_partial.timeline(*opts.timeline_activity);
  }

  const dfg::StatisticsColoring styler(data.stats);
  out.html = render_report(data, f, &styler, opts);
  return out;
}

std::string render_sharded_report(const pipeline::ShardedAnalytics& analytics,
                                  const model::Mapping& f, const ReportOptions& opts) {
  // The exact ReportData assembly of streaming_report, fed from the
  // merged shard partials instead of live sinks.
  ReportData data;
  data.graph = analytics.graph;
  data.case_summaries = analytics.case_summaries;
  data.variants = analytics.variants;
  data.health = analytics.health;
  data.case_count = analytics.case_count;
  data.total_events = analytics.total_events;
  data.stats = analytics.io_stats;
  data.edge_stats = analytics.edge_stats;
  if (opts.timeline_activity) {
    data.timeline = analytics.io_partial.timeline(*opts.timeline_activity);
  }
  const dfg::StatisticsColoring styler(data.stats);
  return render_report(data, f, &styler, opts);
}

}  // namespace st::report
