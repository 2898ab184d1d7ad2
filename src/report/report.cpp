#include "report/report.hpp"

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <string_view>

#include "dfg/render.hpp"
#include "dfg/render_svg.hpp"
#include "support/publish.hpp"
#include "support/si.hpp"
#include "support/strings.hpp"

namespace st::report {

namespace {

/// Text appended with & < > escaped.
struct Html {
  std::string_view text;
};

/// An activity appended on one line (each '\n' as a space), escaped.
struct Flat {
  std::string_view activity;
};

struct Fixed {
  double value;
  int decimals;
};

/// A byte total as format_bytes prints it.
struct Bytes {
  std::int64_t bytes;
};

void put_one(std::string& html, std::string_view s) { html += s; }
template <std::integral T>
void put_one(std::string& html, T n) {
  append_int(html, n);
}
void put_one(std::string& html, Html h) { append_markup_escaped(html, h.text, false); }
void put_one(std::string& html, Flat f) {
  const std::size_t at = html.size();
  append_markup_escaped(html, f.activity, false);
  std::replace(html.begin() + static_cast<std::ptrdiff_t>(at), html.end(), '\n', ' ');
}
void put_one(std::string& html, Fixed f) { append_fixed(html, f.value, f.decimals); }
void put_one(std::string& html, Bytes b) { append_bytes(html, static_cast<double>(b.bytes)); }

/// Appends the parts in order.
template <typename... Parts>
void put(std::string& html, const Parts&... parts) {
  (put_one(html, parts), ...);
}

void cases_table(std::string& html, const std::vector<model::CaseSummary>& summaries) {
  html += "<h2>Cases</h2>\n<table>\n<tr><th>case</th><th>events</th><th>read</th>"
          "<th>written</th><th>I/O time</th><th>span</th></tr>\n";
  for (const auto& s : summaries) {
    // The case column is CaseId::to_string, escaped.
    put(html, "<tr><td>", Html{s.id.cid}, "_", Html{s.id.host}, "_", s.id.rid, "</td><td>",
        s.events, "</td><td>", Bytes{s.bytes_read}, "</td><td>", Bytes{s.bytes_written},
        "</td><td>", s.total_dur, " &micro;s</td><td>", s.span(), " &micro;s</td></tr>\n");
  }
  html += "</table>\n";
}

void stats_table(std::string& html, const dfg::IoStatistics& stats) {
  html += "<h2>Activity statistics</h2>\n<table>\n"
          "<tr><th>activity</th><th>events</th><th>Load</th><th>bytes</th>"
          "<th>DR</th><th>max-conc</th><th>ranks</th></tr>\n";
  for (const auto& [activity, s] : stats.per_activity()) {
    put(html, "<tr><td>", Flat{activity}, "</td><td>", s.event_count, "</td><td>",
        Fixed{s.rel_dur, 2}, "</td><td>");
    if (s.has_bytes) {
      append_bytes(html, static_cast<double>(s.bytes));
    } else {
      html += "&ndash;";
    }
    html += "</td><td>";
    if (s.rate_samples > 0) {
      append_rate_mbps(html, s.mean_rate);
    } else {
      html += "&ndash;";
    }
    put(html, "</td><td>", s.max_concurrency, "</td><td>", s.rank_count, "</td></tr>\n");
  }
  html += "</table>\n";
}

void edges_table(std::string& html, const dfg::EdgeStatistics& stats) {
  html += "<h2>Directly-follows gaps</h2>\n<table>\n"
          "<tr><th>from</th><th>to</th><th>count</th><th>mean gap</th><th>max gap</th>"
          "<th>overlapped</th></tr>\n";
  for (const auto& [edge, s] : stats.per_edge()) {
    put(html, "<tr><td>", Flat{edge.first}, "</td><td>", Flat{edge.second}, "</td><td>", s.count,
        "</td><td>", Fixed{s.mean_gap(), 1}, " &micro;s</td><td>", s.max_gap,
        " &micro;s</td><td>", s.overlapped, "</td></tr>\n");
  }
  html += "</table>\n";
}

void variants_table(std::string& html, const model::VariantCounts& variants) {
  html += "<h2>Trace variants</h2>\n<table>\n"
          "<tr><th>count</th><th>length</th><th>sequence</th></tr>\n";
  for (const auto& [trace, mult] : variants) {
    put(html, "<tr><td>x", mult, "</td><td>", trace.size(), "</td><td>&lt;");
    // ", " goes between activities once the sequence is non-empty, so
    // an empty activity at its head adds no separator.
    const std::size_t seq = html.size();
    for (const auto& a : trace) {
      if (html.size() != seq) html += ", ";
      put(html, Flat{a});
    }
    html += "&gt;</td></tr>\n";
  }
  html += "</table>\n";
}

void health_table(std::string& html, const pipeline::DataHealth& health) {
  put(html,
      "<h2>Data health</h2>\n<table>\n"
      "<tr><th>files requested</th><th>ingested</th><th>skipped</th>"
      "<th>cases quarantined</th></tr>\n<tr><td>",
      health.files_requested, "</td><td>", health.files_ingested, "</td><td>",
      health.files_skipped, "</td><td>", health.cases_quarantined, "</td></tr>\n</table>\n");
  if (!health.warnings_by_class.empty()) {
    html += "<table>\n<tr><th>warning class</th><th>count</th></tr>\n";
    for (const auto& [cls, count] : health.warnings_by_class) {
      put(html, "<tr><td>", Html{cls}, "</td><td>", count, "</td></tr>\n");
    }
    html += "</table>\n";
  }
}

}  // namespace

std::string render_report(const ReportData& data, const model::Mapping& f,
                          const dfg::Styler* styler, const ReportOptions& opts) {
  std::string html;
  put(html, "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>",
      Html{opts.title},
      "</title>\n<style>\n"
      "body{font-family:sans-serif;margin:2em;max-width:72em}\n"
      "table{border-collapse:collapse;margin:1em 0}\n"
      "th,td{border:1px solid #999;padding:4px 8px;font-size:13px;"
      "font-family:monospace;text-align:left}\n"
      "th{background:#eee}\n"
      "pre{background:#f6f6f6;padding:8px;overflow-x:auto}\n"
      ".meta{color:#555}\n</style>\n</head>\n<body>\n");
  put(html, "<h1>", Html{opts.title}, "</h1>\n");
  if (!opts.description.empty()) {
    put(html, "<p class=\"meta\">", Html{opts.description}, "</p>\n");
  }
  put(html, "<p class=\"meta\">mapping: <code>", Html{f.name()}, "</code> &mdash; ",
      data.case_count, " cases, ", data.total_events, " events, total I/O time ",
      data.stats.total_duration(), " &micro;s</p>\n");
  if (!opts.partition_legend.empty()) {
    put(html, "<p class=\"meta\">partition: ", Html{opts.partition_legend}, "</p>\n");
  }

  html += "<h2>Directly-Follows-Graph</h2>\n";
  dfg::SvgOptions svg_opts;
  svg_opts.title = opts.title;
  dfg::append_svg(html, data.graph, &data.stats, styler, svg_opts);

  stats_table(html, data.stats);
  cases_table(html, data.case_summaries);
  edges_table(html, data.edge_stats);
  if (data.variants) variants_table(html, *data.variants);
  if (data.health) health_table(html, *data.health);

  if (opts.timeline_activity) {
    put(html, "<h2>Timeline of ", Flat{*opts.timeline_activity}, "</h2>\n<pre>",
        Html{dfg::render_timeline(data.timeline, 80)}, "</pre>\n");
  }

  html += "</body>\n</html>\n";
  return html;
}

ReportData report_data(const model::EventLog& log, const model::Mapping& f,
                       const ReportOptions& opts, ThreadPool* pool) {
  pipeline::DfgSink graph(f);
  pipeline::CaseStatsSink cases;
  pipeline::IoStatsSink io(f);
  pipeline::EdgeStatsSink edges(f);
  const std::array<pipeline::CaseSink*, 4> sinks{&graph, &cases, &io, &edges};
  pipeline::fold_cases(log.cases(), sinks, pool);
  ReportData data;
  data.graph = graph.take_graph();
  data.stats = io.finalize(pool);
  data.edge_stats = edges.finalize();
  data.case_summaries = cases.take_summaries();
  data.case_count = log.case_count();
  data.total_events = log.total_events();
  if (opts.timeline_activity) data.timeline = io.partial().timeline(*opts.timeline_activity);
  return data;
}

std::string build_report(const model::EventLog& log, const model::Mapping& f,
                         const dfg::Styler* styler, const ReportOptions& opts) {
  return render_report(report_data(log, f, opts), f, styler, opts);
}

void write_report_file(const std::string& path, const model::EventLog& log,
                       const model::Mapping& f, const dfg::Styler* styler,
                       const ReportOptions& opts) {
  publish_file(path, build_report(log, f, styler, opts));
}

StreamingReport streaming_report(const std::vector<std::string>& paths, const model::Mapping& f,
                                 ThreadPool& pool, const ReportOptions& opts,
                                 const pipeline::StreamOptions& stream_opts,
                                 std::span<pipeline::CaseSink* const> extra_sinks) {
  pipeline::ReportFold fold = pipeline::fold_report(paths, f, pool, stream_opts, extra_sinks);
  std::vector<pipeline::ShardPartial> parts;
  parts.push_back(std::move(fold.partial));
  return {render_sharded_report(pipeline::finalize_shards(std::move(parts), &pool), f, opts),
          std::move(fold.log)};
}

std::string render_sharded_report(const pipeline::ShardedAnalytics& analytics,
                                  const model::Mapping& f, const ReportOptions& opts) {
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
