// Self-contained HTML report of one analysis — the "static report"
// synthesis style the paper's related work attributes to Darshan and
// PyDarshan, built from this library's primitives:
//
//   - run metadata and the query that produced the view,
//   - per-case summary table (events, bytes, I/O time, span),
//   - the DFG as inline SVG (statistics- or partition-colored),
//   - activity statistics table (Load, bytes, DR, concurrency, ranks),
//   - edge gap table (the stalls between directly-following calls),
//   - optional trace-variant multiset (streaming reports),
//   - optional timeline of a chosen activity.
//
// Everything is embedded: one .html file, no external assets.
//
// Two ways to produce it:
//   - build_report(log, ...): the staged path — computes every section
//     from a materialized EventLog;
//   - streaming_report(paths, ...): the single-pass path — composes
//     DfgSink + CaseStatsSink + VariantsSink + IoStatsSink +
//     EdgeStatsSink on pipeline::run, so EVERY section — graph, case
//     table, variants, activity and edge statistics, timeline — is
//     folded on the pool WHILE the trace files parse; no section walks
//     the assembled log after the pass (the staged post-pass is gone,
//     and the doubles still match compute() bit for bit thanks to the
//     deterministic summation tree in dfg/stats.hpp).
// Both render through the same ReportData core, so a section looks
// identical no matter which path produced it.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dfg/coloring.hpp"
#include "dfg/concurrency.hpp"
#include "dfg/dfg.hpp"
#include "dfg/edge_stats.hpp"
#include "dfg/stats.hpp"
#include "model/activity_log.hpp"
#include "model/case_stats.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"
#include "pipeline/shard.hpp"
#include "pipeline/sink.hpp"

namespace st {
class ThreadPool;
}  // namespace st

namespace st::report {

struct ReportOptions {
  std::string title = "I/O inspection report";
  std::string description;  ///< free text shown under the title
  /// Activity whose timeline is embedded (empty = none).
  std::optional<model::Activity> timeline_activity;
  /// Optional partition predicate label shown with the legend.
  std::string partition_legend;
};

/// The precomputed pieces every report section renders from.
/// report_data fills it from an EventLog; streaming_report fills it
/// from one pipeline::run pass.
struct ReportData {
  dfg::Dfg graph;
  dfg::IoStatistics stats;
  dfg::EdgeStatistics edge_stats;
  std::vector<model::CaseSummary> case_summaries;
  std::size_t case_count = 0;
  std::size_t total_events = 0;
  /// Rendered as a "Trace variants" section when non-nullopt.
  std::optional<model::VariantCounts> variants;
  /// Rendered as a "Data health" section when non-nullopt (streaming
  /// and sharded reports — the paths with an ingestion phase whose
  /// degradation is worth surfacing; report_data never sets it).
  std::optional<pipeline::DataHealth> health;
  /// Timeline entries of ReportOptions::timeline_activity, when set.
  std::vector<dfg::TimelineEntry> timeline;
};

/// Renders the report from precomputed data. `styler` may be null
/// (uncolored DFG).
[[nodiscard]] std::string render_report(const ReportData& data, const model::Mapping& f,
                                        const dfg::Styler* styler, const ReportOptions& opts = {});

/// Computes the ReportData of a materialized log: every section but
/// variants and data health.
[[nodiscard]] ReportData report_data(const model::EventLog& log, const model::Mapping& f,
                                     const ReportOptions& opts = {});

/// Builds the full report from a materialized log: render_report over
/// report_data. `styler` may be null (uncolored DFG).
[[nodiscard]] std::string build_report(const model::EventLog& log, const model::Mapping& f,
                                       const dfg::Styler* styler, const ReportOptions& opts = {});

/// Writes the report to a file (throws IoError on failure).
void write_report_file(const std::string& path, const model::EventLog& log,
                       const model::Mapping& f, const dfg::Styler* styler,
                       const ReportOptions& opts = {});

struct StreamingReport {
  std::string html;
  /// The ingested log from the same pass — reusable (e.g. elog_tool
  /// import writes it to a container alongside the report).
  model::EventLog log;
};

/// Single-pass report straight from trace files: one pipeline::run
/// streams parse -> convert while the report's five sinks (DFG, case
/// table, variants, activity statistics, edge statistics) fold on the
/// same pool; the optional timeline renders from the already-folded
/// IoStatistics partial. The DFG is statistics-colored like the CLI
/// report paths. Compared to build_report over event_log_streamed,
/// this removes the ingestion barrier plus every post-hoc walk, and
/// adds the variants section.
/// `extra_sinks` ride the same pass after the report's own sinks —
/// elog_tool import hangs its ElogV2WriterSink here, so one streamed
/// pass yields both the report and the container.
[[nodiscard]] StreamingReport streaming_report(const std::vector<std::string>& paths,
                                               const model::Mapping& f, ThreadPool& pool,
                                               const ReportOptions& opts = {},
                                               const pipeline::StreamOptions& stream_opts = {},
                                               std::span<pipeline::CaseSink* const> extra_sinks = {});

/// Renders the report from merged shard analytics (pipeline::run_sharded
/// or finalize_shards over decoded fold-shard blobs), statistics-colored
/// like streaming_report. Because the shard merge is the same monoid
/// fold the streamed pass runs, the HTML is BYTE-identical to
/// streaming_report over the same files with the same options — `cmp`
/// is the acceptance test. `f` must be the mapping the shards folded
/// with (by short name).
[[nodiscard]] std::string render_sharded_report(const pipeline::ShardedAnalytics& analytics,
                                                const model::Mapping& f,
                                                const ReportOptions& opts = {});

}  // namespace st::report
