// trace_explorer: the "DFG as an interactive query" workflow from the
// paper, as a CLI. Load trace files (cid_host_rid.st) and/or .elog
// containers — mixed freely; v2 containers open by mmap with no
// reparse — apply a query and a mapping, and inspect the resulting
// DFG, statistics, trace variants or an activity timeline.
//
//   ./trace_explorer a_host1_9042.st b_host1_9157.st \
//       --filter /usr/lib --map last2 --render dot
//   ./trace_explorer run.elog --map site1 --timeline "read\n$SCRATCH/ssf"
//   ./trace_explorer imported.elog --query 'fp~/p calls{read,write}' \
//       --render report
//
// Queries come in two spellings: --filter <substr> is sugar for a
// single path restriction, --query takes the full canonical grammar
// of model/query.hpp (the same string the serve wire format uses).
//
// serve mode turns the same corpus into a resident service
// (corpus::Catalog + the ndjson/HTTP loop of corpus/serve.hpp):
//
//   ./trace_explorer serve corpus.elog                # TCP, ephemeral port
//   ./trace_explorer serve corpus.elog --port 8080
//   ./trace_explorer serve corpus.elog --stdio        # requests on stdin
//
// With no positional arguments it demos on the built-in ls / ls -l
// traces of Fig. 2.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <utility>

#include "corpus/catalog.hpp"
#include "corpus/serve.hpp"
#include "dfg/builder.hpp"
#include "dfg/render.hpp"
#include "dfg/render_svg.hpp"
#include "elog/store.hpp"
#include "elog/v2_select.hpp"
#include "iosim/commands.hpp"
#include "model/case_stats.hpp"
#include "model/from_strace.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/stream.hpp"
#include "report/report.hpp"
#include "support/cli.hpp"
#include "support/cli_args.hpp"
#include "support/errors.hpp"
#include "support/strings.hpp"

namespace {

/// The request-side query: --query parses the full grammar, --filter
/// layers a path-substring restriction on top (both may be given).
st::model::Query query_from_flags(const st::CliParser& cli) {
  st::model::Query q;
  if (cli.has("query")) q = st::model::Query::parse(cli.get("query"));
  if (cli.has("filter")) q = q.fp_contains(cli.get("filter"));
  return q;
}

int run_serve(const st::CliParser& cli) {
  using namespace st;
  corpus::CatalogOptions copts;
  copts.mapping = cli.get("map");
  copts.cache_capacity =
      static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("cache-entries")));
  copts.policy = cliargs::run_policy(cli);
  corpus::Catalog catalog(copts);
  ThreadPool pool(cliargs::thread_count(cli));
  const std::vector<std::string> inputs(cli.positional().begin() + 1, cli.positional().end());
  if (inputs.empty()) throw ParseError("serve takes .elog containers and/or trace files");
  catalog.load(inputs, pool);
  for (const auto& w : catalog.load_warnings()) std::cerr << "warning: " << w << "\n";
  if (cli.get_bool("stdio")) {
    corpus::serve_lines(catalog, std::cin, std::cout);
    return 0;
  }
  corpus::Server server(catalog, static_cast<std::uint16_t>(cli.get_int("port")));
  std::cerr << "serving " << catalog.base()->case_count() << " cases on 127.0.0.1:"
            << server.port() << "\n";
  server.serve_forever(pool);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace st;
  CliParser cli;
  cli.add_flag("filter", "keep only events whose path contains this substring", std::nullopt);
  cli.add_flag("query", "full query in the canonical grammar, e.g. 'fp~/p calls{read,write}'",
               std::nullopt);
  cliargs::add_map_flag(cli, "activity mapping", "top2");
  cli.add_flag("render", "output form: ascii|dot|svg|report|variants|stats|summary", "ascii");
  cli.add_flag("timeline", "print the timeline of this activity (use \\n between call and path)",
               std::nullopt);
  cli.add_flag("ranks", "annotate nodes with distinct rank counts", std::nullopt, true);
  cliargs::add_threads_flag(cli, "ingestion worker");
  cliargs::add_stream_report_flag(
      cli,
      "single-pass HTML report straight from trace files (parse, DFG, case table and "
      "variants fold on one pool; overrides --render)",
      /*takes_path=*/false);
  cliargs::add_keep_going_flag(cli, "unreadable/unparseable inputs");
  cli.add_flag("stdio", "serve: speak the ndjson protocol on stdin/stdout instead of TCP",
               std::nullopt, true);
  cli.add_flag("port", "serve: TCP port on 127.0.0.1 (0 = ephemeral, printed to stderr)", "0");
  cli.add_flag("cache-entries", "serve: memoized-artifact LRU capacity", "64");
  try {
    cli.parse(argc, argv);

    if (!cli.positional().empty() && cli.positional()[0] == "serve") {
      return run_serve(cli);
    }

    // -- load --------------------------------------------------------
    const auto f = cliargs::mapping(cli);

    if (cli.get_bool("stream-report")) {
      // One streamed pass: DfgSink + CaseStatsSink + VariantsSink fold
      // while the trace files parse — no ingestion barrier, no
      // per-analytic re-walks of the event arrays.
      bool any_trace = false;
      for (const auto& p : cli.positional()) {
        if (p.ends_with(".elog")) {
          // Streaming parses trace text; a container is already parsed.
          throw ParseError("--stream-report streams trace files only; convert " + p +
                           " inputs with --render report instead");
        }
        any_trace = true;
      }
      if (!any_trace) throw ParseError("--stream-report needs cid_host_rid.st trace files");
      if (cli.has("filter") || cli.has("query")) {
        // The streaming report covers the whole trace by design; a
        // silently unfiltered report would be worse than an error.
        throw ParseError("--stream-report reports on ALL events; drop --filter/--query (use "
                         "--render report for a filtered staged report)");
      }
      ThreadPool pool(cliargs::thread_count(cli));
      pipeline::StreamOptions stream_opts;
      static_cast<RunPolicy&>(stream_opts) = cliargs::run_policy(cli);
      report::ReportOptions report_opts;
      report_opts.title = "trace_explorer report";
      report_opts.description = "single-pass streaming report, mapping: " + f.name();
      if (cli.has("timeline")) {
        std::string activity = cli.get("timeline");
        if (const auto pos = activity.find("\\n"); pos != std::string::npos) {
          activity.replace(pos, 2, "\n");
        }
        report_opts.timeline_activity = std::move(activity);
      }
      const auto result =
          report::streaming_report(cli.positional(), f, pool, report_opts, stream_opts);
      for (const auto& w : result.log.warnings()) std::cerr << "warning: " << w << "\n";
      std::cout << result.html;
      return 0;
    }
    const auto query = query_from_flags(cli);
    const bool restricted = cli.has("filter") || cli.has("query");
    model::EventLog log;
    std::vector<elog::IndexedSegment> segments;
    std::optional<dfg::Dfg> streamed_graph;
    std::optional<dfg::IoStatistics::Partial> streamed_io;
    if (cli.positional().empty()) {
      std::cerr << "(no inputs; demoing on the built-in ls / ls -l traces)\n";
      log = model::EventLog::merge(iosim::make_ls_traces().to_event_log(),
                                   iosim::make_ls_l_traces().to_event_log());
    } else {
      // .elog containers and raw trace files mix freely: containers
      // load via read_event_log_file (v2 by mmap, zero reparse; v1 by
      // chunk parse), traces go through the streaming pipeline, and
      // everything is unioned into one log.
      std::vector<std::string> elogs;
      std::vector<std::string> traces;
      for (const auto& p : cli.positional()) {
        (p.ends_with(".elog") ? elogs : traces).push_back(p);
      }
      if (!traces.empty()) {
        // Streaming pipeline: zero-copy mmap parse, record -> Case
        // conversion and (when nothing narrows or extends the log
        // afterwards) DFG construction all overlap on one shared pool.
        ThreadPool pool(cliargs::thread_count(cli));
        pipeline::StreamOptions stream_opts;
        static_cast<RunPolicy&>(stream_opts) = cliargs::run_policy(cli);
        if (!restricted && elogs.empty()) {
          // Nothing narrows or extends the log afterwards, so the DFG
          // AND the activity statistics fold in the same pass — no
          // staged post-pass walk of the assembled log.
          pipeline::DfgSink graph_sink(f);
          pipeline::IoStatsSink io_sink(f);
          log = pipeline::run(traces, pool, {&graph_sink, &io_sink}, stream_opts);
          streamed_graph = graph_sink.take_graph();
          streamed_io = io_sink.take_partial();
        } else {
          log = pipeline::event_log_streamed(traces, pool, stream_opts);
        }
      }
      // Ingestion warnings before the union: derived logs drop them.
      for (const auto& w : log.warnings()) std::cerr << "warning: " << w << "\n";
      for (const auto& p : elogs) {
        try {
          auto part =
              elog::read_event_log_file_indexed(p, elog::ElogReadOptions{cliargs::run_policy(cli)});
          if (part.mapped) {
            // Cleanly-read v2 container: remember the slice so --query
            // runs through the indexed planner (byte-identical result).
            segments.push_back(elog::IndexedSegment{log.case_count(), part.log.case_count(),
                                                    std::move(part.mapped)});
          }
          log = model::EventLog::merge(log, std::move(part.log));
        } catch (const IoError& e) {
          if (!cli.get_bool("keep-going")) throw;
          std::cerr << "warning: " << p << ": skipped: " << e.what() << "\n";
        }
      }
    }
    if (restricted) {
      log = !segments.empty() && elog::query_index_enabled()
                ? elog::apply_query_indexed(query, log, segments)
                : query.apply(log);
    }

    // -- analyze -----------------------------------------------------
    if (cli.has("timeline")) {
      // Allow the literal two-character sequence "\n" on the command line.
      std::string activity = cli.get("timeline");
      if (const auto pos = activity.find("\\n"); pos != std::string::npos) {
        activity.replace(pos, 2, "\n");
      }
      std::cout << dfg::render_timeline(streamed_io
                                            ? streamed_io->timeline(activity)
                                            : dfg::IoStatistics::timeline(log, f, activity));
      return 0;
    }

    const std::string render = cli.get("render");
    if (render == "report") {
      // Same ReportOptions builder as the serve path, so the served
      // report bytes and this offline invocation stay cmp-identical.
      // The report computes its own graph and statistics, once.
      const auto report_opts = corpus::query_report_options(query, f);
      const auto data = report::report_data(log, f, report_opts);
      const dfg::StatisticsColoring styler(data.stats);
      std::cout << report::render_report(data, f, &styler, report_opts);
      return 0;
    }
    const auto g = streamed_graph ? std::move(*streamed_graph) : dfg::build_serial(log, f);
    const auto stats = streamed_io ? streamed_io->finalize() : dfg::IoStatistics::compute(log, f);
    dfg::RenderOptions opts;
    opts.show_ranks = cli.get_bool("ranks");
    const dfg::StatisticsColoring styler(stats);
    if (render == "dot") {
      std::cout << dfg::render_dot(g, &stats, &styler, opts);
    } else if (render == "svg") {
      std::cout << dfg::render_svg(g, &stats, &styler);
    } else if (render == "summary") {
      ThreadPool pool(cliargs::thread_count(cli));
      std::cout << model::render_case_summaries(model::summarize_cases(log, pool));
    } else if (render == "ascii") {
      std::cout << dfg::render_ascii(g, &stats, &styler, opts);
    } else if (render == "variants") {
      const auto al = model::ActivityLog::build(log, f);
      for (const auto& [trace, mult] : al.variants()) {
        std::cout << "x" << mult << ": <";
        bool first = true;
        for (const auto& a : trace) {
          std::string flat = a;
          std::replace(flat.begin(), flat.end(), '\n', ' ');
          std::cout << (first ? "" : ", ") << flat;
          first = false;
        }
        std::cout << ">\n";
      }
    } else if (render == "stats") {
      for (const auto& [a, s] : stats.per_activity()) {
        std::string flat = a;
        std::replace(flat.begin(), flat.end(), '\n', ' ');
        std::cout << flat << " | " << s.load_label();
        if (const auto dr = s.dr_label(); !dr.empty()) std::cout << " | " << dr;
        std::cout << " | events: " << s.event_count << " | ranks: " << s.rank_count << "\n";
      }
    } else {
      throw ParseError("unknown --render: " + render);
    }
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << cli.usage("trace_explorer");
    return 1;
  }
  return 0;
}
