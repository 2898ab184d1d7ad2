// trace_explorer: the "DFG as an interactive query" workflow from the
// paper, as a CLI. Load trace files (cid_host_rid.st) and/or .elog
// containers — mixed freely; containers open by mmap with no reparse —
// apply a query and a mapping, and inspect the resulting DFG,
// statistics, trace variants or an activity timeline.
//
// Every render folds the report's sinks over containers in column
// space (pipeline::fold_cases over elog::ContainerCases): the trace
// files, ingested once into one in-memory container as `elog_tool
// import` writes it, then each .elog. A container's cases are decoded
// one at a time per fold task and mapped through one read-only
// dictionary per container, never collected into an EventLog
// (corpus::open_corpus). --query/--filter select over the same
// containers (corpus::select): each decodes only the rows the query
// keeps.
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
#include <array>
#include <cstdint>
#include <iostream>
#include <string_view>
#include <utility>

#include "corpus/catalog.hpp"
#include "corpus/serve.hpp"
#include "dfg/render.hpp"
#include "dfg/render_svg.hpp"
#include "iosim/commands.hpp"
#include "model/case_stats.hpp"
#include "model/from_strace.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
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

/// --timeline's activity. The literal two-character sequence "\n" on
/// the command line stands for the newline between call and path.
std::string timeline_activity(const st::CliParser& cli) {
  std::string activity = cli.get("timeline");
  if (const auto pos = activity.find("\\n"); pos != std::string::npos) {
    activity.replace(pos, 2, "\n");
  }
  return activity;
}

int run_serve(const st::CliParser& cli) {
  using namespace st;
  corpus::CatalogOptions copts;
  copts.mapping = cli.get("map");
  copts.cache_capacity =
      static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("cache-entries")));
  copts.policy = cliargs::run_policy(cli);
  const auto port = static_cast<std::uint16_t>(cli.get_int("port", 0, 65535));
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
  corpus::Server server(catalog, port);
  std::cerr << "serving " << catalog.case_count() << " cases on 127.0.0.1:"
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
      // One streamed pass: the report's sinks (pipeline::fold_report)
      // fold while the trace files parse — no ingestion barrier, no
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
                         "--render report for a filtered report)");
      }
      ThreadPool pool(cliargs::thread_count(cli));
      pipeline::StreamOptions stream_opts;
      static_cast<RunPolicy&>(stream_opts) = cliargs::run_policy(cli);
      report::ReportOptions report_opts;
      report_opts.title = "trace_explorer report";
      report_opts.description = "single-pass streaming report, mapping: " + f.name();
      if (cli.has("timeline")) report_opts.timeline_activity = timeline_activity(cli);
      const auto result =
          report::streaming_report(cli.positional(), f, pool, report_opts, stream_opts);
      for (const auto& w : result.summary.warnings) std::cerr << "warning: " << w << "\n";
      std::cout << result.html;
      return 0;
    }
    // The renders, checked before any input is read.
    const std::string render = cli.get("render");
    constexpr std::array<std::string_view, 7> kRenders{"ascii", "dot",      "svg",    "report",
                                                       "variants", "stats", "summary"};
    if (!cli.has("timeline") && std::find(kRenders.begin(), kRenders.end(), render) ==
                                    kRenders.end()) {
      throw ParseError("unknown --render: " + render);
    }
    const auto query = query_from_flags(cli);
    const bool filtered = cli.has("filter") || cli.has("query");
    ThreadPool pool(cliargs::thread_count(cli));
    // The cases every render folds: the demo's, or the inputs opened as
    // containers — read in column space, never an EventLog — or what
    // the query keeps of them.
    model::EventLog log;
    corpus::OpenedCorpus opened;
    corpus::CorpusSelection selection;
    std::vector<const pipeline::CaseSource*> sources;
    if (cli.positional().empty()) {
      std::cerr << "(no inputs; demoing on the built-in ls / ls -l traces)\n";
      log = model::EventLog::merge(iosim::make_ls_traces().to_event_log(),
                                   iosim::make_ls_l_traces().to_event_log());
      if (filtered) log = query.apply(log);
    } else {
      // Traces stream through the pipeline (zero-copy parse on the
      // pool, each file converted on the thread that finished its
      // parse) into one in-memory container; each container opens
      // (an .elog by mmap), is checked and scanned on the pool, and
      // gets one dictionary for f.
      const std::array<const model::Mapping*, 1> mappings{&f};
      opened = corpus::open_corpus(cli.positional(), pool, cliargs::run_policy(cli), mappings);
      for (const auto& w : opened.warnings) std::cerr << "warning: " << w << "\n";
      if (filtered) {
        selection = corpus::select(opened, query);
        sources = selection.sources;
      } else {
        sources = opened.sources;
      }
    }
    const pipeline::CaseSpan view(log.cases());
    if (sources.empty()) sources.push_back(&view);

    // -- analyze -----------------------------------------------------
    // The renders that need no graph and no statistics come first.
    if (cli.has("timeline")) {
      pipeline::IoStatsSink io_sink(f);
      const std::array<pipeline::CaseSink*, 1> sinks{&io_sink};
      pipeline::fold_cases(sources, sinks, &pool);
      std::cout << dfg::render_timeline(io_sink.partial().timeline(timeline_activity(cli)));
      return 0;
    }

    if (render == "report") {
      // The serve path's own report function, so the served report
      // bytes and this offline invocation stay cmp-identical.
      std::cout << corpus::query_report(sources, query, f, &pool);
      return 0;
    }
    if (render == "summary") {
      pipeline::CaseStatsSink cases;
      const std::array<pipeline::CaseSink*, 1> sinks{&cases};
      pipeline::fold_cases(sources, sinks, &pool);
      std::cout << model::render_case_summaries(cases.summaries());
      return 0;
    }
    if (render == "variants") {
      pipeline::VariantsSink variants(f);
      const std::array<pipeline::CaseSink*, 1> sinks{&variants};
      pipeline::fold_cases(sources, sinks, &pool);
      for (const auto& [trace, mult] : variants.variants()) {
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
      return 0;
    }
    pipeline::DfgSink graph_sink(f);
    pipeline::IoStatsSink io_sink(f);
    const std::array<pipeline::CaseSink*, 2> sinks{&graph_sink, &io_sink};
    pipeline::fold_cases(sources, sinks, &pool);
    const auto g = graph_sink.take_graph();
    const auto stats = io_sink.finalize(&pool);
    dfg::RenderOptions opts;
    opts.show_ranks = cli.get_bool("ranks");
    const dfg::StatisticsColoring styler(stats);
    if (render == "dot") {
      std::cout << dfg::render_dot(g, &stats, &styler, opts);
    } else if (render == "svg") {
      std::cout << dfg::render_svg(g, &stats, &styler);
    } else if (render == "ascii") {
      std::cout << dfg::render_ascii(g, &stats, &styler, opts);
    } else {
      for (const auto& [a, s] : stats.per_activity()) {
        std::string flat = a;
        std::replace(flat.begin(), flat.end(), '\n', ' ');
        std::cout << flat << " | " << s.load_label();
        if (const auto dr = s.dr_label(); !dr.empty()) std::cout << " | " << dr;
        std::cout << " | events: " << s.event_count << " | ranks: " << s.rank_count << "\n";
      }
    }
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << cli.usage("trace_explorer");
    return 1;
  }
  return 0;
}
