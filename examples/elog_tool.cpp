// elog_tool: inspect, filter, convert and merge elog containers.
//
//   ./elog_tool info run.elog                      # case inventory
//   ./elog_tool merge out.elog a.elog b.elog       # union of logs
//   ./elog_tool filter out.elog in.elog --fp /p/scratch --calls read,write
//   ./elog_tool export in.elog --map site1         # stats CSV to stdout
//   ./elog_tool import out.elog a_host1_9042.st... # strace -> elog
//   ./elog_tool import out.elog a_host1_9042.st... --stream-report r.html
//                       # same single pass also folds the HTML report
//   ./elog_tool convert out.elog in.elog           # re-encode + (re)index
//   ./elog_tool stat run.elog [source.st...]       # format/section stats
//   ./elog_tool fold-shard out.partial a_h1_1.st.. # one shard's partials
//   ./elog_tool merge-partials r.html s0.partial.. # reduce + render
//   ./elog_tool report-sharded r.html --shards 4 a_h1_1.st...
//                       # spawn fold-shard workers, merge, render —
//                       # byte-identical to import --stream-report
//
// Commands that write a container produce the columnar mmap-able elog
// v2 format ("import once, analyze many times"), with the advisory
// index sections unless --no-index asks for a bare file.
#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <utility>

#include "dfg/export.hpp"
#include "dfg/stats.hpp"
#include "elog/store.hpp"
#include "elog/v2_store.hpp"
#include "model/case_stats.hpp"
#include "model/from_strace.hpp"
#include "model/query.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/shard.hpp"
#include "pipeline/sink.hpp"
#include "report/report.hpp"
#include "support/cli.hpp"
#include "support/cli_args.hpp"
#include "support/errors.hpp"
#include "support/faultpoint.hpp"
#include "support/publish.hpp"
#include "support/strings.hpp"

namespace {

/// Shard worker options shared by fold-shard / report-sharded: the
/// flags the coordinator forwards to its subprocesses.
st::pipeline::ShardOptions shard_options(const st::CliParser& cli) {
  st::pipeline::ShardOptions opts;
  opts.mapping = cli.get("map");
  opts.worker_threads = st::cliargs::thread_count(cli);
  static_cast<st::RunPolicy&>(opts.stream) = st::cliargs::run_policy(cli);
  return opts;
}

/// Reads an elog container honoring --keep-going (quarantined v2 cases
/// become warnings, echoed to stderr like the ingestion paths').
st::model::EventLog read_elog(const std::string& path, const st::CliParser& cli) {
  auto log =
      st::elog::read_event_log_file(path, st::elog::ElogReadOptions{st::cliargs::run_policy(cli)});
  for (const auto& w : log.warnings()) std::cerr << "warning: " << path << ": " << w << "\n";
  return log;
}

/// This binary's own path (for report-sharded's self-spawned workers):
/// /proc/self/exe where available, else argv[0].
std::string self_exe(const char* argv0) {
  std::error_code ec;
  const auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return path.string();
  return argv0;
}

/// The writer options of every container-writing verb: index
/// sections unless --no-index asks for a bare file.
st::elog::ElogV2WriterOptions writer_options(const st::CliParser& cli) {
  return st::elog::ElogV2WriterOptions{!cli.get_bool("no-index")};
}

void write_log(const std::string& path, const st::model::EventLog& log,
               const st::CliParser& cli) {
  st::elog::write_event_log_v2_file(path, log, writer_options(cli));
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw st::IoError("cannot stat file: " + path);
  return size;
}

void stat_elog(const std::string& path, const st::CliParser& cli,
               const std::vector<std::string>& sources) {
  using st::elog::SectionKind;
  const auto mapped = st::elog::open_v2(path);
  std::cout << path << ": elog v2, " << mapped->case_count() << " cases, "
            << mapped->total_events() << " events, " << mapped->file_size() << " bytes ("
            << (mapped->is_mapped() ? "mmap" : "read") << ")\n";

  struct KindStats {
    std::size_t count = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::uint32_t, KindStats> kinds;
  std::size_t varint_cases = 0;
  for (const st::elog::SectionEntry& e : mapped->sections()) {
    auto& k = kinds[static_cast<std::uint32_t>(e.kind)];
    ++k.count;
    k.bytes += e.length;
    if (e.kind == SectionKind::kColStart && e.aux == st::elog::kStartEncodingVarint) {
      ++varint_cases;
    }
  }
  std::cout << "sections: " << mapped->sections().size() << "\n";
  for (const auto& [kind_raw, k] : kinds) {
    const auto kind = static_cast<SectionKind>(kind_raw);
    std::cout << "  " << st::elog::section_kind_name(kind) << ": " << k.count
              << (k.count == 1 ? " section, " : " sections, ") << k.bytes << " bytes";
    if (kind == SectionKind::kStringPool) {
      std::cout << " (" << mapped->pool_count() << " strings, " << mapped->pool_blob_bytes()
                << " blob bytes)";
    }
    if (kind == SectionKind::kColStart) {
      std::cout << " (varint in " << varint_cases << "/" << mapped->case_count() << " cases)";
    }
    std::cout << "\n";
  }
  if (mapped->has_index()) {
    // index_view() CRC- and structurally validates whatever is present,
    // so a corrupt index fails stat the same way queries would.
    const auto iv = mapped->index_view();
    std::vector<std::string> parts;
    if (iv.zones != nullptr) parts.emplace_back("zone maps");
    if (iv.call_ends != nullptr) parts.emplace_back("call sets");
    if (iv.fp_ends != nullptr) parts.emplace_back("fp sets");
    if (iv.posting_table != nullptr) {
      parts.emplace_back("posting list (" + std::to_string(iv.posting_keys) + " keys)");
    }
    std::cout << "index: " << st::join(parts, ", ") << "\n";
  } else {
    std::cout << "index: none (queries fall back to scan)\n";
  }
  if (!sources.empty()) {
    std::uint64_t source_bytes = 0;
    for (const auto& s : sources) source_bytes += file_bytes(s);
    std::cout << "compression: " << mapped->file_size() << " / " << source_bytes
              << " source trace bytes";
    if (source_bytes > 0) {
      std::cout << " = "
                << (100.0 * static_cast<double>(mapped->file_size()) /
                    static_cast<double>(source_bytes))
                << "%";
    }
    std::cout << "\n";
  }
  if (cli.get_bool("verify")) {
    mapped->verify();
    std::cout << "verify: ok (all section crcs + index invariants + padding)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace st;
  CliParser cli;
  cli.add_flag("fp", "filter: keep events whose path contains this", std::nullopt);
  cli.add_flag("calls", "filter: comma-separated call families", std::nullopt);
  cliargs::add_map_flag(cli, "mapping for export", "site");
  cliargs::add_threads_flag(cli, "ingestion worker (import)");
  cliargs::add_stream_report_flag(
      cli,
      "import: also write a single-pass HTML report (DFG + case table + variants, "
      "folded in the same streamed pass that fills the elog) to this file",
      /*takes_path=*/true);
  cli.add_flag("verify", "stat: run the full per-section crc pass", std::nullopt, true);
  cli.add_flag("no-index",
               "write the container without the advisory index sections (zone maps, id "
               "sets, posting list); readers fall back to the column scan",
               std::nullopt, true);
  cliargs::add_shards_flag(cli, "report-sharded: number of fold-shard worker processes", "2");
  cliargs::add_keep_going_flag(cli, "unreadable trace files / CRC-failing v2 cases");
  cli.add_flag("shard-index",
               "fold-shard: this worker's shard number (set by the coordinator; enables "
               "the per-shard shard.child#<i> fault site)",
               std::nullopt);
  try {
    cli.parse(argc, argv);
    const auto& args = cli.positional();
    if (args.empty()) {
      throw ParseError(
          "usage: elog_tool info|merge|filter|export|import|convert|stat|"
          "fold-shard|merge-partials|report-sharded ...");
    }
    const std::string& command = args[0];
    if (command != "filter" && (cli.has("fp") || cli.has("calls"))) {
      // Only filter applies a query; any other verb would silently
      // ignore it and write unfiltered output.
      throw ParseError("--fp/--calls apply to filter only, not " + command);
    }

    if (command == "info") {
      if (args.size() != 2) throw ParseError("info takes one elog file");
      const auto log = read_elog(args[1], cli);
      std::cout << args[1] << ": " << log.case_count() << " cases, " << log.total_events()
                << " events\n\n"
                << model::render_case_summaries(model::summarize_cases(log));
    } else if (command == "merge") {
      if (args.size() < 4) throw ParseError("merge takes an output and >= 2 inputs");
      model::EventLog merged;
      for (std::size_t i = 2; i < args.size(); ++i) {
        merged = model::EventLog::merge(std::move(merged), read_elog(args[i], cli));
      }
      write_log(args[1], merged, cli);
      std::cout << "wrote " << merged.case_count() << " cases to " << args[1] << "\n";
    } else if (command == "filter") {
      if (args.size() != 3) throw ParseError("filter takes an output and one input");
      model::Query query;
      if (cli.has("fp")) query = query.fp_contains(cli.get("fp"));
      if (cli.has("calls")) {
        std::vector<std::string> families;
        for (const auto part : split(cli.get("calls"), ',')) families.emplace_back(part);
        query = query.calls(std::move(families));
      }
      ThreadPool pool(cliargs::thread_count(cli));
      const auto filtered = query.apply(read_elog(args[2], cli), pool);
      write_log(args[1], filtered, cli);
      std::cout << "query [" << query.describe() << "] kept " << filtered.total_events()
                << " events; wrote " << args[1] << "\n";
    } else if (command == "import") {
      // strace text -> elog container, through the streaming pipeline:
      // zero-copy parse on one pool, each file converted to a Case on
      // the thread that finished its parse (cid_host_rid.st naming
      // required, no case id twice) and freed once folded. The
      // container is written by a sink ON that pass — cases stream
      // into the file as they convert, byte-identical to a staged
      // write at any worker count.
      if (args.size() < 3) throw ParseError("import takes an output and >= 1 trace files");
      const std::vector<std::string> files(args.begin() + 2, args.end());
      ThreadPool pool(cliargs::thread_count(cli));
      pipeline::StreamOptions stream_opts;
      static_cast<RunPolicy&>(stream_opts) = cliargs::run_policy(cli);
      elog::ElogV2Writer writer(args[1], writer_options(cli));
      elog::ElogV2WriterSink sink(writer);
      const std::array<pipeline::CaseSink*, 1> extra{&sink};
      pipeline::IngestSummary summary;
      if (cli.has("stream-report")) {
        // One streamed pass, two artifacts: the report's sinks and the
        // container sink.
        auto result =
            report::streaming_report(files, cliargs::mapping(cli), pool, {}, stream_opts, extra);
        publish_file(cli.get("stream-report"), result.html);
        summary = std::move(result.summary);
        std::cout << "wrote single-pass report to " << cli.get("stream-report") << "\n";
      } else {
        summary = pipeline::ingest(files, pool, extra, stream_opts);
      }
      for (const auto& w : summary.warnings) std::cerr << "warning: " << w << "\n";
      writer.finalize();
      std::cout << "imported " << files.size() << " trace files (" << summary.total_events
                << " events) into " << args[1] << "\n";
    } else if (command == "convert") {
      // Lossless re-encode. The write rebuilds the index sections, so
      // converting an index-free file (or one written before the index
      // existed) upgrades it; --no-index strips them instead.
      if (args.size() != 3) throw ParseError("convert takes an output and one input");
      const auto log = read_elog(args[2], cli);
      write_log(args[1], log, cli);
      std::cout << "converted " << args[2] << " -> " << args[1] << " (" << log.case_count()
                << " cases)\n";
    } else if (command == "stat") {
      if (args.size() < 2) throw ParseError("stat takes an elog file [+ source traces]");
      const std::vector<std::string> sources(args.begin() + 2, args.end());
      stat_elog(args[1], cli, sources);
    } else if (command == "fold-shard") {
      // One shard of a sharded analysis: stream the given trace files
      // through pipeline::ingest with EVERY analytic sink and write the
      // encoded ShardPartial blob. Silent on success (the coordinator
      // owns all reporting); diagnostics go to stderr via the error
      // path like every other command.
      if (args.size() < 3) throw ParseError("fold-shard takes an output and >= 1 trace files");
      const std::vector<std::string> files(args.begin() + 2, args.end());
      // Worker-side fault sites, HERE and not in pipeline::fold_shard,
      // so the coordinator's in-process fallback cannot trip them:
      // "shard.child" hits any worker, "shard.child#<i>" exactly one.
      FAULT_POINT("shard.child");
      if (cli.has("shard-index")) {
        FAULT_POINT("shard.child#" + cli.get("shard-index"));
      }
      publish_file(args[1], pipeline::fold_shard(files, shard_options(cli)));
    } else if (command == "merge-partials") {
      // The coordinator's reduce step as its own verb: decode blobs
      // (any corruption -> IoError via the codec's CRCs), merge them
      // in argument order, render the report. Byte-identical to
      // import --stream-report over the same files in the same order.
      if (args.size() < 3) throw ParseError("merge-partials takes an output and >= 1 partials");
      std::vector<pipeline::ShardPartial> parts;
      parts.reserve(args.size() - 2);
      for (std::size_t i = 2; i < args.size(); ++i) {
        std::ifstream in(args[i], std::ios::binary);
        if (!in) throw IoError("cannot open shard partial: " + args[i]);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        if (in.bad()) throw IoError("cannot read shard partial: " + args[i]);
        parts.push_back(pipeline::decode_shard_partial(std::move(bytes).str()));
      }
      ThreadPool pool(cliargs::thread_count(cli));
      const auto analytics = pipeline::finalize_shards(std::move(parts), &pool);
      for (const auto& w : analytics.warnings) std::cerr << "warning: " << w << "\n";
      publish_file(args[1], report::render_sharded_report(analytics, cliargs::mapping(cli)));
      std::cout << "merged " << (args.size() - 2) << " shard partials ("
                << analytics.case_count << " cases) into " << args[1] << "\n";
    } else if (command == "report-sharded") {
      // Map + reduce in one verb: split the trace files over --shards
      // spawned fold-shard copies of this binary, merge their blobs in
      // shard order, render. Bit-identical to the in-process
      // single-pass report at any shard count.
      if (args.size() < 3) throw ParseError("report-sharded takes an output and >= 1 trace files");
      const std::vector<std::string> files(args.begin() + 2, args.end());
      auto sopts = shard_options(cli);
      sopts.shards = cliargs::shard_count(cli);
      sopts.fold_shard_exe = self_exe(argv[0]);
      const auto analytics = pipeline::run_sharded(files, sopts);
      for (const auto& w : analytics.warnings) std::cerr << "warning: " << w << "\n";
      // Supervision outcome goes to STDERR as diagnostics — never into
      // the report, which stays byte-identical to the clean run.
      for (const auto& line : analytics.shard_report.to_lines()) {
        std::cerr << "shard-recovery: " << line << "\n";
      }
      publish_file(args[1], report::render_sharded_report(analytics, cliargs::mapping(cli)));
      std::cout << "sharded report over " << files.size() << " trace files (x" << sopts.shards
                << " workers) written to " << args[1] << "\n";
    } else if (command == "export") {
      if (args.size() != 2) throw ParseError("export takes one elog file");
      const auto log = read_elog(args[1], cli);
      const auto f = cliargs::mapping(cli);
      std::cout << dfg::stats_to_csv(dfg::IoStatistics::compute(log, f));
    } else {
      throw ParseError("unknown command: " + command);
    }
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << cli.usage("elog_tool");
    return 1;
  }
  return 0;
}
