// campaign_runner: regenerates the paper's experimental artifact — a
// directory of strace-format trace files for every run (SSF, FPP,
// POSIX, MPI-IO) plus the processed elog containers, mirroring the
// dataset the authors published on Zenodo.
//
//   ./campaign_runner --out /tmp/st_dataset [--ranks 96] [--threads 1]
//
// Layout produced:
//   <out>/traces/ssf/ssf_node{1,2}_*.st      raw traces, one per rank
//   <out>/traces/fpp/..., posix/, mpiio/
//   <out>/ssf_fpp.elog                        merged CX event log
//   <out>/mpiio.elog                          merged CY event log
//   <out>/summary.txt                         per-case summaries
#include <filesystem>
#include <fstream>
#include <iostream>
#include <utility>

#include "elog/v2_store.hpp"
#include "iosim/campaign.hpp"
#include "dfg/builder.hpp"
#include "model/case_stats.hpp"
#include "model/from_strace.hpp"
#include "report/report.hpp"
#include "strace/filename.hpp"
#include "support/cli.hpp"
#include "support/errors.hpp"

int main(int argc, char** argv) {
  using namespace st;
  CliParser cli;
  cli.add_flag("out", "output directory", "/tmp/st_dataset");
  cli.add_flag("ranks", "MPI ranks per run", "96");
  cli.add_flag("ranks-per-node", "ranks per simulated host", "48");
  cli.add_flag("threads", "child processes per rank (SMT mode)", "1");
  cli.add_flag("verify", "re-ingest the written trace files and check event counts",
               std::nullopt, true);
  try {
    cli.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << cli.usage("campaign_runner");
    return 1;
  }
  const std::string out = cli.get("out");

  iosim::CampaignScale scale;
  scale.num_ranks = static_cast<int>(cli.get_int("ranks"));
  scale.ranks_per_node = static_cast<int>(cli.get_int("ranks-per-node"));
  const int threads = static_cast<int>(cli.get_int("threads"));

  const struct {
    const char* name;
    iosim::IorOptions options;
  } runs[] = {
      {"ssf", iosim::make_ssf_options(scale)},
      {"fpp", iosim::make_fpp_options(scale)},
      {"posix", iosim::make_posix_options(scale)},
      {"mpiio", iosim::make_mpiio_options(scale)},
  };

  model::EventLog all_cases;
  for (const auto& run : runs) {
    iosim::IorOptions options = run.options;
    options.threads_per_rank = threads;
    std::cout << "# " << options.command_line() << "\n";
    const auto traces = iosim::run_ior(options);
    const std::string dir = out + "/traces/" + run.name;
    traces.write_files(dir);
    std::cout << "  -> " << traces.traces.size() << " trace files in " << dir << "\n";
    all_cases = model::EventLog::merge(std::move(all_cases), traces.to_event_log());

    if (cli.get_bool("verify")) {
      // Round-trip check: the written strace text must re-ingest (via
      // the zero-copy parallel reader) to the same number of events.
      std::vector<std::string> files;
      files.reserve(traces.traces.size());
      for (const auto& t : traces.traces) {
        files.push_back(dir + "/" + strace::format_trace_filename(t.id));
      }
      const auto reread = model::event_log_from_files(files);
      const auto direct = traces.to_event_log();
      if (reread.total_events() != direct.total_events()) {
        throw LogicError("trace round-trip mismatch in " + dir + ": wrote " +
                         std::to_string(direct.total_events()) + " events, re-read " +
                         std::to_string(reread.total_events()));
      }
      std::cout << "  -> verified: " << reread.total_events() << " events re-ingested\n";
    }
  }

  // Processed containers, as the paper stores them ("a single HDF5 file").
  elog::write_event_log_v2_file(out + "/ssf_fpp.elog", iosim::ssf_fpp_campaign(scale));
  elog::write_event_log_v2_file(out + "/mpiio.elog", iosim::mpiio_campaign(scale));
  std::cout << "  -> " << out << "/ssf_fpp.elog, " << out << "/mpiio.elog\n";

  // HTML reports (DFG as SVG + statistics tables), one per experiment.
  {
    const auto cx = iosim::ssf_fpp_campaign(scale);
    const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 1);
    const auto stats = dfg::IoStatistics::compute(cx, f);
    const dfg::StatisticsColoring styler(stats);
    report::ReportOptions opts;
    opts.title = "IOR: single shared file vs file per process";
    opts.description = "Reproduction of Fig. 8 (paper arXiv:2408.07378)";
    report::write_report_file(out + "/ssf_fpp_report.html", cx, f, &styler, opts);

    const auto cy = iosim::mpiio_campaign(scale);
    const auto [green, red] =
        cy.partition([](const model::Case& c) { return c.id().cid == "mpiio"; });
    const dfg::PartitionColoring partition(dfg::build_serial(green, f),
                                           dfg::build_serial(red, f));
    report::ReportOptions opts9;
    opts9.title = "IOR: with vs without MPI-IO";
    opts9.description = "Reproduction of Fig. 9 (paper arXiv:2408.07378)";
    opts9.partition_legend = "green = MPI-IO run only, red = POSIX run only";
    report::write_report_file(out + "/mpiio_report.html", cy, f, &partition, opts9);
    std::cout << "  -> " << out << "/ssf_fpp_report.html, " << out << "/mpiio_report.html\n";
  }

  // Human-readable inventory.
  std::ofstream summary(out + "/summary.txt");
  if (!summary) throw IoError("cannot write summary: " + out);
  summary << render_case_summaries(summarize_cases(all_cases));
  std::cout << "  -> " << out << "/summary.txt (" << all_cases.case_count() << " cases, "
            << all_cases.total_events() << " events)\n";
  return 0;
}
