// Single-Shared-File vs File-Per-Process (paper Sec. V-A, Fig. 8).
//
// Simulates the two IOR runs of Fig. 7b, merges their event logs,
// and answers the paper's question: does shared-file contention show
// up as inflated openat/write durations under $SCRATCH/ssf?
//
//   ./ior_ssf_vs_fpp [--ranks 96] [--ranks-per-node 48] [--elog out.elog]
#include <iostream>

#include "dfg/builder.hpp"
#include "dfg/render.hpp"
#include "elog/v2_store.hpp"
#include "iosim/campaign.hpp"
#include "support/cli.hpp"
#include "support/errors.hpp"

int main(int argc, char** argv) {
  using namespace st;
  CliParser cli;
  cli.add_flag("ranks", "MPI ranks per run", "96");
  cli.add_flag("ranks-per-node", "ranks per simulated host", "48");
  cli.add_flag("elog", "also store the merged event log to this file", std::nullopt);
  try {
    cli.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << cli.usage("ior_ssf_vs_fpp");
    return 1;
  }

  iosim::CampaignScale scale;
  scale.num_ranks = static_cast<int>(cli.get_int("ranks"));
  scale.ranks_per_node = static_cast<int>(cli.get_int("ranks-per-node"));

  std::cout << "# " << iosim::make_ssf_options(scale).command_line() << "\n";
  std::cout << "# " << iosim::make_fpp_options(scale).command_line() << "\n\n";

  const auto log = iosim::ssf_fpp_campaign(scale);
  std::cout << "event log: " << log.case_count() << " cases, " << log.total_events()
            << " events (openat/read/write variants)\n\n";

  if (cli.has("elog")) {
    elog::write_event_log_v2_file(cli.get("elog"), log);
    std::cout << "stored event log to " << cli.get("elog") << "\n\n";
  }

  // Fig. 8a: all events, site-collapsed mapping, statistics coloring.
  {
    const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 0);
    const auto g = dfg::build_serial(log, f);
    const auto stats = dfg::IoStatistics::compute(log, f);
    const dfg::StatisticsColoring styler(stats);
    dfg::RenderOptions opts;
    opts.graph_name = "Fig. 8a: all events";
    std::cout << "=== Fig. 8a: DFG over all events ===\n"
              << dfg::render_ascii(g, &stats, &styler, opts) << "\n";
  }

  // Fig. 8b: restrict to $SCRATCH, one extra path level (ssf vs fpp).
  {
    const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 1)
                       .filtered_fp("/p/scratch");
    const auto g = dfg::build_serial(log, f);
    const auto stats = dfg::IoStatistics::compute(log, f);
    const dfg::StatisticsColoring styler(stats);
    dfg::RenderOptions opts;
    opts.graph_name = "Fig. 8b: $SCRATCH only";
    std::cout << "=== Fig. 8b: DFG over $SCRATCH events ===\n"
              << dfg::render_ascii(g, &stats, &styler, opts) << "\n";

    const auto* ssf_write = stats.find("write\n$SCRATCH/ssf");
    const auto* fpp_write = stats.find("write\n$SCRATCH/fpp");
    if (ssf_write != nullptr && fpp_write != nullptr && fpp_write->rel_dur > 0) {
      std::cout << "SSF write load is " << ssf_write->rel_dur / fpp_write->rel_dur
                << "x the FPP write load -> file-locking contention quantified.\n";
    }
  }
  return 0;
}
