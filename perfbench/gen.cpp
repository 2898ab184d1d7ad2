// pb_gen: the benchmark's seeded input generator. Makes the paper's IOR
// campaign (SSF, FPP, POSIX, MPI-IO runs) through the same iosim calls
// campaign_runner makes — make_*_options, run_ior, write_files — with
// the campaign seed taken from the command line.
//
//   pb_gen --out DIR --ranks N --seed S
//
// Writes DIR/traces/<run>/cid_host_rid.st, DIR/files.txt (one trace
// path per line, in campaign order) and prints one JSON line describing
// the corpus: files, bytes, cases, events and the event time range.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "iosim/campaign.hpp"
#include "strace/filename.hpp"
#include "support/cli.hpp"
#include "support/errors.hpp"

int main(int argc, char** argv) {
  using namespace st;
  CliParser cli;
  cli.add_flag("out", "output directory", std::nullopt);
  cli.add_flag("ranks", "MPI ranks per run", "96");
  cli.add_flag("seed", "campaign seed", "42");
  try {
    cli.parse(argc, argv);
    if (!cli.has("out")) throw ParseError("--out is required");
    const std::string out = cli.get("out");

    iosim::CampaignScale scale;
    scale.num_ranks = static_cast<int>(cli.get_int("ranks"));
    if (scale.num_ranks < 2) throw ParseError("--ranks must be >= 2");
    // campaign_runner's 48 ranks per node; small campaigns keep two
    // nodes so the -C read-back still crosses a node boundary.
    scale.ranks_per_node = std::min(48, scale.num_ranks / 2);
    scale.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

    const struct {
      const char* name;
      iosim::IorOptions options;
    } runs[] = {
        {"ssf", iosim::make_ssf_options(scale)},
        {"fpp", iosim::make_fpp_options(scale)},
        {"posix", iosim::make_posix_options(scale)},
        {"mpiio", iosim::make_mpiio_options(scale)},
    };

    std::filesystem::create_directories(out);
    std::ofstream list(out + "/files.txt", std::ios::trunc);
    std::uint64_t files = 0;
    std::uint64_t bytes = 0;
    std::uint64_t cases = 0;
    std::uint64_t events = 0;
    Micros t_min = std::numeric_limits<Micros>::max();
    Micros t_max = std::numeric_limits<Micros>::min();
    for (const auto& run : runs) {
      const auto traces = iosim::run_ior(run.options);
      const std::string dir = out + "/traces/" + run.name;
      traces.write_files(dir);
      for (const auto& t : traces.traces) {
        const std::string path = dir + "/" + strace::format_trace_filename(t.id);
        list << path << "\n";
        bytes += std::filesystem::file_size(path);
        ++files;
      }
      const auto log = traces.to_event_log();
      cases += log.case_count();
      events += log.total_events();
      for (const auto& c : log.cases()) {
        for (const auto& e : c.events()) {
          t_min = std::min(t_min, e.start);
          t_max = std::max(t_max, e.end());
        }
      }
    }
    if (!list.flush()) throw IoError("cannot write " + out + "/files.txt");
    std::cout << "{\"files\":" << files << ",\"bytes\":" << bytes << ",\"cases\":" << cases
              << ",\"events\":" << events << ",\"t_min\":" << t_min << ",\"t_max\":" << t_max
              << ",\"ranks\":" << scale.num_ranks << ",\"ranks_per_node\":"
              << scale.ranks_per_node << "}\n";
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << cli.usage("pb_gen");
    return 1;
  }
  return 0;
}
