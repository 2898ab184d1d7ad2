#include "support/cli_args.hpp"

#include <algorithm>
#include <cstdint>

namespace st::cliargs {

void add_threads_flag(CliParser& cli, const std::string& what) {
  cli.add_flag("threads", what + " threads (0 = hardware)", "0");
}

std::size_t thread_count(const CliParser& cli) {
  return static_cast<std::size_t>(std::max<std::int64_t>(0, cli.get_int("threads")));
}

void add_keep_going_flag(CliParser& cli, const std::string& quarantines) {
  cli.add_flag("keep-going",
               "quarantine " + quarantines + " with a warning instead of aborting "
               "(default: fail fast)",
               std::nullopt, true);
}

RunPolicy run_policy(const CliParser& cli) {
  return RunPolicy{cli.get_bool("keep-going")};
}

void add_map_flag(CliParser& cli, const std::string& what, const std::string& default_name) {
  cli.add_flag("map", what + ": top1|top2|last1|last2|call|site|site1", default_name);
}

model::Mapping mapping(const CliParser& cli) {
  return model::mapping_by_name(cli.get("map"));
}

void add_shards_flag(CliParser& cli, const std::string& what, const std::string& default_count) {
  cli.add_flag("shards", what, default_count);
}

std::size_t shard_count(const CliParser& cli) {
  return static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("shards")));
}

void add_stream_report_flag(CliParser& cli, const std::string& help, bool takes_path) {
  cli.add_flag("stream-report", help, std::nullopt, !takes_path);
}

}  // namespace st::cliargs
