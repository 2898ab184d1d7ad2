// Shared flag vocabulary for the CLI tools (ISSUE 9).
//
// trace_explorer and elog_tool grew the same flags independently —
// --threads, --keep-going, --map, --shards, --stream-report — each
// with its own registration string and its own decode helper. This
// header defines every shared flag ONCE as an add_*_flag / decoder
// pair, so a new surface (the serve subcommand) inherits the exact
// semantics (negative-thread clamping, the mapping registry) instead
// of re-implementing them. Per-tool wording that genuinely differs
// (what "keep going" quarantines, what the mapping is used for) stays
// a parameter; behavior does not.
#pragma once

#include <cstddef>
#include <string>

#include "model/mapping.hpp"
#include "support/cli.hpp"
#include "support/run_policy.hpp"

namespace st::cliargs {

/// --threads <n>: worker-thread count, 0 = hardware concurrency.
void add_threads_flag(CliParser& cli, const std::string& what = "worker");

/// --threads as a pool size: negative values would wrap through the
/// size_t cast into a SIZE_MAX-worker pool; clamp them to 0 (hardware).
[[nodiscard]] std::size_t thread_count(const CliParser& cli);

/// --keep-going (boolean): quarantine-and-continue error policy.
/// `quarantines` names what the tool drops, e.g. "unreadable trace
/// files / CRC-failing v2 cases".
void add_keep_going_flag(CliParser& cli, const std::string& quarantines);

/// --keep-going as the shared RunPolicy (support/run_policy.hpp) —
/// brace-init StreamOptions or ElogReadOptions from the result.
[[nodiscard]] RunPolicy run_policy(const CliParser& cli);

/// --map <name>: activity mapping by registry short name.
void add_map_flag(CliParser& cli, const std::string& what, const std::string& default_name);

/// --map resolved through the shared registry (model::mapping_by_name,
/// so coordinator and spawned workers cannot drift).
[[nodiscard]] model::Mapping mapping(const CliParser& cli);

/// --shards <n>: worker-process count for sharded runs.
void add_shards_flag(CliParser& cli, const std::string& what, const std::string& default_count);

/// --shards as a worker count, clamped to >= 1.
[[nodiscard]] std::size_t shard_count(const CliParser& cli);

/// --stream-report: single-pass streamed HTML report. Value-taking
/// (elog_tool writes it to the given path) or boolean (trace_explorer
/// redirects stdout), per `takes_path`.
void add_stream_report_flag(CliParser& cli, const std::string& help, bool takes_path);

}  // namespace st::cliargs
