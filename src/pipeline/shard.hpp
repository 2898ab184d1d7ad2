// pipeline::run_sharded — "one pass, any scale" (ISSUE 7 tentpole).
//
// The streamed pipeline::ingest already folds every analytic in one pass
// inside one process. This layer splits the input FILES across shards
// and runs that same pass once per shard, each shard emitting one
// serialized ShardPartial blob (partial_codec.hpp). The coordinator
// decodes the blobs and merges them strictly in shard (= input) order,
// then finalizes — the exact add_case -> merge -> finalize path the
// in-process run takes, so the sharded output is bit-identical to
// pipeline::ingest at ANY shard count, doubles included (the FP sums all
// happen in finalize(), through the fixed-shape pairwise tree of
// dfg/stats.hpp).
//
// Two execution modes, one result:
//   - fold_shard_exe = ""      each shard folds in-process. The blob
//                              still round-trips through the codec, so
//                              encode/decode stays on the hot path and
//                              the modes cannot drift apart.
//   - fold_shard_exe = <path>  each shard is a spawned subprocess:
//                                <exe> fold-shard <out.partial>
//                                      --map <name> [--threads N]
//                                      [--keep-going]
//                                      [--shard-index I] <traces...>
//                              (elog_tool implements the verb). The
//                              coordinator posix_spawns all shards and
//                              SUPERVISES them (ISSUE 8): per-shard
//                              deadline with SIGKILL on expiry, bounded
//                              retries with backoff (crashed children,
//                              missing or CRC-rejected blobs are all
//                              retryable; retries scrub ST_FAULTS from
//                              the child environment so injected
//                              one-shot faults heal), and a final
//                              in-process fold_shard fallback — a
//                              transiently failing child still yields
//                              output byte-identical to the clean run.
//                              Only shards whose fallback failed too
//                              throw, lowest shard index first. What happened per shard lands in
//                              ShardedAnalytics::shard_report, NEVER in
//                              the analytics warnings (which must stay
//                              byte-identical to the streamed run).
//
// The mapping crosses the process boundary by its short CLI name
// (model::mapping_by_name) — the one registry both sides resolve
// through, so coordinator and workers cannot disagree on f.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dfg/edge_stats.hpp"
#include "dfg/stats.hpp"
#include "pipeline/partial_codec.hpp"
#include "pipeline/sink.hpp"

namespace st::pipeline {

struct ShardOptions {
  /// Number of file splits (>= 1). Files are split contiguously:
  /// shard i gets [i*n/k, (i+1)*n/k); empty splits are skipped.
  std::size_t shards = 2;

  /// Activity mapping by SHORT name (top1|top2|last1|last2|call|site|
  /// site1) — resolved via model::mapping_by_name on both sides of the
  /// process boundary.
  std::string mapping = "top2";

  /// Worker threads per shard pool (0 = hardware).
  std::size_t worker_threads = 0;

  /// Path of the fold-shard subprocess binary (elog_tool); empty runs
  /// every shard in-process (still through the codec).
  std::string fold_shard_exe;

  /// Streaming knobs for in-process folds. Only `keep_going` crosses
  /// the process boundary (as --keep-going — it changes output);
  /// `min_chunk_bytes` is not forwarded: by the determinism contract
  /// it cannot change any output byte.
  StreamOptions stream;

  // -- supervision (spawned mode only) -----------------------------------

  /// Spawn attempts per shard before falling back (>= 1).
  std::size_t max_attempts = 3;
  /// Sleep before retry r is attempt_backoff_ms * r (linear).
  std::uint32_t retry_backoff_ms = 10;
  /// Wall-clock budget per attempt; expiry SIGKILLs the child and
  /// counts as a failed attempt. 0 disables the deadline. After the
  /// last failed attempt the shard folds in-process: the subprocess is
  /// an optimization, not the only way to the bytes.
  std::uint32_t shard_timeout_ms = 120'000;
};

/// What supervision did, per shard — surfaced via `elog_tool
/// report-sharded` diagnostics. Deliberately NOT part of the analytics
/// (a recovered run's report must stay byte-identical to a clean one).
struct ShardRunReport {
  struct Shard {
    std::size_t attempts = 0;           ///< spawn attempts made
    bool fell_back = false;             ///< recovered by the in-process fold
    std::vector<std::string> failures;  ///< one line per failed attempt
  };
  std::vector<Shard> shards;

  [[nodiscard]] std::size_t total_retries() const;
  [[nodiscard]] std::size_t total_fallbacks() const;
  /// One human-readable line per shard that needed intervention.
  [[nodiscard]] std::vector<std::string> to_lines() const;
};

/// Everything the merged shard partials finalize into: the same
/// analytics one pipeline::ingest pass over all files produces.
struct ShardedAnalytics {
  /// Mapping::name() every merged partial was folded under.
  std::string mapping;
  std::uint64_t case_count = 0;
  std::uint64_t total_events = 0;
  std::vector<std::string> warnings;
  dfg::Dfg graph;
  std::vector<model::CaseSummary> case_summaries;
  model::VariantCounts variants;
  dfg::IoStatistics io_stats;
  dfg::EdgeStatistics edge_stats;
  /// The merged (pre-finalize) IoStatistics partial — timelines render
  /// from it without a log.
  dfg::IoStatistics::Partial io_partial;
  /// Data-health counters summed across shards + warning classes
  /// recomputed from the merged warning list (== the streamed run's).
  DataHealth health;
  /// Supervision outcome (spawned mode; empty shards otherwise).
  ShardRunReport shard_report;
};

/// The report's one fold: a single pipeline::ingest over `paths` with
/// the report's five sinks (DFG, case table, variants, activity
/// statistics, edge statistics) plus `extra_sinks`, which ride the
/// same pass after them, returned as the report partial. Every
/// sink-side report goes through here — fold_shard encodes the
/// partial, report::streaming_report finalizes it as one shard.
[[nodiscard]] ShardPartial fold_report(const std::vector<std::string>& paths,
                                       const model::Mapping& f, ThreadPool& pool,
                                       const StreamOptions& stream_opts = {},
                                       std::span<CaseSink* const> extra_sinks = {});

/// One shard's whole job: fold_report over `paths` on a fresh pool of
/// opts.worker_threads, returned as the encoded ShardPartial blob. This
/// is the body of the `elog_tool fold-shard` verb and of in-process
/// sharding alike.
[[nodiscard]] std::string fold_shard(const std::vector<std::string>& paths,
                                     const ShardOptions& opts);

/// Input-order merge + finalize of report partials — the coordinator's
/// reduce step, also run by merge-partials and (over one partial) by
/// report::streaming_report. With a `pool`, the activity statistics
/// finalize on it (IoStatistics::Partial::finalize); the bytes are the
/// same either way. Partials folded under different mappings are a
/// LogicError.
[[nodiscard]] ShardedAnalytics finalize_shards(std::vector<ShardPartial> parts,
                                               ThreadPool* pool = nullptr);

/// Splits `paths` across opts.shards shards, folds each (subprocess or
/// in-process per opts.fold_shard_exe), decodes and merges the blobs
/// in shard order. Spawned shards run under supervision (retry /
/// timeout / fallback, see ShardOptions); only an unrecoverable shard
/// throws — the lowest-shard-index failure first, IoError for
/// subprocess/blob problems.
[[nodiscard]] ShardedAnalytics run_sharded(const std::vector<std::string>& paths,
                                           const ShardOptions& opts);

}  // namespace st::pipeline
