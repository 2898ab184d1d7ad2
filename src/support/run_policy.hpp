// RunPolicy — the keep-going family of execution policy, in one place.
//
// Streaming ingest (pipeline::StreamOptions), path-level elog reads
// (elog::ElogReadOptions) and mapped elog reads (elog::V2ReadOptions)
// all offer the same decision: abort on the first data error, or quarantine
// the bad unit (line / file / section) and keep going. Before ISSUE 9
// each of the three option structs re-declared its own `keep_going`
// bool; now they inherit this struct, so code that threads policy
// through layers (the serve loop, the CLIs' --keep-going flag) sets it
// once and brace-inits any of the three with `{policy}`.
//
// ShardOptions carries its policy inside its embedded StreamOptions
// (`shard.stream.keep_going`) rather than inheriting a fourth copy —
// the shard runner's own recovery (retry / quarantine of whole shards)
// is supervision, not parse policy, and is configured separately.
#pragma once

namespace st {

struct RunPolicy {
  /// False: the first data error aborts the run with a typed error.
  /// True: quarantine the failing unit, record a warning, continue.
  bool keep_going = false;
};

}  // namespace st
