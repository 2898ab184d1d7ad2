// RunPolicy — the keep-going family of execution policy, in one place.
//
// Streaming ingest (pipeline::StreamOptions) and elog reads
// (elog::ElogReadOptions, for paths and mapped containers alike) offer
// the same decision: abort on the first data error, or quarantine the
// bad unit (file / case section) and keep going. Both option structs
// inherit this one, so code that threads policy through layers (the
// serve loop, the CLIs' --keep-going flag) sets it once and brace-inits
// either with `{policy}`.
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
