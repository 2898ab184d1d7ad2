// elog store: path-level entry points for reading an elog container.
//
// Mirrors the paper's HDF5 layout: one group per case with columns
// pid / call / start / dur / fp / size sorted by start. The container
// is elog v2 (v2_format.hpp): opening maps the file and decodes only
// the footer, section table and case directory; these functions then
// materialize every case into an EventLog that adopts the mapping.
// Writers live in v2_store.hpp (write_event_log_v2_file, ElogV2Writer).
#pragma once

#include <memory>
#include <string>

#include "model/event_log.hpp"
#include "support/run_policy.hpp"

namespace st::elog {

class MappedElog;

/// keep_going (inherited RunPolicy, support/run_policy.hpp) == true: a
/// case section failing CRC is quarantined with a warning on the
/// returned log instead of aborting the read (v2_store.hpp
/// read_event_log_v2).
struct ElogReadOptions : RunPolicy {};

/// Reads a whole container. Throws IoError on a missing, short,
/// truncated, corrupt or non-v2 file.
[[nodiscard]] model::EventLog read_event_log_file(const std::string& path,
                                                  const ElogReadOptions& opts = {});

/// read_event_log_file plus the mapped container handle when (and only
/// when) the read was CLEAN: no quarantined cases, so the log's case
/// numbering lines up 1:1 with the container's (elog::IndexedSegment).
/// A read that quarantined anything under keep_going comes back with
/// mapped == nullptr. perfbench's trace driver is its one other caller.
struct LoadedElog {
  model::EventLog log;
  std::shared_ptr<MappedElog> mapped;
};
[[nodiscard]] LoadedElog read_event_log_file_indexed(const std::string& path,
                                                     const ElogReadOptions& opts = {});

}  // namespace st::elog
