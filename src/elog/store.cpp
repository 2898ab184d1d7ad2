#include "elog/store.hpp"

#include "elog/v2_store.hpp"

namespace st::elog {

model::EventLog read_event_log_file(const std::string& path, const ElogReadOptions& opts) {
  return read_event_log_file_indexed(path, opts).log;
}

LoadedElog read_event_log_file_indexed(const std::string& path, const ElogReadOptions& opts) {
  auto mapped = open_v2(path);
  model::EventLog log = read_event_log_v2(mapped, opts);
  // Quarantines break the 1:1 case correspondence.
  const bool clean = log.warnings().empty() && log.case_count() == mapped->case_count();
  return {std::move(log), clean ? std::move(mapped) : nullptr};
}

}  // namespace st::elog
