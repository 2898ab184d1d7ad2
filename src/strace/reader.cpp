#include "strace/reader.hpp"

#include <algorithm>

#include "strace/parser.hpp"
#include "strace/scan_kernels.hpp"
#include "support/errors.hpp"
#include "support/strings.hpp"

namespace st::strace {

ReadResult read_trace_buffer(std::shared_ptr<TraceBuffer> buffer) {
  ReadResult result;
  result.buffer = std::move(buffer);
  const std::string_view text = result.buffer->text();
  StringArena& arena = result.buffer->arena();
  result.records.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1);

  ResumeMerger merger(arena);
  std::string problem;  // the merger's verdict on the last record
  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = kernels::find_byte(text, start, '\n');
    const std::size_t stop = nl == kernels::npos ? text.size() : nl;
    const std::string_view line = text.substr(start, stop - start);
    ++lineno;

    do {  // single-iteration scope so error paths can break to the next line
      if (trim(line).empty()) break;
      std::optional<RawRecord> rec;
      try {
        rec = parse_line(line, arena);
      } catch (const ParseError& e) {
        result.warnings.push_back("line " + std::to_string(lineno) + ": " + e.what());
        break;
      }
      if (!rec) break;
      std::optional<RawRecord> complete = merger.feed(std::move(*rec), problem);
      if (!problem.empty()) {
        result.warnings.push_back("line " + std::to_string(lineno) + ": " + problem);
        break;
      }
      if (!complete) break;
      if (complete->kind == RecordKind::Signal || complete->kind == RecordKind::Exit) break;
      if (complete->is_restart()) break;
      result.records.push_back(*complete);
    } while (false);

    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }

  for (auto& pending : merger.take_pending()) {
    result.warnings.push_back("unfinished call never resumed: pid " +
                              std::to_string(pending.pid) + " " + std::string(pending.call));
  }
  return result;
}

ReadResult read_trace_text(std::string_view text) {
  return read_trace_buffer(std::make_shared<TraceBuffer>(std::string(text)));
}

ReadResult read_trace_file(const std::string& path) {
  return read_trace_buffer(TraceBuffer::from_file_mmap(path));
}

}  // namespace st::strace
