// Line-level strace parser and unfinished/resumed merger.
//
// Input grammar (strace -f -tt -T -y, one record per line):
//
//   PID  HH:MM:SS.ffffff call(args) = ret [ERRNO (text)] <dur>
//   PID  HH:MM:SS.ffffff call(args <unfinished ...>
//   PID  HH:MM:SS.ffffff <... call resumed> rest) = ret <dur>
//   PID  HH:MM:SS.ffffff --- SIGxxx {siginfo} ---
//   PID  HH:MM:SS.ffffff +++ exited with N +++
//
// The parser extracts the event attributes of Sec. III of the paper
// (pid, call, start, dur, fp, size) plus structural metadata. It is
// zero-copy: record fields view into `line` except the few synthesized
// strings (decoded C paths, merged argument lists), which intern into
// the given StringArena. Argument scanning is single-pass — the
// argument list is split exactly once per record and the spans are
// shared by path and size extraction.
//
// The ResumeMerger implements the paper's rule: "the unfinished and
// the resumed records are matched using the pid, and merged into a
// single record" — the merged record keeps the start timestamp of the
// unfinished part and the duration/return value of the resumed part.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "strace/arena.hpp"
#include "strace/record.hpp"

namespace st::strace {

/// Parses one line. Returns nullopt for blank lines. Throws ParseError
/// for structurally invalid lines (no pid/timestamp, unbalanced parens).
/// The returned record views into `line` and `arena`; both must outlive
/// the record.
[[nodiscard]] std::optional<RawRecord> parse_line(std::string_view line, StringArena& arena);

/// Convenience overload for call sites without a buffer (tests, small
/// tools): synthesized strings intern into a thread-local arena that
/// lives until thread exit. `line` must still outlive the record.
[[nodiscard]] std::optional<RawRecord> parse_line(std::string_view line);

/// Stateful merger of <unfinished ...> / <... resumed> pairs.
///
/// feed() returns a record when one becomes complete: a Complete input
/// passes through, a Resumed input is merged with the pending
/// Unfinished record of the same pid. Unfinished inputs are buffered.
/// Signal/Exit records pass through untouched.
class ResumeMerger {
 public:
  /// Merged argument lists intern into `arena` (typically the
  /// TraceBuffer's arena, so merged records share the buffer's
  /// lifetime).
  explicit ResumeMerger(StringArena& arena) : arena_(&arena) {}

  /// Convenience: interns into an arena owned by the merger itself —
  /// merged records are then only valid while the merger is alive.
  ResumeMerger() : owned_(std::make_unique<StringArena>()), arena_(owned_.get()) {}

  /// A Resumed record with no pending half of its pid, or one whose
  /// call differs from that half's (the half is dropped), returns
  /// nullopt and sets `problem` to the ParseError text describing it
  /// — a warning, without the cost of a throw per bad record.
  /// Otherwise clears `problem`.
  [[nodiscard]] std::optional<RawRecord> feed(RawRecord rec, std::string& problem);

  /// Unfinished records that never resumed (e.g. the process was
  /// killed mid-call), sorted by pid. Clears the internal state.
  [[nodiscard]] std::vector<RawRecord> take_pending();

 private:
  std::unique_ptr<StringArena> owned_;
  StringArena* arena_;
  std::unordered_map<std::uint64_t, RawRecord> pending_;  // keyed by pid
};

}  // namespace st::strace
