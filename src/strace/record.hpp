// Raw strace record model.
//
// One RawRecord corresponds to one line of `strace -f -tt -T -y` output
// (or to a merged unfinished/resumed pair). The fields follow Sec. III
// of the paper: pid, call, start timestamp, duration, file path and
// transfer size, plus enough extra structure (errno text, requested
// byte count, record kind) to implement the paper's filtering rules
// (drop ERESTARTSYS, merge resumed records by pid).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "support/timeparse.hpp"

namespace st::strace {

/// Classification of a single strace output line.
enum class RecordKind : std::uint8_t {
  Complete,    ///< full "call(args) = ret <dur>" record
  Unfinished,  ///< "call(args <unfinished ...>"
  Resumed,     ///< "<... call resumed> args) = ret <dur>"
  Signal,      ///< "--- SIGxxx {...} ---"
  Exit,        ///< "+++ exited with N +++" or "+++ killed by ... +++"
};

/// A parsed strace line (or merged pair). String fields are zero-copy
/// views into the trace bytes (TraceBuffer) or into a StringArena for
/// synthesized strings (merged argument lists, decoded C paths). A
/// record is valid only while the buffer/arena that produced it lives;
/// ReadResult keeps its TraceBuffer alive for exactly this reason.
/// Hand-built records (simulator, tests) may point at string literals
/// or at an arena they intern into.
struct RawRecord {
  std::uint64_t pid = 0;
  Micros timestamp = 0;  ///< microseconds since midnight (-tt)
  RecordKind kind = RecordKind::Complete;
  std::string_view call;  ///< syscall name ("read", "openat", ...)
  std::string_view args;  ///< raw text between the outermost parentheses

  /// File descriptor of the first argument when annotated by -y
  /// ("3</usr/lib/libc.so.6>"), or of the return value for openat.
  std::optional<int> fd;
  /// Path extracted from the -y annotation or from the quoted path
  /// argument of openat/open/creat/stat-like calls. Empty if none.
  std::string_view path;

  std::optional<std::int64_t> retval;       ///< value after '='
  std::string_view errno_name;              ///< "ERESTARTSYS", "EAGAIN", ... after a negative or "?" return
  std::optional<Micros> duration;           ///< <0.000203> -> 203 (-T)
  std::optional<std::int64_t> requested;    ///< bytes requested (rw calls: 3rd argument)

  /// True for the variants of read/write that move payload bytes, for
  /// which the paper parses the transfer size from the return value.
  [[nodiscard]] bool is_data_transfer() const {
    return call == "read" || call == "write" || call == "pread64" || call == "pwrite64" ||
           call == "readv" || call == "writev" || call == "preadv" || call == "pwritev" ||
           call == "preadv2" || call == "pwritev2";
  }

  /// True when the record was interrupted and flagged ERESTARTSYS;
  /// the paper ignores these calls.
  [[nodiscard]] bool is_restart() const { return errno_name == "ERESTARTSYS"; }
};

}  // namespace st::strace
