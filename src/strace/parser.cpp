#include "strace/parser.hpp"

#include <algorithm>
#include <string>

#include "strace/scan.hpp"
#include "support/errors.hpp"
#include "support/strings.hpp"

namespace st::strace {

namespace {

constexpr std::string_view kUnfinished = "<unfinished ...>";
constexpr std::string_view kResumedOpen = "<... ";
constexpr std::string_view kResumedClose = " resumed>";

bool is_ascii_digit(char c) { return c >= '0' && c <= '9'; }
bool is_ascii_ws(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'; }

bool is_syscall_name_char(char c) {
  return is_ascii_digit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

/// Shared scratch for the one split_args pass per record; reused across
/// lines so steady-state parsing does not allocate.
std::vector<std::string_view>& scratch_argv() {
  thread_local std::vector<std::string_view> argv;
  return argv;
}

/// Fallback arena for the convenience parse_line/ResumeMerger entry
/// points that have no buffer to intern into.
StringArena& thread_arena() {
  thread_local StringArena arena;
  return arena;
}

/// Extracts the file path of the record per the paper's rules: the -y
/// annotation on the first fd argument, or — for path-taking calls —
/// the quoted path argument / annotated return value. `args` is the
/// pre-split argument list (single-pass scanning: the split happens
/// once per record and is shared with extract_requested).
void extract_path(RawRecord& rec, const std::vector<std::string_view>& args, StringArena& arena) {
  if (!args.empty()) {
    if (const auto fp = parse_fd_annotation(args.front())) {
      rec.fd = fp->fd;
      rec.path = fp->path;
      return;
    }
  }
  // openat(AT_FDCWD, "/path", flags) / open("/path", flags) / creat, stat...
  const bool second_arg_path = rec.call == "openat" || rec.call == "openat2" ||
                               rec.call == "newfstatat" || rec.call == "unlinkat" ||
                               rec.call == "mkdirat" || rec.call == "faccessat" ||
                               rec.call == "faccessat2";
  const bool first_arg_path = rec.call == "open" || rec.call == "creat" || rec.call == "stat" ||
                              rec.call == "lstat" || rec.call == "access" ||
                              rec.call == "unlink" || rec.call == "mkdir" ||
                              rec.call == "statfs" || rec.call == "readlink";
  const std::size_t idx = second_arg_path ? 1 : 0;
  if ((second_arg_path || first_arg_path) && args.size() > idx) {
    std::string_view a = args[idx];
    if (a.size() >= 2 && a.front() == '"' && a.back() == '"') {
      rec.path = decode_c_string(a.substr(1, a.size() - 2), arena);
      return;
    }
  }
  // Calls whose fd argument is not first (mmap's 5th argument, ...):
  // take the first -y annotation anywhere in the signature.
  for (const auto& arg : args) {
    if (const auto fp = parse_fd_annotation(arg)) {
      rec.fd = fp->fd;
      rec.path = fp->path;
      return;
    }
  }
}

/// The calls whose third argument is a byte count (fd, buf, count
/// [, offset]). Restricting the "third argument" rule to this set
/// keeps e.g. fallocate's mode or flag arguments from being misread
/// as sizes.
bool third_arg_is_count(std::string_view call) {
  return call == "read" || call == "write" || call == "pread64" || call == "pwrite64" ||
         call == "recv" || call == "send" || call == "recvfrom" || call == "sendto";
}

/// Vectored I/O: the third argument is iovcnt and the argument list
/// carries no byte count at all (the sizes live inside the iovec
/// dump), so `requested` stays unset.
bool is_vectored_io(std::string_view call) {
  return call == "readv" || call == "writev" || call == "preadv" || call == "pwritev" ||
         call == "preadv2" || call == "pwritev2";
}

/// Extracts the requested byte count: third argument for read/write
/// family calls (fd, buf, count[, offset]), otherwise the last numeric
/// argument if any.
void extract_requested(RawRecord& rec, const std::vector<std::string_view>& args) {
  if (is_vectored_io(rec.call)) return;
  if (third_arg_is_count(rec.call) && args.size() >= 3) {
    if (const auto v = parse_i64(args[2])) {
      rec.requested = *v;
      return;
    }
  }
  for (auto it = args.rbegin(); it != args.rend(); ++it) {
    if (const auto v = parse_i64(*it)) {
      rec.requested = *v;
      return;
    }
  }
}

/// Parses the " = ret [ERRNO (msg)] [<dur>]" suffix beginning at the
/// first character after the closing parenthesis.
void parse_result_suffix(RawRecord& rec, std::string_view suffix) {
  std::string_view s = trim(suffix);
  if (s.empty()) return;
  if (!s.starts_with('=')) throw ParseError("expected '=' after ')': " + std::string(suffix));
  s = trim(s.substr(1));

  // Duration "<0.000203>" is always the trailing token when present.
  if (s.ends_with('>')) {
    const auto lt = s.rfind('<');
    if (lt != std::string_view::npos) {
      const auto dur_text = s.substr(lt + 1, s.size() - lt - 2);
      if (const auto d = parse_seconds(dur_text)) {
        rec.duration = *d;
        s = trim(s.substr(0, lt));
      }
    }
  }

  if (s.empty()) return;

  // Return token: integer, hex pointer, or fd-with-path annotation.
  std::size_t tok_end = 0;
  while (tok_end < s.size() && !is_ascii_ws(s[tok_end])) ++tok_end;
  const std::string_view ret_tok = s.substr(0, tok_end);
  if (const auto fp = parse_fd_annotation(ret_tok)) {
    rec.retval = fp->fd;
    // An annotated return path (openat) resolves the accessed file.
    if (rec.path.empty()) rec.path = fp->path;
  } else if (const auto v = parse_i64(ret_tok)) {
    rec.retval = *v;
  } else if (ret_tok.starts_with("0x")) {
    rec.retval = std::nullopt;  // pointer return (mmap etc.); not a size
  }

  // Errno name follows a negative return, or "?" for a call that did
  // not return: "-1 ENOENT (No such file...)", "? ERESTARTSYS (...)".
  if ((rec.retval && *rec.retval < 0) || ret_tok == "?") {
    const std::string_view rest = trim(s.substr(tok_end));
    std::size_t name_end = 0;
    while (name_end < rest.size() && !is_ascii_ws(rest[name_end])) ++name_end;
    const std::string_view name = rest.substr(0, name_end);
    if (!name.empty() && name.front() == 'E') rec.errno_name = name;
  }
}

}  // namespace

std::optional<RawRecord> parse_line(std::string_view line, StringArena& arena) {
  std::string_view s = trim(line);
  if (s.empty()) return std::nullopt;

  RawRecord rec;

  // PID
  std::size_t i = 0;
  while (i < s.size() && is_ascii_digit(s[i])) ++i;
  if (i == 0) throw ParseError("missing pid: " + std::string(line));
  rec.pid = *parse_u64(s.substr(0, i));
  s = trim(s.substr(i));

  // Timestamp
  std::size_t ts_end = 0;
  while (ts_end < s.size() && !is_ascii_ws(s[ts_end])) ++ts_end;
  const auto ts = parse_time_of_day(s.substr(0, ts_end));
  if (!ts) throw ParseError("missing -tt timestamp: " + std::string(line));
  rec.timestamp = *ts;
  s = trim(s.substr(ts_end));

  // Signal / exit records.
  if (s.starts_with("---")) {
    rec.kind = RecordKind::Signal;
    rec.args = trim(s.substr(3, s.size() > 6 ? s.size() - 6 : 0));
    std::size_t name_end = 0;
    while (name_end < rec.args.size() && !is_ascii_ws(rec.args[name_end])) ++name_end;
    rec.call = rec.args.substr(0, name_end);
    return rec;
  }
  if (s.starts_with("+++")) {
    rec.kind = RecordKind::Exit;
    rec.args = trim(s.substr(3, s.size() > 6 ? s.size() - 6 : 0));
    rec.call = "exit";
    return rec;
  }

  // Resumed record: "<... call resumed> rest) = ret <dur>".
  if (s.starts_with(kResumedOpen)) {
    const auto close = s.find(kResumedClose);
    if (close == std::string_view::npos) throw ParseError("bad resumed record: " + std::string(line));
    rec.kind = RecordKind::Resumed;
    rec.call = trim(s.substr(kResumedOpen.size(), close - kResumedOpen.size()));
    std::string_view rest = s.substr(close + kResumedClose.size());
    // rest = "args) = ret <dur>"; find the top-level ')' scanning with
    // quote awareness (there is no opening paren on this line).
    std::size_t j = 0;
    int depth = 0;
    std::optional<std::size_t> close_paren;
    while (j < rest.size()) {
      const char c = rest[j];
      if (c == '"') {
        const auto nxt = skip_quoted(rest, j);
        if (!nxt) break;
        j = *nxt;
        continue;
      }
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') {
        if (depth == 0 && c == ')') {
          close_paren = j;
          break;
        }
        --depth;
      }
      ++j;
    }
    if (!close_paren) throw ParseError("resumed record without ')': " + std::string(line));
    rec.args = trim(rest.substr(0, *close_paren));
    parse_result_suffix(rec, rest.substr(*close_paren + 1));
    return rec;
  }

  // Ordinary syscall record: "call(args...".
  std::size_t name_end = 0;
  while (name_end < s.size() && is_syscall_name_char(s[name_end])) ++name_end;
  if (name_end == 0 || name_end >= s.size() || s[name_end] != '(') {
    throw ParseError("expected 'call(' : " + std::string(line));
  }
  rec.call = s.substr(0, name_end);

  auto& argv = scratch_argv();

  if (s.ends_with(kUnfinished)) {
    rec.kind = RecordKind::Unfinished;
    std::string_view args = s.substr(name_end + 1, s.size() - name_end - 1 - kUnfinished.size());
    rec.args = trim(args);
    // Strip a trailing comma left before "<unfinished ...>".
    if (!rec.args.empty() && rec.args.back() == ',') {
      rec.args.remove_suffix(1);
      rec.args = trim(rec.args);
    }
    split_args_into(rec.args, argv);
    extract_path(rec, argv, arena);
    return rec;
  }

  const auto close = find_matching_paren(s, name_end);
  if (!close) throw ParseError("unbalanced parentheses: " + std::string(line));
  rec.kind = RecordKind::Complete;
  rec.args = s.substr(name_end + 1, *close - name_end - 1);
  parse_result_suffix(rec, s.substr(*close + 1));
  split_args_into(rec.args, argv);
  extract_path(rec, argv, arena);
  extract_requested(rec, argv);
  return rec;
}

std::optional<RawRecord> parse_line(std::string_view line) {
  return parse_line(line, thread_arena());
}

namespace {

/// Merges an Unfinished record with its Resumed completion of the same
/// call: args are joined (interned into `arena`), retval/errno/duration
/// come from the resumed part, and path/requested are re-extracted in
/// place from the merged argument list (split once — no probe record
/// copies).
RawRecord merge_resumed_pair(RawRecord unfinished, const RawRecord& resumed, StringArena& arena) {
  RawRecord merged = std::move(unfinished);
  merged.kind = RecordKind::Complete;
  // Start timestamp stays from the unfinished part; duration and
  // return value are only known at resume time (paper, Sec. III).
  if (!merged.args.empty() && !resumed.args.empty()) {
    merged.args = arena.concat({merged.args, ", ", resumed.args});
  } else if (!resumed.args.empty()) {
    merged.args = resumed.args;
  }
  merged.retval = resumed.retval;
  merged.errno_name = resumed.errno_name;
  merged.duration = resumed.duration;
  // Re-extract path/requested in place from the merged argument list:
  // one split, no probe record copies.
  auto& argv = scratch_argv();
  split_args_into(merged.args, argv);
  if (merged.path.empty()) extract_path(merged, argv, arena);
  extract_requested(merged, argv);
  return merged;
}

}  // namespace

std::optional<RawRecord> ResumeMerger::feed(RawRecord rec, std::string& problem) {
  problem.clear();
  switch (rec.kind) {
    case RecordKind::Complete:
    case RecordKind::Signal:
    case RecordKind::Exit:
      return rec;
    case RecordKind::Unfinished: {
      pending_[rec.pid] = std::move(rec);
      return std::nullopt;
    }
    case RecordKind::Resumed: {
      const auto it = pending_.find(rec.pid);
      if (it == pending_.end()) {
        problem = ParseError("resumed record for pid " + std::to_string(rec.pid) +
                             " without matching unfinished record")
                      .what();
        return std::nullopt;
      }
      RawRecord pending = std::move(it->second);
      pending_.erase(it);
      if (pending.call != rec.call) {
        problem = ParseError("resumed call '" + std::string(rec.call) +
                             "' does not match unfinished '" + std::string(pending.call) +
                             "' for pid " + std::to_string(rec.pid))
                      .what();
        return std::nullopt;
      }
      return merge_resumed_pair(std::move(pending), rec, *arena_);
    }
  }
  return std::nullopt;
}

std::vector<RawRecord> ResumeMerger::take_pending() {
  std::vector<RawRecord> out;
  out.reserve(pending_.size());
  for (auto& [pid, rec] : pending_) out.push_back(std::move(rec));
  pending_.clear();
  std::sort(out.begin(), out.end(),
            [](const RawRecord& a, const RawRecord& b) { return a.pid < b.pid; });
  return out;
}

}  // namespace st::strace
