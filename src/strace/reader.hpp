// High-level trace reading: text/file -> merged, filtered records.
//
// Applies the paper's Sec. III processing rules in order:
//   1. parse every line,
//   2. merge unfinished/resumed pairs by pid,
//   3. drop signal and exit records (not system calls),
//   4. drop ERESTARTSYS-interrupted calls,
// and collects row-level problems (a malformed line, a resumed half
// with no unfinished one) as warnings instead of aborting the whole
// file: real strace logs contain truncation and noise.
//
// Ingestion is zero-copy: the trace bytes are read once into a
// TraceBuffer and records view into it (plus a small arena for merged
// argument lists and decoded C paths). ReadResult carries the buffer,
// so records stay valid as long as the result is alive. The file
// entry points here map their files (TraceBuffer::from_file_mmap);
// pipeline::ingest reads a file that fits one parse chunk into the
// heap instead (TraceBuffer::from_file_read_small) and maps the rest.
//
// read_trace_buffer is the sequential reference. The parallel reader,
// read_trace_buffers_streamed, splits every buffer into line chunks and
// parses all (buffer, chunk) tasks on the caller's ThreadPool; chunks
// leave unfinished/resumed halves in place, and the join feeds them in
// line order to one ResumeMerger — records, ordering and warnings are
// byte-identical to read_trace_buffer on that buffer.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "strace/record.hpp"
#include "strace/trace_buffer.hpp"

namespace st {
class ThreadPool;
}  // namespace st

namespace st::strace {

struct ReadResult {
  std::vector<RawRecord> records;
  std::vector<std::string> warnings;  ///< one entry per skipped/incomplete line
  /// Owns the bytes and arenas the records view into; records are valid
  /// exactly as long as this buffer (shared, so results copy freely).
  std::shared_ptr<TraceBuffer> buffer;
};

/// Parses a trace held in a TraceBuffer (zero-copy). Parsing interns
/// into the buffer's arena: do not run two read_trace_* calls on the
/// same buffer concurrently (sequential reuse is fine).
[[nodiscard]] ReadResult read_trace_buffer(std::shared_ptr<TraceBuffer> buffer);

/// Parses a whole trace text (multiple lines). The text is copied once
/// into the result's TraceBuffer so the caller's string may die.
[[nodiscard]] ReadResult read_trace_text(std::string_view text);

/// Reads and parses a trace file from disk with a single read into the
/// result's TraceBuffer. Throws IoError if the file cannot be opened.
[[nodiscard]] ReadResult read_trace_file(const std::string& path);

struct ParallelReadOptions {
  std::size_t min_chunk_bytes = 1 << 20;  ///< lower bound per parse chunk
  ThreadPool* pool = nullptr;             ///< required: the pool every parse task runs on
};

// ---- streamed per-file completion --------------------------------------

/// Called the moment ONE buffer's parse chunks have all joined — from
/// the pool thread that finished the file's last chunk, at most once
/// per file, possibly out of input order. The ReadResult is identical
/// to what read_trace_buffer would have produced for that buffer. The
/// callback's own work (pipeline::run converts and folds the file here)
/// runs on that thread too, before the thread takes its next task; an
/// exception escaping it is recorded as that file's parse failure.
using FileReadyFn = std::function<void(std::size_t file_index, ReadResult&&)>;

/// Called once per file when it has settled, after on_file_done
/// returned or with the file's earliest error (null when it has none),
/// on the same pool thread. Must not throw.
using FileSettledFn = std::function<void(std::size_t file_index, std::exception_ptr error)>;

/// Handle to an in-flight streamed parse. Files join it one at a time
/// through add(), which splits the buffer into line chunks and submits
/// them at once, so a caller can open file i+1 while file i parses; the
/// per-file callbacks run while the handle is live, and join() waits
/// for the last of them.
class StreamedParse {
 public:
  struct Error {
    std::size_t file_index = 0;  ///< input index of the failing file
    std::exception_ptr error;
  };

  /// An empty parse on opts.pool (LogicError when null), which must
  /// outlive the handle: destroying the pool first discards chunk
  /// tasks that never started, and join would then wait forever.
  StreamedParse(const ParallelReadOptions& opts, FileReadyFn on_file_done,
                FileSettledFn on_settled = {});
  StreamedParse(StreamedParse&&) noexcept = default;
  /// Joins the parse currently held (like the destructor would) before
  /// taking over `other`'s — tasks of the replaced parse reference its
  /// state and must not outlive it.
  StreamedParse& operator=(StreamedParse&& other) noexcept;

  /// Joins: no parse task or callback is running or pending after
  /// this returns (also run by the destructor — tasks never leak).
  ~StreamedParse();

  /// Submits one file's parse tasks and returns its file index (0, 1,
  /// ... in add order). Call from one thread, never after join().
  std::size_t add(std::shared_ptr<TraceBuffer> buffer);

  /// Blocks until every task and callback has finished. Never throws.
  void join();

  /// After join(): the earliest failure in input order — lowest file
  /// index first, lowest chunk within the file; an exception escaping
  /// the join or the on_file_done callback ranks after the file's
  /// chunk errors.
  [[nodiscard]] std::optional<Error> error() const;

  /// After join(): every failed file's earliest error, sorted by file
  /// index. A file either appears here or fired on_file_done — never
  /// both. keep_going consumers quarantine these per file instead of
  /// rethrowing the first.
  [[nodiscard]] std::vector<Error> errors() const;

  /// join(), then rethrow the recorded error, if any.
  void wait();

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// Mixed per-file + intra-file parallelism: every buffer is split into
/// line chunks and ALL (buffer, chunk) parse tasks share one work queue
/// on opts.pool, so one huge trace plus many small ones saturates every
/// worker. Each buffer's join runs on the pool thread that finished its
/// last chunk and `on_file_done` fires right there. Tasks run in
/// submission order (files in input order), and a callback runs before
/// its thread takes another task, so consuming a file never waits for
/// the parse of the files after it. opts.pool is required and must
/// outlive the returned handle (see StreamedParse).
[[nodiscard]] StreamedParse read_trace_buffers_streamed(
    std::vector<std::shared_ptr<TraceBuffer>> buffers, const ParallelReadOptions& opts,
    FileReadyFn on_file_done);

/// Opens every file via TraceBuffer::from_file_mmap (so multi-GB
/// traces never double-buffer) and parses them with
/// read_trace_buffers_streamed. Open failures throw IoError for the
/// first unopenable path in input order, before any parse task is
/// enqueued.
[[nodiscard]] StreamedParse read_trace_files_streamed(const std::vector<std::string>& paths,
                                                      const ParallelReadOptions& opts,
                                                      FileReadyFn on_file_done);

}  // namespace st::strace
