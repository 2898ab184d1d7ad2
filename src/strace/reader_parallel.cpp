// Parallel trace ingestion: chunk the TraceBuffer on line boundaries,
// parse the chunks concurrently on the ThreadPool, and join them on the
// pool thread that finished the file's last chunk.
//
// A chunk task keeps the records Sec. III keeps and merges nothing:
// every unfinished or resumed half stays in place, with its line
// number. The join concatenates the chunks and, only when the file has
// halves, feeds them in line order to one ResumeMerger — the rule the
// sequential reader applies — so records, their order and every
// warning string are byte-identical to read_trace_buffer.
// test_parallel_reader asserts this on adversarial multi-PID corpora.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "strace/parser.hpp"
#include "strace/reader.hpp"
#include "strace/scan_kernels.hpp"
#include "support/errors.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace st::strace {

namespace {

struct LineWarning {
  std::size_t line = 0;  // 1-based
  std::string text;
};

/// An unfinished or resumed record left in place for the join.
struct Half {
  std::size_t record = 0;  // index into the records
  std::size_t line = 0;    // 1-based
};

/// One parsed chunk. Lines and record indices are relative to it.
struct Chunk {
  std::vector<RawRecord> records;  // kept records, and every half in place
  std::vector<Half> halves;
  std::vector<LineWarning> warnings;
  std::size_t lines = 0;
  StringArena arena;
};

/// The paper's Sec. III drop rules: signals, exits and ERESTARTSYS calls.
bool keep_record(const RawRecord& rec) {
  return rec.kind != RecordKind::Signal && rec.kind != RecordKind::Exit && !rec.is_restart();
}

bool is_half(const RawRecord& rec) {
  return rec.kind == RecordKind::Unfinished || rec.kind == RecordKind::Resumed;
}

/// Parses the byte range [begin, end) of `text`. `begin` is a line
/// start; `end` is one past a '\n' or text.size().
Chunk parse_chunk(std::string_view text, std::size_t begin, std::size_t end) {
  FAULT_POINT("reader.chunk");
  Chunk chunk;
  const auto newlines = std::count(text.begin() + static_cast<std::ptrdiff_t>(begin),
                                   text.begin() + static_cast<std::ptrdiff_t>(end), '\n');
  chunk.records.reserve(static_cast<std::size_t>(newlines) + 1);

  std::size_t start = begin;
  while (start < end) {
    const std::size_t nl = kernels::find_byte(text, start, '\n');
    const std::size_t stop = nl == kernels::npos || nl >= end ? end : nl;
    const std::string_view line = text.substr(start, stop - start);
    const std::size_t lineno = ++chunk.lines;
    start = stop + 1;

    if (trim(line).empty()) continue;
    std::optional<RawRecord> rec;
    try {
      rec = parse_line(line, chunk.arena);
    } catch (const ParseError& e) {
      chunk.warnings.push_back({lineno, e.what()});
      continue;
    }
    if (!rec) continue;
    if (is_half(*rec)) {
      chunk.halves.push_back({chunk.records.size(), lineno});
      chunk.records.push_back(*rec);
    } else if (keep_record(*rec)) {
      chunk.records.push_back(*rec);
    }
  }
  return chunk;
}

/// Joins one file's chunks, in order, into the ReadResult
/// read_trace_buffer returns for `buffer`. The halves go through a
/// ResumeMerger in line order: a merged record takes the resumed
/// half's slot if keep_record holds, and every other half is dropped.
/// Merge warnings interleave with parse warnings by line, and the
/// chunk arenas move into the buffer so every view stays alive.
ReadResult join_chunks(std::vector<Chunk>& chunks, std::shared_ptr<TraceBuffer> buffer) {
  ReadResult result;
  result.buffer = std::move(buffer);
  std::vector<Half> halves;
  std::vector<LineWarning> warnings;
  std::size_t lines = 0;
  for (Chunk& chunk : chunks) {
    for (const Half& h : chunk.halves) {
      halves.push_back({result.records.size() + h.record, lines + h.line});
    }
    for (LineWarning& w : chunk.warnings) warnings.push_back({lines + w.line, std::move(w.text)});
    if (result.records.empty()) {
      result.records = std::move(chunk.records);
    } else {
      result.records.insert(result.records.end(), chunk.records.begin(), chunk.records.end());
    }
    result.buffer->adopt(std::move(chunk.arena));
    lines += chunk.lines;
  }

  std::vector<RawRecord> never_resumed;
  if (!halves.empty()) {
    const std::size_t parse_warnings = warnings.size();
    ResumeMerger merger(result.buffer->arena());
    std::string problem;
    for (const Half& h : halves) {
      RawRecord& slot = result.records[h.record];
      auto merged = merger.feed(slot, problem);
      if (!problem.empty()) {
        warnings.push_back({h.line, std::move(problem)});
      } else if (merged && keep_record(*merged)) {
        slot = *merged;
      }
    }
    std::inplace_merge(
        warnings.begin(), warnings.begin() + static_cast<std::ptrdiff_t>(parse_warnings),
        warnings.end(),
        [](const LineWarning& x, const LineWarning& y) { return x.line < y.line; });
    never_resumed = merger.take_pending();
    std::erase_if(result.records, is_half);
  }

  result.warnings.reserve(warnings.size() + never_resumed.size());
  for (const LineWarning& w : warnings) {
    result.warnings.push_back("line " + std::to_string(w.line) + ": " + w.text);
  }
  for (const RawRecord& rec : never_resumed) {
    result.warnings.push_back("unfinished call never resumed: pid " + std::to_string(rec.pid) +
                              " " + std::string(rec.call));
  }
  return result;
}

/// Splits `text` into at most `want` ranges, each ending one past a
/// '\n' (the last ends at text.size()).
std::vector<std::pair<std::size_t, std::size_t>> line_chunks(std::string_view text,
                                                             std::size_t want) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t n = text.size();
  if (n == 0) return out;
  if (want == 0) want = 1;
  const std::size_t approx = (n + want - 1) / want;
  std::size_t begin = 0;
  while (begin < n) {
    std::size_t end = n - begin > approx ? begin + approx : n;
    if (end < n) {
      const auto nl = kernels::find_byte(text, end - 1, '\n');
      end = nl == kernels::npos ? n : nl + 1;
    }
    out.emplace_back(begin, end);
    begin = end;
  }
  return out;
}

/// Chunk count for one buffer: enough to spread across the pool, never
/// below min_chunk_bytes per chunk. A single-worker pool gets a single
/// chunk — splitting buys nothing there and the join's record moves
/// are pure overhead.
std::size_t chunk_target(std::string_view text, std::size_t min_chunk_bytes,
                         std::size_t pool_size) {
  if (pool_size <= 1) return 1;
  const std::size_t min_chunk = std::max<std::size_t>(1, min_chunk_bytes);
  return std::clamp<std::size_t>(text.size() / min_chunk, 1, pool_size * 4);
}

}  // namespace

// ---- streamed per-file completion --------------------------------------

/// Shared state of one streamed parse, owned by the handle alone.
/// Tasks reference it and their file through RAW pointers: the handle
/// joins before it releases the state (wait for tasks_left == 0, after
/// which workers only run trivial epilogues), so the state's lifetime
/// is the handle's, never a worker's.
struct StreamedParse::State {
  ParallelReadOptions opts;
  FileReadyFn on_file;
  FileSettledFn on_settled;

  /// Sentinel chunk index ranking join/callback errors after every
  /// real chunk of the same file.
  static constexpr std::size_t kJoinStage = std::numeric_limits<std::size_t>::max();

  struct FileState {
    std::size_t index = 0;  ///< input index
    std::shared_ptr<TraceBuffer> buffer;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::vector<Chunk> parsed;              ///< one slot per chunk
    std::atomic<std::size_t> remaining{0};  ///< chunks still parsing
    std::atomic<bool> failed{false};        ///< any chunk of this file threw
    // This file's earliest error by chunk (err_mutex): what keep_going
    // consumers quarantine per file instead of aborting the run.
    std::size_t error_chunk = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  // A deque: add() appends while tasks of earlier files hold pointers
  // to their FileState (and FileState holds atomics, so it cannot move).
  std::deque<FileState> files;

  // Earliest failure in (file, chunk) input order.
  mutable std::mutex err_mutex;
  std::size_t err_file = std::numeric_limits<std::size_t>::max();
  std::size_t err_chunk = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;

  // join(): tasks_left counts every submitted chunk task.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t tasks_left = 0;

  void note_error(FileState& fs, std::size_t c, std::exception_ptr e) {
    fs.failed.store(true, std::memory_order_release);
    std::lock_guard lock(err_mutex);
    // `!error` matters when the file's only failure is a join error:
    // kJoinStage equals the slot's initial error_chunk, so a
    // strictly-less guard would never record it.
    if (!fs.error || c < fs.error_chunk) {
      fs.error_chunk = c;
      fs.error = e;
    }
    if (fs.index < err_file || (fs.index == err_file && c < err_chunk)) {
      err_file = fs.index;
      err_chunk = c;
      err = std::move(e);
    }
  }

  /// Body of one (file, chunk) task. Never throws: every failure is
  /// recorded via note_error so propagation stays deterministic.
  void run_chunk(FileState& fs, std::size_t c) {
    try {
      fs.parsed[c] = parse_chunk(fs.buffer->text(), fs.chunks[c].first, fs.chunks[c].second);
    } catch (...) {
      note_error(fs, c, std::current_exception());
    }
    if (fs.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) file_done(fs);
  }

  /// Runs on the pool thread that finished the file's last chunk: join
  /// the chunks, hand the ReadResult downstream, report the file settled.
  void file_done(FileState& fs) {
    if (!fs.failed.load(std::memory_order_acquire)) {
      try {
        // A failure here (the callback's, or an allocation in the
        // join) is recorded below under the lowest-input-index rule.
        ReadResult result = join_chunks(fs.parsed, std::move(fs.buffer));
        if (on_file) on_file(fs.index, std::move(result));
      } catch (...) {
        note_error(fs, kJoinStage, std::current_exception());
      }
    }
    // Chunk state is dead weight once the file settled; free it early.
    fs.parsed.clear();
    fs.parsed.shrink_to_fit();
    fs.buffer.reset();
    if (on_settled) {
      std::exception_ptr error;
      {
        std::lock_guard lock(err_mutex);
        error = fs.error;
      }
      on_settled(fs.index, std::move(error));
    }
  }

  void task_finished() {
    std::lock_guard lock(done_mutex);
    if (--tasks_left == 0) done_cv.notify_all();
  }
};

StreamedParse::StreamedParse(const ParallelReadOptions& opts, FileReadyFn on_file_done,
                             FileSettledFn on_settled) {
  if (opts.pool == nullptr) {
    throw LogicError("StreamedParse: ParallelReadOptions::pool is required");
  }
  state_ = std::make_shared<State>();
  state_->opts = opts;
  state_->on_file = std::move(on_file_done);
  state_->on_settled = std::move(on_settled);
}

StreamedParse::~StreamedParse() { join(); }

StreamedParse& StreamedParse::operator=(StreamedParse&& other) noexcept {
  if (this != &other) {
    join();  // tasks of the replaced parse hold raw pointers into its state
    state_ = std::move(other.state_);
  }
  return *this;
}

std::size_t StreamedParse::add(std::shared_ptr<TraceBuffer> buffer) {
  State& s = *state_;
  ThreadPool& pool = *s.opts.pool;
  State::FileState& fs = s.files.emplace_back();
  fs.index = s.files.size() - 1;
  fs.buffer = std::move(buffer);
  const std::string_view text = fs.buffer->text();
  fs.chunks = line_chunks(text, chunk_target(text, s.opts.min_chunk_bytes, pool.size()));
  // An empty file still settles through the normal path: one [0, 0)
  // chunk parses to an empty chunk and joins to an empty ReadResult,
  // so on_file_done fires for it like for any other file.
  if (fs.chunks.empty()) fs.chunks.emplace_back(0, 0);
  fs.parsed.resize(fs.chunks.size());
  fs.remaining.store(fs.chunks.size(), std::memory_order_relaxed);
  {
    std::lock_guard lock(s.done_mutex);
    s.tasks_left += fs.chunks.size();
  }
  std::size_t c = 0;
  try {
    for (; c < fs.chunks.size(); ++c) {
      (void)pool.submit([sp = &s, fp = &fs, c] {
        sp->run_chunk(*fp, c);
        sp->task_finished();
      });
    }
  } catch (...) {
    // submit() failed (allocation, pool shut down). Run the chunks that
    // never made it onto the pool inline so every counter settles; the
    // ones that did are joined by the handle.
    for (; c < fs.chunks.size(); ++c) {
      s.run_chunk(fs, c);
      s.task_finished();
    }
    throw;
  }
  return fs.index;
}

void StreamedParse::join() {
  if (!state_) return;  // moved-from
  std::unique_lock lock(state_->done_mutex);
  state_->done_cv.wait(lock, [s = state_.get()] { return s->tasks_left == 0; });
}

std::optional<StreamedParse::Error> StreamedParse::error() const {
  if (!state_) return std::nullopt;
  std::lock_guard lock(state_->err_mutex);
  if (!state_->err) return std::nullopt;
  return Error{state_->err_file, state_->err};
}

std::vector<StreamedParse::Error> StreamedParse::errors() const {
  std::vector<Error> out;
  if (!state_) return out;
  std::lock_guard lock(state_->err_mutex);
  for (const State::FileState& fs : state_->files) {
    if (fs.error) out.push_back({fs.index, fs.error});
  }
  return out;
}

void StreamedParse::wait() {
  join();
  if (const auto e = error()) std::rethrow_exception(e->error);
}

StreamedParse read_trace_buffers_streamed(std::vector<std::shared_ptr<TraceBuffer>> buffers,
                                          const ParallelReadOptions& opts,
                                          FileReadyFn on_file_done) {
  StreamedParse parse(opts, std::move(on_file_done));
  for (auto& buffer : buffers) (void)parse.add(std::move(buffer));
  return parse;
}

StreamedParse read_trace_files_streamed(const std::vector<std::string>& paths,
                                        const ParallelReadOptions& opts, FileReadyFn on_file_done) {
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  buffers.reserve(paths.size());
  for (const auto& path : paths) buffers.push_back(TraceBuffer::from_file_mmap(path));
  return read_trace_buffers_streamed(std::move(buffers), opts, std::move(on_file_done));
}

}  // namespace st::strace
