// Parallel trace ingestion: chunk the TraceBuffer on line boundaries,
// parse chunks concurrently on the ThreadPool, and fold the per-chunk
// accumulators deterministically left-to-right.
//
// Each chunk is parsed with per-PID sharded merger state:
//  - `pending`:    unfinished calls still open at the chunk's end,
//  - `unresolved`: resumed records whose unfinished part must live in
//                  an earlier chunk (the pid's first event here),
//  - `shadowed`:   pids whose first event in the chunk is Unfinished —
//                  the sequential merger would silently overwrite
//                  (drop) any pending record carried in from the left,
//  - `seen`:       pids with any unfinished/resumed event, deciding
//                  whether a missing match is definitive or may still
//                  resolve against chunks further left.
// The fold replays exactly what the sequential ResumeMerger would do at
// each chunk boundary, so records, their order, every warning string
// and the strict-mode exception are byte-identical to
// read_trace_buffer. The acceptance test (test_parallel_reader)
// asserts this on adversarial multi-PID corpora.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <iterator>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
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

struct LocalWarning {
  std::size_t line = 0;  // 1-based, relative to the accumulator's first line
  std::string text;
};

struct Unresolved {
  std::size_t record_index = 0;  // placeholder position in Acc::records
  std::size_t line = 0;          // 1-based, relative to the accumulator
};

struct Acc {
  bool empty = true;  // identity element for the fold
  std::vector<RawRecord> records;  // output; unresolved placeholders keep kind == Resumed
  std::vector<LocalWarning> warnings;       // sorted by line
  std::vector<Unresolved> unresolved;       // sorted by record_index and line
  std::unordered_map<std::uint64_t, RawRecord> pending;
  std::unordered_set<std::uint64_t> seen;
  std::unordered_set<std::uint64_t> shadowed;
  std::size_t lines = 0;
  std::exception_ptr error;  // strict mode: earliest error by line
  std::size_t error_line = std::numeric_limits<std::size_t>::max();
  std::vector<StringArena> arenas;
};

/// The paper's Sec. III drop rules: signals, exits and ERESTARTSYS calls.
bool keep_record(const RawRecord& rec) {
  return rec.kind != RecordKind::Signal && rec.kind != RecordKind::Exit && !rec.is_restart();
}

ParseError unmatched_resumed_error(std::uint64_t pid) {
  return ParseError("resumed record for pid " + std::to_string(pid) +
                    " without matching unfinished record");
}

void note_error(Acc& acc, std::size_t line, const ParseError& err) {
  if (line < acc.error_line) {
    acc.error_line = line;
    acc.error = std::make_exception_ptr(err);
  }
}

/// Chunk parser + left-to-right folder, parameterized on ReadOptions.
struct ChunkReader {
  std::string_view text;
  const ReadOptions& opts;

  /// Parses the byte range [begin, end) with chunk-local merger state.
  /// `begin` is a line start; `end` is one past a '\n' or text.size().
  [[nodiscard]] Acc parse_chunk(std::size_t begin, std::size_t end) const {
    FAULT_POINT("reader.chunk");
    Acc acc;
    acc.empty = false;
    acc.arenas.emplace_back();
    StringArena& arena = acc.arenas.back();
    const auto newlines =
        std::count(text.begin() + static_cast<std::ptrdiff_t>(begin),
                   text.begin() + static_cast<std::ptrdiff_t>(end), '\n');
    acc.records.reserve(static_cast<std::size_t>(newlines) + 1);

    std::size_t start = begin;
    while (start < end) {
      const std::size_t nl = kernels::find_byte(text, start, '\n');
      const std::size_t stop = nl == kernels::npos || nl >= end ? end : nl;
      const std::string_view line = text.substr(start, stop - start);
      ++acc.lines;
      const std::size_t lineno = acc.lines;
      start = stop + 1;

      if (trim(line).empty()) continue;
      std::optional<RawRecord> rec;
      try {
        rec = parse_line(line, arena);
      } catch (const ParseError& e) {
        if (opts.strict) note_error(acc, lineno, e);
        acc.warnings.push_back({lineno, e.what()});
        continue;
      }
      if (!rec) continue;

      switch (rec->kind) {
        case RecordKind::Complete:
        case RecordKind::Signal:
        case RecordKind::Exit:
          if (keep_record(*rec)) acc.records.push_back(*rec);
          break;
        case RecordKind::Unfinished: {
          if (acc.seen.insert(rec->pid).second) acc.shadowed.insert(rec->pid);
          acc.pending.insert_or_assign(rec->pid, *rec);  // overwrite drops silently
          break;
        }
        case RecordKind::Resumed: {
          const bool first_event = acc.seen.insert(rec->pid).second;
          const auto it = acc.pending.find(rec->pid);
          if (it != acc.pending.end()) {
            RawRecord unfinished = std::move(it->second);
            acc.pending.erase(it);
            try {
              RawRecord merged =
                  detail::merge_resumed_pair(std::move(unfinished), *rec, arena);
              if (keep_record(merged)) acc.records.push_back(merged);
            } catch (const ParseError& e) {
              if (opts.strict) note_error(acc, lineno, e);
              acc.warnings.push_back({lineno, e.what()});
            }
          } else if (first_event) {
            // May match an unfinished record in an earlier chunk: emit
            // a placeholder, resolved (or dropped) at fold time.
            acc.records.push_back(*rec);
            acc.unresolved.push_back({acc.records.size() - 1, lineno});
          } else {
            // The chunk already owned this pid's state, so the
            // sequential merger would definitively fail here.
            const ParseError err = unmatched_resumed_error(rec->pid);
            if (opts.strict) note_error(acc, lineno, err);
            acc.warnings.push_back({lineno, err.what()});
          }
          break;
        }
      }
    }
    return acc;
  }

  /// Folds the right neighbour `b` into `a`.
  [[nodiscard]] Acc fold(Acc a, Acc b) const {
    if (a.empty) return b;
    if (b.empty) return a;

    // b's leading Unfinished records silently drop whatever `a` still
    // had pending for those pids (the sequential merger's overwrite).
    for (const auto pid : b.shadowed) {
      a.pending.erase(pid);
      if (a.seen.insert(pid).second) a.shadowed.insert(pid);
    }

    // Resolve b's leading resumed placeholders against a's pending.
    StringArena& merge_arena = b.arenas.empty() ? a.arenas.back() : b.arenas.back();
    std::vector<std::size_t> dead;            // placeholder indices in b.records to drop
    std::vector<LocalWarning> fold_warnings;  // lines relative to b
    std::vector<Unresolved> surviving;        // still unresolved, indices relative to b
    for (const auto& u : b.unresolved) {
      RawRecord& placeholder = b.records[u.record_index];
      const std::uint64_t pid = placeholder.pid;
      const auto it = a.pending.find(pid);
      if (it != a.pending.end()) {
        RawRecord unfinished = std::move(it->second);
        a.pending.erase(it);
        a.seen.insert(pid);
        try {
          placeholder =
              detail::merge_resumed_pair(std::move(unfinished), placeholder, merge_arena);
          if (!keep_record(placeholder)) dead.push_back(u.record_index);
        } catch (const ParseError& e) {
          if (opts.strict) note_error(a, a.lines + u.line, e);
          fold_warnings.push_back({u.line, e.what()});
          dead.push_back(u.record_index);
        }
      } else if (a.seen.contains(pid)) {
        const ParseError err = unmatched_resumed_error(pid);
        if (opts.strict) note_error(a, a.lines + u.line, err);
        fold_warnings.push_back({u.line, err.what()});
        dead.push_back(u.record_index);
      } else {
        a.seen.insert(pid);
        surviving.push_back(u);
      }
    }

    // Append b's surviving records, remapping surviving placeholders.
    std::size_t di = 0;
    std::size_t si = 0;
    a.records.reserve(a.records.size() + b.records.size() - dead.size());
    for (std::size_t i = 0; i < b.records.size(); ++i) {
      if (di < dead.size() && dead[di] == i) {
        ++di;
        continue;
      }
      if (si < surviving.size() && surviving[si].record_index == i) {
        a.unresolved.push_back({a.records.size(), a.lines + surviving[si].line});
        ++si;
      }
      a.records.push_back(std::move(b.records[i]));
    }

    // Warnings: b's own and the fold's, merged by line, offset into a.
    std::vector<LocalWarning> merged_warnings;
    merged_warnings.reserve(b.warnings.size() + fold_warnings.size());
    std::merge(b.warnings.begin(), b.warnings.end(), fold_warnings.begin(), fold_warnings.end(),
               std::back_inserter(merged_warnings),
               [](const LocalWarning& x, const LocalWarning& y) { return x.line < y.line; });
    a.warnings.reserve(a.warnings.size() + merged_warnings.size());
    for (auto& w : merged_warnings) {
      a.warnings.push_back({a.lines + w.line, std::move(w.text)});
    }

    if (b.error && a.lines + b.error_line < a.error_line) {
      a.error = b.error;
      a.error_line = a.lines + b.error_line;
    }

    for (auto& [pid, rec] : b.pending) a.pending.insert_or_assign(pid, std::move(rec));
    for (const auto pid : b.seen) a.seen.insert(pid);
    for (auto& arena : b.arenas) a.arenas.push_back(std::move(arena));
    a.lines += b.lines;
    return a;
  }
};

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
/// chunk — splitting buys nothing there and the cross-chunk fold
/// (record moves, merger-state replay) is pure overhead.
std::size_t chunk_target(std::string_view text, std::size_t min_chunk_bytes,
                         std::size_t pool_size) {
  if (pool_size <= 1) return 1;
  const std::size_t min_chunk = std::max<std::size_t>(1, min_chunk_bytes);
  return std::clamp<std::size_t>(text.size() / min_chunk, 1, pool_size * 4);
}

/// Turns the fully folded accumulator of one buffer into the public
/// ReadResult: drops definitively unmatched placeholders, renders the
/// warning strings, rethrows the strict-mode error, and hands the
/// chunk arenas to the buffer so every view stays alive.
ReadResult finalize_acc(Acc acc, std::shared_ptr<TraceBuffer> buffer, const ReadOptions& opts) {
  ReadResult result;
  result.buffer = std::move(buffer);

  // Placeholders that survived every fold have no unfinished part
  // anywhere to their left: definitive failures, like the sequential
  // merger feeding a resumed record with empty pending state.
  std::vector<LocalWarning> tail_warnings;
  std::vector<std::size_t> dead;
  for (const auto& u : acc.unresolved) {
    const ParseError err = unmatched_resumed_error(acc.records[u.record_index].pid);
    if (opts.strict) note_error(acc, u.line, err);
    tail_warnings.push_back({u.line, err.what()});
    dead.push_back(u.record_index);
  }

  if (opts.strict && acc.error) std::rethrow_exception(acc.error);

  if (!dead.empty()) {
    std::size_t di = 0;
    std::size_t w = 0;
    for (std::size_t i = 0; i < acc.records.size(); ++i) {
      if (di < dead.size() && dead[di] == i) {
        ++di;
        continue;
      }
      acc.records[w++] = std::move(acc.records[i]);
    }
    acc.records.resize(w);
  }

  std::vector<LocalWarning> all_warnings;
  all_warnings.reserve(acc.warnings.size() + tail_warnings.size());
  std::merge(acc.warnings.begin(), acc.warnings.end(), tail_warnings.begin(),
             tail_warnings.end(), std::back_inserter(all_warnings),
             [](const LocalWarning& x, const LocalWarning& y) { return x.line < y.line; });
  result.warnings.reserve(all_warnings.size() + acc.pending.size());
  for (auto& w : all_warnings) {
    result.warnings.push_back("line " + std::to_string(w.line) + ": " + w.text);
  }

  // "Never resumed" warnings, sorted by pid like ResumeMerger::take_pending.
  std::vector<RawRecord> still_pending;
  still_pending.reserve(acc.pending.size());
  for (auto& [pid, rec] : acc.pending) still_pending.push_back(std::move(rec));
  std::sort(still_pending.begin(), still_pending.end(),
            [](const RawRecord& x, const RawRecord& y) { return x.pid < y.pid; });
  for (const auto& rec : still_pending) {
    result.warnings.push_back("unfinished call never resumed: pid " + std::to_string(rec.pid) +
                              " " + std::string(rec.call));
  }

  result.records = std::move(acc.records);
  for (auto& arena : acc.arenas) result.buffer->adopt(std::move(arena));
  return result;
}

}  // namespace

// ---- streamed per-file completion --------------------------------------

/// Shared state of one streamed parse, owned by the handle alone.
/// Tasks reference it through a RAW pointer: the handle joins before it
/// releases the state (wait for tasks_left == 0, after which workers
/// only run trivial epilogues), so the state's lifetime is the
/// handle's, never a worker's.
struct StreamedParse::State {
  ParallelReadOptions opts;  ///< stable storage for the ChunkReaders' reference
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  FileReadyFn on_file;

  /// Sentinel chunk index ranking fold/finalize/callback errors after
  /// every real chunk of the same file.
  static constexpr std::size_t kFoldStage = std::numeric_limits<std::size_t>::max();

  struct FileState {
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::vector<Acc> accs;                  ///< one slot per chunk
    std::atomic<std::size_t> remaining{0};  ///< chunks still parsing
    std::atomic<bool> failed{false};        ///< any chunk of this file threw
    // This file's earliest error by chunk (err_mutex): what keep_going
    // consumers quarantine per file instead of aborting the run.
    std::size_t error_chunk = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  std::deque<FileState> files;  // deque: FileState holds atomics (immovable)

  // Earliest failure in (file, chunk) input order.
  mutable std::mutex err_mutex;
  std::size_t err_file = std::numeric_limits<std::size_t>::max();
  std::size_t err_chunk = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;

  // join(): tasks_left counts every submitted chunk task.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t tasks_left = 0;

  void note_error(std::size_t f, std::size_t c, std::exception_ptr e) {
    files[f].failed.store(true, std::memory_order_release);
    std::lock_guard lock(err_mutex);
    // `!error` matters when the file's only failure is a fold/finalize
    // error: kFoldStage equals the slot's initial error_chunk, so a
    // strictly-less guard would never record it.
    if (!files[f].error || c < files[f].error_chunk) {
      files[f].error_chunk = c;
      files[f].error = e;
    }
    if (f < err_file || (f == err_file && c < err_chunk)) {
      err_file = f;
      err_chunk = c;
      err = std::move(e);
    }
  }

  /// Body of one (file, chunk) task. Never throws: every failure is
  /// recorded via note_error so propagation stays deterministic.
  void run_chunk(std::size_t f, std::size_t c) {
    FileState& fs = files[f];
    try {
      const ChunkReader reader{buffers[f]->text(), opts};
      fs.accs[c] = reader.parse_chunk(fs.chunks[c].first, fs.chunks[c].second);
    } catch (...) {
      note_error(f, c, std::current_exception());
    }
    if (fs.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) file_done(f);
  }

  /// Runs on the pool thread that finished file f's last chunk: fold
  /// left-to-right, finalize, hand the ReadResult downstream.
  void file_done(std::size_t f) {
    FileState& fs = files[f];
    if (!fs.failed.load(std::memory_order_acquire)) {
      try {
        const ChunkReader reader{buffers[f]->text(), opts};
        Acc acc;
        for (auto& chunk_acc : fs.accs) {
          acc = reader.fold(std::move(acc), std::move(chunk_acc));
        }
        // finalize_acc rethrows strict-mode parse errors — recorded
        // below so the lowest-input-index contract covers them too.
        ReadResult result = finalize_acc(std::move(acc), std::move(buffers[f]), opts);
        if (on_file) on_file(f, std::move(result));
      } catch (...) {
        note_error(f, kFoldStage, std::current_exception());
      }
    }
    // Chunk state is dead weight once the file settled; free it early.
    fs.accs.clear();
    fs.accs.shrink_to_fit();
  }

  void task_finished() {
    std::lock_guard lock(done_mutex);
    if (--tasks_left == 0) done_cv.notify_all();
  }
};

StreamedParse::~StreamedParse() { join(); }

StreamedParse& StreamedParse::operator=(StreamedParse&& other) noexcept {
  if (this != &other) {
    join();  // tasks of the replaced parse hold raw pointers into its state
    state_ = std::move(other.state_);
  }
  return *this;
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
  for (std::size_t f = 0; f < state_->files.size(); ++f) {
    if (state_->files[f].error) out.push_back({f, state_->files[f].error});
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
  if (opts.pool == nullptr) {
    throw LogicError("read_trace_buffers_streamed: ParallelReadOptions::pool is required");
  }
  ThreadPool& pool = *opts.pool;
  auto state = std::make_shared<StreamedParse::State>();
  state->opts = opts;
  state->buffers = std::move(buffers);
  state->on_file = std::move(on_file_done);

  const std::size_t n = state->buffers.size();
  std::size_t total_chunks = 0;
  for (std::size_t f = 0; f < n; ++f) {
    auto& fs = state->files.emplace_back();
    const std::string_view text = state->buffers[f]->text();
    fs.chunks = line_chunks(text, chunk_target(text, opts.min_chunk_bytes, pool.size()));
    // An empty file still settles through the normal path: one [0, 0)
    // chunk parses to an empty accumulator and finalizes to an empty
    // ReadResult, so on_file_done fires for it like for any other file.
    if (fs.chunks.empty()) fs.chunks.emplace_back(0, 0);
    fs.accs.resize(fs.chunks.size());
    fs.remaining.store(fs.chunks.size(), std::memory_order_relaxed);
    total_chunks += fs.chunks.size();
  }
  state->tasks_left = total_chunks;

  std::size_t f = 0;
  std::size_t c = 0;
  auto* s = state.get();  // raw on purpose — see the State comment
  try {
    for (f = 0; f < n; ++f) {
      for (c = 0; c < state->files[f].chunks.size(); ++c) {
        (void)pool.submit([s, f, c] {
          s->run_chunk(f, c);
          s->task_finished();
        });
      }
    }
  } catch (...) {
    // submit() failed (allocation, pool shut down). Run the chunks that
    // never made it onto the pool inline so every counter settles, and
    // join the ones that did before the exception escapes.
    for (; f < n; ++f, c = 0) {
      for (; c < state->files[f].chunks.size(); ++c) {
        state->run_chunk(f, c);
        state->task_finished();
      }
    }
    StreamedParse cleanup(std::move(state));
    cleanup.join();
    throw;
  }
  return StreamedParse(std::move(state));
}

StreamedParse read_trace_files_streamed(const std::vector<std::string>& paths,
                                        const ParallelReadOptions& opts, FileReadyFn on_file_done) {
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  buffers.reserve(paths.size());
  for (const auto& path : paths) buffers.push_back(TraceBuffer::from_file_mmap(path));
  return read_trace_buffers_streamed(std::move(buffers), opts, std::move(on_file_done));
}

}  // namespace st::strace
