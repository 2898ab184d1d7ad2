// Owned trace bytes + the arenas parsed records view into.
//
// The zero-copy ingestion contract: a RawRecord produced by the reader
// holds std::string_view fields that point either into this buffer's
// text (the common case) or into one of its arenas (synthesized
// strings). Records are therefore valid exactly as long as the
// TraceBuffer that produced them is alive; ReadResult carries the
// buffer as a shared_ptr so the contract is upheld by construction.
//
// Storage is either an owned std::string (from_file, text
// construction) or a read-only mmap of the trace file (from_file_mmap)
// — callers only ever see text() as a string_view, so the two are
// interchangeable and produce byte-identical parses. The buffer is
// neither copyable nor movable (views into text_ would dangle under
// SSO moves); it always lives behind the shared_ptr its factories
// return.
//
// Concurrency: parsing a buffer MUTATES it (interning into arena(),
// adopt()). At most one read_trace_* call may run on a given buffer at
// a time — read_trace_buffers_streamed synchronizes its own workers,
// but two overlapping reads of the same buffer are a data race.
// Records and text() may be read freely once parsing has returned.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "strace/arena.hpp"

namespace st::strace {

class TraceBuffer {
 public:
  TraceBuffer() = default;
  explicit TraceBuffer(std::string text) : text_(std::move(text)), view_(text_) {}

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  ~TraceBuffer();

  /// Reads the whole file with a single read() into the buffer.
  /// Throws IoError if the file cannot be opened.
  [[nodiscard]] static std::shared_ptr<TraceBuffer> from_file(const std::string& path);

  /// Maps the file read-only instead of copying it, so multi-GB traces
  /// never double-buffer (page cache + heap). Falls back to from_file
  /// on platforms without mmap, for empty files, and when the mapping
  /// fails — the returned buffer is indistinguishable to callers.
  [[nodiscard]] static std::shared_ptr<TraceBuffer> from_file_mmap(const std::string& path);

  [[nodiscard]] std::string_view text() const { return view_; }

  /// True when the bytes are a file mapping rather than heap storage
  /// (diagnostics; parsing behaves identically either way).
  [[nodiscard]] bool is_mapped() const { return map_ != nullptr; }

  /// Default arena for sequential parsing.
  [[nodiscard]] StringArena& arena() { return arenas_.front(); }

  /// Takes ownership of a per-chunk arena from the parallel reader so
  /// views into it live as long as the buffer.
  void adopt(StringArena&& arena) { arenas_.push_back(std::move(arena)); }

 private:
  std::string text_;
  void* map_ = nullptr;        ///< mmap base when file-backed
  std::size_t map_size_ = 0;   ///< mapped length
  std::string_view view_;      ///< the trace bytes, wherever they live
  std::deque<StringArena> arenas_ = std::deque<StringArena>(1);
};

}  // namespace st::strace
