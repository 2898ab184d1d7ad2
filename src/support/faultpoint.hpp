// Deterministic fault injection — the robustness layer's probe points.
//
// Every error path the pipeline promises to survive (ISSUE 8) is
// reachable on demand through a named FAULT_POINT site compiled into
// the code it exercises:
//
//   reader.open       TraceBuffer file open (mmap and read paths)
//   reader.chunk      one chunk's parse task
//   pipeline.convert  a file's record -> Case conversion, on the pool
//                     thread that finished the file's parse
//   sink.fold         the per-case sink folds right after it
//   sink.merge        the input-order sink merge phase (fires before
//                     the first merge, so "a failing run merges
//                     nothing" stays true under injection)
//   codec.decode      decode_shard_partial (data site: the blob)
//   elog.open         MappedElog::from_buffer
//   elog.crc          one elog v2 section CRC validation
//   shard.spawn       one fold-shard subprocess spawn attempt
//   shard.blob_read   reading a shard's partial blob (data site)
//   shard.child       elog_tool's fold-shard verb (subprocess only;
//                     shard.child#<i> targets one coordinator-assigned
//                     shard index)
//   publish           an output file's rename over its destination
//                     (support/publish.hpp): firing leaves the previous
//                     file untouched
//
// A site is armed via the environment —
//
//   ST_FAULTS=site=kind[:nth][,site=kind[:nth]...]
//
// parsed once at process start (so posix_spawn'd children inherit the
// injection), or programmatically (arm / ScopedFault) for in-process
// tests. Kinds:
//
//   error       throw FaultInjected (an IoError — the documented typed
//               error of every instrumented layer)
//   exit        _exit(70): a crashing process, nothing unwound
//   hang_ms<N>  sleep N ms (default 200) and continue — trips
//               supervision deadlines without wedging the test suite
//   truncate    data sites: drop the second half of the bytes
//   bitflip     data sites: flip one bit in the middle byte
//
// `nth` fires the fault on exactly the nth hit of the site (1-based;
// default 1 — one-shot, so a retry of the same step heals). `:0` fires
// on every hit (persistent faults; retries do NOT heal, only the
// in-process fallback does). truncate/bitflip at a control-only site
// degrade to `error`.
//
// Cost: one relaxed atomic load per site when nothing is armed.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/errors.hpp"

namespace st::fault {

enum class Kind { kError, kExit, kHang, kTruncate, kBitflip };

struct Spec {
  Kind kind = Kind::kError;
  std::uint64_t nth = 1;       ///< 1-based hit that fires; 0 = every hit
  std::uint32_t hang_ms = 200; ///< sleep for Kind::kHang
};

/// What an `error` injection throws: an IoError, so every instrumented
/// layer's documented error contract covers injected faults too.
class FaultInjected : public IoError {
 public:
  explicit FaultInjected(std::string_view site)
      : IoError("fault injected at " + std::string(site)) {}
};

namespace detail {
extern std::atomic<bool> g_armed;
}  // namespace detail

/// The disabled fast path: one relaxed load. False whenever no site is
/// armed (the overwhelmingly common case).
[[nodiscard]] inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Parses one spec string: "error", "exit", "hang_ms250", "bitflip:0",
/// "error:3"... Throws ParseError on anything else.
[[nodiscard]] Spec parse_spec(std::string_view text);

/// Arms `site` (replacing any previous spec and resetting its hit
/// counter).
void arm(std::string site, Spec spec);

/// Disarms one site; returns whether it was armed.
bool disarm(std::string_view site);

/// Disarms everything (tests).
void disarm_all();

/// Parses an ST_FAULTS-grammar config and arms every entry. Throws
/// ParseError on malformed input. Called automatically at process
/// start with the ST_FAULTS environment variable (malformed env prints
/// a warning to stderr instead of throwing — a typo must not turn the
/// injection harness itself into the fault).
void load_env(std::string_view config);

[[nodiscard]] std::vector<std::string> armed_sites();

/// Times `site` was hit since it was armed (tests/observability).
[[nodiscard]] std::uint64_t hits(std::string_view site);

// -- slow paths (called only when armed()) -------------------------------

/// Control site: throws / exits / sleeps per the armed spec, no-op when
/// `site` is not armed or this hit is not the nth.
void point(std::string_view site);

/// Data site: additionally supports truncate/bitflip by mutating
/// `bytes` in place.
void point_data(std::string_view site, std::string& bytes);

/// Data site over an immutable view: when the site fires a data kind
/// the corrupted copy lands in `scratch` and the returned view aliases
/// it; otherwise `data` comes back untouched (zero copies).
[[nodiscard]] std::string_view corrupt_view(std::string_view site, std::string_view data,
                                            std::string& scratch);

/// RAII arm/disarm for tests.
class ScopedFault {
 public:
  ScopedFault(std::string site, Spec spec) : site_(std::move(site)) { arm(site_, spec); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
  ~ScopedFault() { disarm(site_); }

 private:
  std::string site_;
};

}  // namespace st::fault

#define FAULT_POINT(site) \
  (::st::fault::armed() ? ::st::fault::point(site) : (void)0)
#define FAULT_POINT_DATA(site, bytes) \
  (::st::fault::armed() ? ::st::fault::point_data((site), (bytes)) : (void)0)
