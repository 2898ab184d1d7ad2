#include "pipeline/shard.hpp"

#include <dirent.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <utility>

#include "model/mapping.hpp"
#include "parallel/thread_pool.hpp"
#include "support/errors.hpp"
#include "support/faultpoint.hpp"

extern char** environ;

namespace st::pipeline {

namespace {

[[nodiscard]] std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw IoError("cannot open shard partial: " + path + ": " + std::strerror(errno));
  }
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (in.bad()) {
    throw IoError("cannot read shard partial: " + path + ": " + std::strerror(errno));
  }
  std::string out = std::move(bytes).str();
  FAULT_POINT_DATA("shard.blob_read", out);
  return out;
}

/// mkdtemp-backed scratch directory for the shard blobs, removed on
/// scope exit (including the error paths).
struct TempDir {
  std::string path;

  TempDir() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "st_shard_XXXXXX").string();
    if (mkdtemp(templ.data()) == nullptr) {
      throw IoError("cannot create shard temp dir: " + std::string(std::strerror(errno)));
    }
    path = std::move(templ);
  }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// EINTR-retried waitpid (a debugger or profiler signal must not turn
/// into a phantom shard failure).
[[nodiscard]] pid_t waitpid_retry(pid_t pid, int* status, int flags) {
  while (true) {
    const pid_t r = ::waitpid(pid, status, flags);
    if (r >= 0 || errno != EINTR) return r;
  }
}

/// Human-readable wait(2) status: the WIFSIGNALED/WTERMSIG/exit-status
/// detail a coordinator needs to tell a crash from a nonzero exit.
[[nodiscard]] std::string exit_detail(int status) {
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = ::strsignal(sig);
    return "killed by signal " + std::to_string(sig) +
           (name != nullptr ? " (" + std::string(name) + ")" : std::string());
  }
  return "ended with wait status " + std::to_string(status);
}

/// Queues a close action for every inherited fd above stdio, so
/// long-lived children can't pin the coordinator's mmaps, pipes or
/// temp files. Best effort: without /proc the child just inherits, as
/// before. The list is snapshotted under no lock — a racing close would
/// make an addclose action fail the spawn, which the retry/fallback
/// path absorbs like any other transient spawn failure.
void add_close_inherited_fds(posix_spawn_file_actions_t& actions) {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return;
  const int self = ::dirfd(dir);
  std::vector<int> fds;
  while (dirent* entry = ::readdir(dir)) {
    char* end = nullptr;
    const long fd = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    if (fd <= 2 || fd == self) continue;
    fds.push_back(static_cast<int>(fd));
  }
  ::closedir(dir);
  for (const int fd : fds) ::posix_spawn_file_actions_addclose(&actions, fd);
}

struct SpawnedResult {
  std::vector<ShardPartial> parts;  ///< shard order
  ShardRunReport report;
};

/// The supervising coordinator. Spawns one fold-shard subprocess per
/// split and polls them: a clean exit's blob is read and decoded
/// (missing, unreadable or CRC-rejected blobs are RETRYABLE failures,
/// same as a crash or a deadline kill); a failed attempt
/// respawns with backoff, up to opts.max_attempts, with ST_FAULTS
/// scrubbed from the retry environment; an exhausted shard falls back
/// to an in-process fold. Only a shard whose fallback also failed is
/// fatal — reported lowest shard index first.
class Supervisor {
 public:
  Supervisor(const std::vector<std::vector<std::string>>& splits, const ShardOptions& opts)
      : splits_(splits), opts_(opts), shards_(splits.size()) {
    result_.report.shards.resize(splits.size());
    for (std::size_t i = 0; i < splits.size(); ++i) {
      shards_[i].out_path = tmp_.path + "/shard_" + std::to_string(i) + ".partial";
    }
  }

  [[nodiscard]] SpawnedResult run() {
    for (std::size_t i = 0; i < shards_.size(); ++i) start_attempt(i);
    poll_until_settled();

    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i].fatal.empty()) throw IoError(shards_[i].fatal);
    }
    result_.parts.reserve(shards_.size());
    for (ShardState& s : shards_) result_.parts.push_back(std::move(*s.part));
    return std::move(result_);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct ShardState {
    std::string out_path;
    pid_t pid = -1;
    std::size_t attempts = 0;
    Clock::time_point deadline{};
    bool timed_out = false;  ///< current attempt hit its deadline
    std::optional<ShardPartial> part;
    std::string fatal;

    [[nodiscard]] bool settled() const { return part.has_value() || !fatal.empty(); }
  };

  void start_attempt(std::size_t i) {
    ShardState& s = shards_[i];
    ++s.attempts;
    ++result_.report.shards[i].attempts;
    s.timed_out = false;
    // A killed attempt may have left a stale/partial blob behind.
    std::error_code ec;
    std::filesystem::remove(s.out_path, ec);

    std::vector<std::string> args = {opts_.fold_shard_exe, "fold-shard", s.out_path,
                                     "--map", opts_.mapping};
    if (opts_.worker_threads != 0) {
      args.emplace_back("--threads");
      args.emplace_back(std::to_string(opts_.worker_threads));
    }
    if (opts_.stream.keep_going) args.emplace_back("--keep-going");
    args.emplace_back("--shard-index");
    args.emplace_back(std::to_string(i));
    args.insert(args.end(), splits_[i].begin(), splits_[i].end());

    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    try {
      FAULT_POINT("shard.spawn");
      posix_spawn_file_actions_t actions;
      ::posix_spawn_file_actions_init(&actions);
      add_close_inherited_fds(actions);
      pid_t pid = -1;
      char** env = s.attempts == 1 ? environ : retry_environment();
      const int rc = ::posix_spawn(&pid, opts_.fold_shard_exe.c_str(), &actions, nullptr,
                                   argv.data(), env);
      ::posix_spawn_file_actions_destroy(&actions);
      if (rc != 0) {
        throw IoError("cannot spawn " + opts_.fold_shard_exe + ": " + std::strerror(rc));
      }
      s.pid = pid;
      if (opts_.shard_timeout_ms != 0) {
        s.deadline = Clock::now() + std::chrono::milliseconds(opts_.shard_timeout_ms);
      }
    } catch (const Error& e) {
      s.pid = -1;
      attempt_failed(i, e.what());
    }
  }

  void attempt_failed(std::size_t i, std::string detail) {
    ShardState& s = shards_[i];
    s.pid = -1;
    auto& rep = result_.report.shards[i];
    rep.failures.push_back("attempt " + std::to_string(s.attempts) + ": " +
                           std::move(detail));
    if (s.attempts < opts_.max_attempts) {
      if (opts_.retry_backoff_ms != 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(static_cast<std::uint64_t>(opts_.retry_backoff_ms) *
                                      s.attempts));
      }
      start_attempt(i);  // bounded mutual recursion: depth <= max_attempts
      return;
    }
    try {
      // The subprocess was an optimization; the bytes are still
      // reachable right here. Still through the codec, so the two
      // paths cannot drift.
      s.part = decode_shard_partial(fold_shard(splits_[i], opts_));
      rep.fell_back = true;
    } catch (const Error& e) {
      s.fatal = "shard " + std::to_string(i) + ": in-process fallback failed: " + e.what();
    }
  }

  void poll_until_settled() {
    while (true) {
      bool progressed = false;
      bool pending = false;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        ShardState& s = shards_[i];
        if (s.settled() || s.pid < 0) continue;
        int status = 0;
        const pid_t r = waitpid_retry(s.pid, &status, WNOHANG);
        if (r == 0) {
          pending = true;
          if (opts_.shard_timeout_ms != 0 && !s.timed_out && Clock::now() >= s.deadline) {
            ::kill(s.pid, SIGKILL);  // reaped (as signaled) on a later poll
            s.timed_out = true;
          }
          continue;
        }
        progressed = true;
        if (r < 0) {
          attempt_failed(i, std::string("waitpid failed: ") + std::strerror(errno));
        } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          try {
            s.part = decode_shard_partial(read_file_bytes(s.out_path));
          } catch (const Error& e) {
            attempt_failed(i, std::string("shard partial rejected: ") + e.what());
          }
        } else {
          std::string detail = exit_detail(status);
          if (s.timed_out) {
            detail += " after the " + std::to_string(opts_.shard_timeout_ms) +
                      "ms deadline expired";
          }
          attempt_failed(i, std::move(detail));
        }
        pending = pending || (!s.settled() && s.pid >= 0);
      }
      if (!pending) return;
      if (!progressed) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// The retry environment: the coordinator's, minus ST_FAULTS. Every
  /// child parses ST_FAULTS afresh at startup, so an env-injected
  /// "nth=1" fault would otherwise re-fire in EVERY respawn — scrubbing
  /// is what makes retries heal injected faults (the supervised
  /// analogue of a transient failure not recurring).
  [[nodiscard]] char** retry_environment() {
    if (retry_env_.empty()) {
      for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "ST_FAULTS=", 10) == 0) continue;
        retry_store_.emplace_back(*e);
      }
      retry_env_.reserve(retry_store_.size() + 1);
      for (std::string& v : retry_store_) retry_env_.push_back(v.data());
      retry_env_.push_back(nullptr);
    }
    return retry_env_.data();
  }

  const std::vector<std::vector<std::string>>& splits_;
  const ShardOptions& opts_;
  const TempDir tmp_;
  std::vector<ShardState> shards_;
  SpawnedResult result_;
  std::vector<std::string> retry_store_;
  std::vector<char*> retry_env_;
};

}  // namespace

std::size_t ShardRunReport::total_retries() const {
  std::size_t retries = 0;
  for (const Shard& s : shards) retries += s.attempts > 1 ? s.attempts - 1 : 0;
  return retries;
}

std::size_t ShardRunReport::total_fallbacks() const {
  return static_cast<std::size_t>(
      std::count_if(shards.begin(), shards.end(), [](const Shard& s) { return s.fell_back; }));
}

std::vector<std::string> ShardRunReport::to_lines() const {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Shard& s = shards[i];
    if (s.attempts <= 1 && !s.fell_back && s.failures.empty()) continue;
    std::string line =
        "shard " + std::to_string(i) + ": " + std::to_string(s.attempts) + " attempt(s)";
    if (s.fell_back) line += ", recovered by in-process fallback";
    for (const std::string& failure : s.failures) {
      line += "; ";
      line += failure;
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

ShardPartial fold_report(const std::vector<std::string>& paths, const model::Mapping& f,
                         ThreadPool& pool, const StreamOptions& stream_opts,
                         std::span<CaseSink* const> extra_sinks) {
  DfgSink graph_sink(f);
  CaseStatsSink stats_sink;
  VariantsSink variants_sink(f);
  IoStatsSink io_sink(f);
  EdgeStatsSink edge_sink(f);
  std::vector<CaseSink*> sinks = {&graph_sink, &stats_sink, &variants_sink, &io_sink,
                                  &edge_sink};
  sinks.insert(sinks.end(), extra_sinks.begin(), extra_sinks.end());

  IngestSummary summary = ingest(paths, pool, std::span<CaseSink* const>(sinks), stream_opts);
  ShardPartial p;
  p.mapping = f.name();
  p.case_count = summary.case_count;
  p.total_events = summary.total_events;
  p.warnings = std::move(summary.warnings);
  p.health = std::move(summary.health);
  p.graph = graph_sink.take_graph();
  p.case_summaries = stats_sink.take_summaries();
  p.variants = variants_sink.take_variants();
  p.io = io_sink.take_partial();
  p.edges = edge_sink.take_partial();
  return p;
}

std::string fold_shard(const std::vector<std::string>& paths, const ShardOptions& opts) {
  const model::Mapping f = model::mapping_by_name(opts.mapping);
  ThreadPool pool(opts.worker_threads);
  return encode_shard_partial(fold_report(paths, f, pool, opts.stream));
}

ShardedAnalytics finalize_shards(std::vector<ShardPartial> parts, ThreadPool* pool) {
  ShardedAnalytics out;
  if (!parts.empty()) out.mapping = parts.front().mapping;
  ShardPartial total;
  for (ShardPartial& p : parts) {
    if (p.mapping != out.mapping) {
      throw LogicError("finalize_shards: partials folded under different mappings (" +
                       out.mapping + ", " + p.mapping + ")");
    }
    total.merge(std::move(p));
  }

  out.case_count = total.case_count;
  out.total_events = total.total_events;
  out.warnings = std::move(total.warnings);
  out.graph = std::move(total.graph);
  out.case_summaries = std::move(total.case_summaries);
  out.variants = std::move(total.variants);
  out.io_stats = total.io.finalize(pool);
  out.edge_stats = total.edges.finalize();
  out.io_partial = std::move(total.io);
  // Counters summed shard by shard; the class tally is recomputed from
  // the merged warning list so it matches the streamed run exactly.
  out.health = std::move(total.health);
  out.health.warnings_by_class.clear();
  out.health.classify(out.warnings);
  return out;
}

ShardedAnalytics run_sharded(const std::vector<std::string>& paths, const ShardOptions& opts) {
  if (opts.shards == 0) throw LogicError("run_sharded: shards must be >= 1");
  if (opts.max_attempts == 0) throw LogicError("run_sharded: max_attempts must be >= 1");
  // pipeline::ingest's pre-I/O checks over every shard's files, BEFORE
  // any subprocess spawns: a case id repeated across shards is caught
  // only here. Under keep_going the bad names stay in their split —
  // each shard's ingest quarantines them with the exact warning the
  // streamed run emits.
  (void)check_trace_names(paths, opts.stream.keep_going);

  std::vector<std::vector<std::string>> splits;
  const std::size_t n = paths.size();
  for (std::size_t i = 0; i < opts.shards; ++i) {
    const std::size_t lo = i * n / opts.shards;
    const std::size_t hi = (i + 1) * n / opts.shards;
    if (lo < hi) splits.emplace_back(paths.begin() + lo, paths.begin() + hi);
  }

  std::vector<ShardPartial> parts;
  ShardRunReport report;
  if (opts.fold_shard_exe.empty()) {
    parts.reserve(splits.size());
    for (const std::vector<std::string>& s : splits) {
      parts.push_back(decode_shard_partial(fold_shard(s, opts)));
    }
  } else {
    SpawnedResult spawned = Supervisor(splits, opts).run();
    parts = std::move(spawned.parts);
    report = std::move(spawned.report);
  }

  ThreadPool pool(opts.worker_threads);
  ShardedAnalytics out = finalize_shards(std::move(parts), &pool);
  out.shard_report = std::move(report);
  return out;
}

}  // namespace st::pipeline
