// bench_serve — serve-mode latency under concurrent mixed traffic.
//
// Unlike its siblings this is a plain main, not google-benchmark: the
// quantity of interest is the LATENCY DISTRIBUTION of individual
// requests under a stampede of clients (p50/p99 plus the catalog's
// cache hit-rate), which google-benchmark's per-iteration mean cannot
// express. It still tolerates (and ignores) --benchmark_* flags so the
// CI bench-smoke loop, which passes --benchmark_min_time to every
// bench_* binary, runs it unmodified.
//
//   bench_serve [--clients=N] [--requests=M] [--cache-entries=K]
//               [--cases=C] [--events=E]
//
// Drives N client threads, each issuing M requests from a fixed mixed
// workload (query / report / diff / stat over 8 distinct queries)
// through corpus::handle_request against one resident Catalog, and
// prints a JSON record to stdout — run_bench.sh wraps it into
// BENCH_serve.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "corpus/catalog.hpp"
#include "corpus/serve.hpp"
#include "elog/v2_store.hpp"
#include "parallel/thread_pool.hpp"
#include "testdata.hpp"

namespace {

struct Options {
  std::size_t clients = 4;
  std::size_t requests = 64;       ///< per client
  std::size_t cache_entries = 16;  ///< small enough that eviction happens
  std::size_t cases = 512;
  std::size_t events = 64;  ///< per case
};

/// Lenient flag loop: unknown flags (notably --benchmark_*) are
/// ignored rather than fatal, so the CI smoke pass works unchanged.
Options parse_args(int argc, char** argv) {
  Options o;
  auto value = [](std::string_view arg, std::string_view flag, std::size_t& out) {
    if (!arg.starts_with(flag)) return false;
    out = static_cast<std::size_t>(std::strtoull(arg.substr(flag.size()).data(), nullptr, 10));
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (value(arg, "--clients=", o.clients) || value(arg, "--requests=", o.requests) ||
        value(arg, "--cache-entries=", o.cache_entries) || value(arg, "--cases=", o.cases) ||
        value(arg, "--events=", o.events)) {
      continue;
    }
  }
  if (o.clients == 0) o.clients = 1;
  if (o.requests == 0) o.requests = 1;
  return o;
}

/// The fixed request mix. Weighted towards the cheap verbs the way
/// interactive exploration is: many narrow queries, some reports, the
/// occasional diff and stat probe. Every line is canonical-or-lenient
/// grammar that resolves to one of 8 distinct cache keys per kind.
const std::vector<std::string>& workload() {
  static const std::vector<std::string> kRequests = {
      "query fp~/data/dir1",
      "query fp~/data/dir2",
      "query calls{read}",
      "query calls{write}",
      "query fp~/data/dir1 calls{read,write}",
      "report fp~/data/dir1",
      "report calls{read}",
      "report all",
      "diff calls{read} :: calls{write}",
      "diff fp~/data/dir1 :: fp~/data/dir2",
      "query t[0,50000000)",
      "query hosts{node1}",
      "stat all",
      "stat fp~/data/dir1",
      "query fp~/data/dir2 calls{read}",
      "report fp~/data/dir2",
  };
  return kRequests;
}

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const auto idx =
      static_cast<std::size_t>(p / 100.0 * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);

  // A self-contained corpus, round-tripped through elog v2 so the
  // catalog loads the way serve mode does in production (mmap'd
  // container, not in-memory handoff).
  const auto elog_path = std::filesystem::temp_directory_path() /
                         ("bench_serve_" + std::to_string(::getpid()) + ".elog");
  st::elog::write_event_log_v2_file(elog_path.string(),
                                    st::bench::synthetic_log(42, o.cases, o.events, 64));

  st::corpus::CatalogOptions copts;
  copts.cache_capacity = o.cache_entries;
  st::corpus::Catalog catalog(copts);
  st::ThreadPool pool(o.clients);
  catalog.load({elog_path.string()}, pool);
  std::filesystem::remove(elog_path);

  const auto& requests = workload();

  // Warm nothing: the measured run includes the cold misses, exactly
  // like a freshly started server taking its first traffic burst.
  //
  // Each workload line is one cache key; the first request to claim a
  // line is tagged cold, every later one warm. This is first-SEEN, not
  // first-COMPUTED: concurrent requests for the same line block on the
  // catalog's single-flight and pay cold latency while tagged warm, and
  // an eviction refill is likewise tagged warm — so the cold/warm split
  // understates the gap slightly rather than flattering it.
  struct Sample {
    std::string_view verb;
    double us;
    bool cold;
  };
  std::vector<std::vector<Sample>> per_client(o.clients);
  std::vector<std::atomic_flag> seen(requests.size());
  std::atomic<std::size_t> failures{0};

  const auto wall_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> clients;
    clients.reserve(o.clients);
    for (std::size_t c = 0; c < o.clients; ++c) {
      clients.emplace_back([&, c] {
        auto& samples = per_client[c];
        samples.reserve(o.requests);
        for (std::size_t i = 0; i < o.requests; ++i) {
          // Deterministic per-thread interleave: clients start at
          // different offsets and stride co-prime to the table size,
          // so the mix overlaps without being lock-step.
          const std::size_t slot = (c * 7 + i * 5) % requests.size();
          const auto& line = requests[slot];
          const bool cold = !seen[slot].test_and_set(std::memory_order_relaxed);
          const auto t0 = std::chrono::steady_clock::now();
          const auto r = st::corpus::handle_request(catalog, line);
          const auto t1 = std::chrono::steady_clock::now();
          if (!r.ok) failures.fetch_add(1, std::memory_order_relaxed);
          samples.push_back(
              {std::string_view(line).substr(0, line.find(' ')),
               std::chrono::duration<double, std::micro>(t1 - t0).count(), cold});
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  std::vector<double> all_us;
  std::map<std::string, std::vector<double>> by_verb;
  std::map<std::string, std::vector<double>> by_verb_cold;
  std::map<std::string, std::vector<double>> by_verb_warm;
  for (const auto& samples : per_client) {
    for (const auto& s : samples) {
      all_us.push_back(s.us);
      by_verb[std::string(s.verb)].push_back(s.us);
      (s.cold ? by_verb_cold : by_verb_warm)[std::string(s.verb)].push_back(s.us);
    }
  }
  std::sort(all_us.begin(), all_us.end());

  const auto stats = catalog.cache_stats();
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  const double hit_rate = lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0;

  std::printf("{\n");
  std::printf("  \"clients\": %zu,\n", o.clients);
  std::printf("  \"requests_per_client\": %zu,\n", o.requests);
  std::printf("  \"total_requests\": %zu,\n", all_us.size());
  std::printf("  \"failed_requests\": %zu,\n", failures.load());
  std::printf("  \"corpus\": {\"cases\": %zu, \"events\": %llu},\n", catalog.case_count(),
              static_cast<unsigned long long>(catalog.total_events()));
  std::printf("  \"wall_seconds\": %.4f,\n", wall_s);
  std::printf("  \"requests_per_second\": %.1f,\n",
              wall_s > 0 ? static_cast<double>(all_us.size()) / wall_s : 0.0);
  std::printf("  \"latency_us\": {\n");
  std::printf("    \"overall\": {\"p50\": %.1f, \"p99\": %.1f, \"max\": %.1f},\n",
              percentile(all_us, 50), percentile(all_us, 99), all_us.empty() ? 0.0 : all_us.back());
  std::printf("    \"per_verb\": {");
  bool first = true;
  for (auto& [verb, samples] : by_verb) {
    std::sort(samples.begin(), samples.end());
    std::printf("%s\n      \"%s\": {\"p50\": %.1f, \"p99\": %.1f, \"count\": %zu}",
                first ? "" : ",", verb.c_str(), percentile(samples, 50), percentile(samples, 99),
                samples.size());
    first = false;
  }
  std::printf("\n    },\n");
  // The first-seen / later-hit split per verb. report is the headline:
  // a cold full-HTML render vs the cache hit that replaces it.
  std::printf("    \"cold_warm\": {");
  first = true;
  for (auto& [verb, samples] : by_verb) {
    auto split_stats = [&](std::map<std::string, std::vector<double>>& side) {
      auto it = side.find(verb);
      if (it == side.end()) return std::string("{\"count\": 0}");
      std::sort(it->second.begin(), it->second.end());
      char buf[96];
      std::snprintf(buf, sizeof(buf), "{\"p50\": %.1f, \"p99\": %.1f, \"count\": %zu}",
                    percentile(it->second, 50), percentile(it->second, 99), it->second.size());
      return std::string(buf);
    };
    std::printf("%s\n      \"%s\": {\"cold\": %s, \"warm\": %s}", first ? "" : ",", verb.c_str(),
                split_stats(by_verb_cold).c_str(), split_stats(by_verb_warm).c_str());
    first = false;
  }
  std::printf("\n    }\n");
  std::printf("  },\n");
  std::printf("  \"cache\": {\"hits\": %llu, \"misses\": %llu, \"evictions\": %llu, "
              "\"entries\": %zu, \"hit_rate\": %.3f}\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions), stats.entries, hit_rate);
  std::printf("}\n");
  return failures.load() == 0 ? 0 : 1;
}
