#include "dfg/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "support/rng.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

namespace st::dfg {
namespace {

using testing::ev;
using testing::make_case;

model::EventLog small_log() {
  model::EventLog log;
  // Case 1: two reads of /usr/lib (832 B each), one write to /dev/pts.
  log.add_case(make_case("a", 1, {
                                     ev("read", "/usr/lib/a/x.so", 0, 100, 832),
                                     ev("read", "/usr/lib/a/y.so", 150, 100, 832),
                                     ev("write", "/dev/pts/7", 300, 50, 50),
                                 }));
  // Case 2: one read of /usr/lib overlapping case 1's second read.
  log.add_case(make_case("a", 2, {ev("read", "/usr/lib/a/x.so", 200, 100, 832)}));
  return log;
}

TEST(Stats, RelativeDurationsSumToOne) {
  const auto stats = IoStatistics::compute(small_log(), model::Mapping::call_top_dirs(2));
  double sum = 0;
  for (const auto& [a, s] : stats.per_activity()) sum += s.rel_dur;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Stats, RelativeDurationValues) {
  const auto stats = IoStatistics::compute(small_log(), model::Mapping::call_top_dirs(2));
  // read:/usr/lib total dur = 300, write:/dev/pts = 50, total = 350.
  const auto* read = stats.find("read\n/usr/lib");
  const auto* write = stats.find("write\n/dev/pts");
  ASSERT_NE(read, nullptr);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(read->total_dur, 300);
  EXPECT_NEAR(read->rel_dur, 300.0 / 350.0, 1e-12);
  EXPECT_NEAR(write->rel_dur, 50.0 / 350.0, 1e-12);
  EXPECT_EQ(stats.total_duration(), 350);
}

TEST(Stats, BytesSummedPerActivity) {
  const auto stats = IoStatistics::compute(small_log(), model::Mapping::call_top_dirs(2));
  EXPECT_EQ(stats.find("read\n/usr/lib")->bytes, 3 * 832);
  EXPECT_EQ(stats.find("write\n/dev/pts")->bytes, 50);
}

TEST(Stats, EventsWithoutSizeDoNotContributeBytes) {
  model::EventLog log;
  log.add_case(make_case("a", 1, {ev("openat", "/p/f", 0, 100, -1)}));
  const auto stats = IoStatistics::compute(log, model::Mapping::call_only());
  const auto* s = stats.find("openat");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->bytes, 0);
  EXPECT_FALSE(s->has_bytes);
  EXPECT_EQ(s->rate_samples, 0u);
}

TEST(Stats, ProcessDataRateIsMeanOfEventRates) {
  model::EventLog log;
  // Rates: 1000 B / 100 us = 10 MB/s; 3000 B / 100 us = 30 MB/s.
  log.add_case(make_case("a", 1, {ev("read", "/f", 0, 100, 1000), ev("read", "/f", 200, 100, 3000)}));
  const auto stats = IoStatistics::compute(log, model::Mapping::call_only());
  EXPECT_NEAR(stats.find("read")->mean_rate, 20e6, 1e-6);
  EXPECT_EQ(stats.find("read")->rate_samples, 2u);
}

TEST(Stats, ZeroDurationEventSkippedInRate) {
  model::EventLog log;
  log.add_case(make_case("a", 1, {ev("read", "/f", 0, 0, 1000), ev("read", "/f", 10, 100, 1000)}));
  const auto stats = IoStatistics::compute(log, model::Mapping::call_only());
  EXPECT_EQ(stats.find("read")->rate_samples, 1u);
  EXPECT_NEAR(stats.find("read")->mean_rate, 10e6, 1e-6);
}

TEST(Stats, MaxConcurrencyAcrossCases) {
  const auto stats = IoStatistics::compute(small_log(), model::Mapping::call_top_dirs(2));
  // Case1 read [150,250] overlaps case2 read [200,300]: mc = 2.
  EXPECT_EQ(stats.find("read\n/usr/lib")->max_concurrency, 2u);
  EXPECT_EQ(stats.find("write\n/dev/pts")->max_concurrency, 1u);
}

TEST(Stats, RankCountIsDistinctCases) {
  const auto stats = IoStatistics::compute(small_log(), model::Mapping::call_top_dirs(2));
  EXPECT_EQ(stats.find("read\n/usr/lib")->rank_count, 2u);
  EXPECT_EQ(stats.find("write\n/dev/pts")->rank_count, 1u);
}

TEST(Stats, EventCount) {
  const auto stats = IoStatistics::compute(small_log(), model::Mapping::call_top_dirs(2));
  EXPECT_EQ(stats.find("read\n/usr/lib")->event_count, 3u);
}

TEST(Stats, PartialMappingExcludesFromTotals) {
  const auto f = model::Mapping::call_top_dirs(2).filtered_fp("/usr/lib");
  const auto stats = IoStatistics::compute(small_log(), f);
  // The write is unmapped: total duration excludes it -> rel_dur = 1.
  EXPECT_EQ(stats.per_activity().size(), 1u);
  EXPECT_NEAR(stats.find("read\n/usr/lib")->rel_dur, 1.0, 1e-12);
  EXPECT_EQ(stats.total_duration(), 300);
}

TEST(Stats, LoadLabelFormat) {
  ActivityStat s;
  s.rel_dur = 0.21843;
  s.bytes = 14976;
  s.has_bytes = true;
  EXPECT_EQ(s.load_label(), "Load:0.22 (14.98 KB)");
}

TEST(Stats, LoadLabelWithoutBytes) {
  ActivityStat s;
  s.rel_dur = 0.55;
  EXPECT_EQ(s.load_label(), "Load:0.55");
}

TEST(Stats, DrLabelFormat) {
  ActivityStat s;
  s.max_concurrency = 2;
  s.mean_rate = 10.15e6;
  s.rate_samples = 6;
  EXPECT_EQ(s.dr_label(), "DR: 2x10.15 MB/s");
}

TEST(Stats, DrLabelEmptyWithoutSamples) {
  ActivityStat s;
  EXPECT_EQ(s.dr_label(), "");
}

TEST(Stats, FindMissingActivityIsNull) {
  const auto stats = IoStatistics::compute(small_log(), model::Mapping::call_top_dirs(2));
  EXPECT_EQ(stats.find("nope"), nullptr);
}

TEST(Stats, EmptyLog) {
  const auto stats = IoStatistics::compute(model::EventLog{}, model::Mapping::call_only());
  EXPECT_TRUE(stats.per_activity().empty());
  EXPECT_EQ(stats.total_duration(), 0);
}

/// Max over interval starts of the intervals strictly containing it,
/// zero-length intervals ignored: the oracle for Eq. 16.
std::size_t brute_force_concurrency(const std::vector<TimelineEntry>& entries) {
  std::size_t best = 0;
  for (const auto& probe : entries) {
    if (probe.interval.end <= probe.interval.start) continue;
    std::size_t n = 0;
    for (const auto& other : entries) {
      const Interval& iv = other.interval;
      if (iv.end > iv.start && iv.start <= probe.interval.start && probe.interval.start < iv.end) {
        ++n;
      }
    }
    best = std::max(best, n);
  }
  return best;
}

TEST(Stats, MaxConcurrencyMatchesBruteForceOverTimeline) {
  // 64 cases whose events share a few start times (ties across cases)
  // and include zero-duration calls; under call_only every activity
  // has thousands of intervals, under top2 some have fewer than a
  // thousand, so both sides of the sweep's small-input cutoff run.
  Xoshiro256 rng(5);
  const std::vector<std::string> calls = {"read", "write", "openat", "lseek"};
  const std::vector<std::string> paths = {"/p/a/x", "/p/b/y", "/usr/lib/z"};
  model::EventLog log;
  for (std::uint64_t rid = 1; rid <= 64; ++rid) {
    std::vector<model::Event> events;
    Micros t = static_cast<Micros>(rng.below(4)) * 1000;
    for (int i = 0; i < 200; ++i) {
      // Half the durations land on the 500 us start grid, so ends touch
      // later starts (touching intervals are not concurrent).
      const Micros dur = rng.below(2) == 0 ? static_cast<Micros>(rng.below(10)) * 500
                                           : static_cast<Micros>(rng.below(5000));
      events.push_back(ev(calls[rng.below(calls.size())], paths[rng.below(paths.size())], t, dur,
                          512));
      t += static_cast<Micros>(rng.below(3)) * 500;
    }
    log.add_case(make_case("mc", rid, std::move(events), "h" + std::to_string(rid % 3)));
  }
  for (const auto& f : {model::Mapping::call_only(), model::Mapping::call_top_dirs(2)}) {
    const auto stats = IoStatistics::compute(log, f);
    ASSERT_FALSE(stats.per_activity().empty());
    for (const auto& [activity, stat] : stats.per_activity()) {
      EXPECT_EQ(stat.max_concurrency,
                brute_force_concurrency(IoStatistics::timeline(log, f, activity)))
          << activity;
    }
  }
}

TEST(Stats, PooledFinalizeIsBitIdenticalToInline) {
  // One dominant activity (most intervals, so it runs first on the
  // pool), many small ones, zero-length intervals, cases with no
  // activity at all, and one case id in both of two shard partials.
  Xoshiro256 rng(11);
  const auto f = model::Mapping::call_top_dirs(2);
  const auto shard = [&](std::uint64_t lo, std::uint64_t hi) {
    IoStatistics::Partial p;
    for (std::uint64_t rid = lo; rid <= hi; ++rid) {
      std::vector<model::Event> events;
      if (rid % 9 != 0) {  // every ninth case has no event
        Micros t = static_cast<Micros>(rng.below(1000));
        for (int i = 0; i < 600; ++i) {
          const Micros dur = rng.below(4) == 0 ? 0 : static_cast<Micros>(rng.below(3000));
          const std::int64_t size = static_cast<std::int64_t>(rng.below(1 << 20));
          const bool small = rng.below(10) == 0;
          const std::string fp =
              small ? "/s/" + std::to_string(rng.below(24)) + "/f" : "/big/data/f";
          events.push_back(ev(small ? "write" : "read", fp, t, dur, size));
          t += static_cast<Micros>(rng.below(700));
        }
      }
      p.add_case(make_case("pf", rid, std::move(events), "h" + std::to_string(rid % 4)), f);
    }
    return p;
  };
  IoStatistics::Partial merged = shard(1, 40);
  merged.merge(shard(40, 70));  // rid 40 in both shards

  const IoStatistics inline_stats = merged.finalize();
  const ActivityStat* big = inline_stats.find("read\n/big/data");
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->rank_count, 70u - 70u / 9);  // rid 40 counted once, empty cases not at all
  ASSERT_GT(inline_stats.per_activity().size(), 10u);
  for (const std::size_t workers : {2u, 4u}) {
    ThreadPool pool(workers);
    testing::expect_same_io_stats(merged.finalize(&pool), inline_stats);
  }
}

TEST(Timeline, CollectsIntervalsOfOneActivity) {
  const auto entries =
      IoStatistics::timeline(small_log(), model::Mapping::call_top_dirs(2), "read\n/usr/lib");
  ASSERT_EQ(entries.size(), 3u);
  // Sorted by start.
  EXPECT_EQ(entries[0].interval.start, 0);
  EXPECT_EQ(entries[1].interval.start, 150);
  EXPECT_EQ(entries[2].interval.start, 200);
  EXPECT_EQ(entries[2].case_id.rid, 2u);
}

TEST(Timeline, UnknownActivityIsEmpty) {
  EXPECT_TRUE(
      IoStatistics::timeline(small_log(), model::Mapping::call_top_dirs(2), "zzz").empty());
}

}  // namespace
}  // namespace st::dfg
