#include "dfg/builder.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"
#include "testing_util.hpp"

namespace st::dfg {
namespace {

/// Randomized event log: `cases` cases, each with up to `max_events`
/// events over a small alphabet of calls/paths.
model::EventLog random_log(std::uint64_t seed, std::size_t cases, std::size_t max_events) {
  Xoshiro256 rng(seed);
  const std::vector<std::string> calls = {"read", "write", "openat", "lseek"};
  const std::vector<std::string> paths = {"/usr/lib/a", "/etc/b", "/p/scratch/c", "/dev/pts/1"};
  model::EventLog log;
  for (std::size_t c = 0; c < cases; ++c) {
    std::vector<model::Event> events;
    const std::size_t n = rng.below(max_events + 1);
    for (std::size_t i = 0; i < n; ++i) {
      auto e = testing::ev(calls[rng.below(calls.size())], paths[rng.below(paths.size())],
                           static_cast<Micros>(rng.below(10000)),
                           static_cast<Micros>(1 + rng.below(100)),
                           static_cast<std::int64_t>(rng.below(4096)));
      events.push_back(std::move(e));
    }
    log.add_case(testing::make_case("r", c + 1, std::move(events)));
  }
  return log;
}

TEST(Builder, SerialMatchesActivityLogConstruction) {
  const auto log = random_log(1, 20, 30);
  const auto f = model::Mapping::call_top_dirs(2);
  const Dfg via_activity_log = Dfg::build(model::ActivityLog::build(log, f));
  const Dfg direct = build_serial(log, f);
  EXPECT_EQ(via_activity_log, direct);
}

TEST(Builder, EmptyLogGivesEmptyDfg) {
  const auto f = model::Mapping::call_only();
  EXPECT_TRUE(build_serial(model::EventLog{}, f).empty());
  EXPECT_TRUE(testing::dfg_via_sink(model::EventLog{}, f, 4).empty());
}

// Property: the scalable construction (refs [24][25]) — per-group
// partial graphs folded by pipeline::DfgSink and merged in order —
// gives exactly the serial graph, for many random logs and groupings.
struct BuilderParam {
  std::uint64_t seed;
  std::size_t cases;
  std::size_t groups;
};

class BuilderEquivalence : public ::testing::TestWithParam<BuilderParam> {};

TEST_P(BuilderEquivalence, GroupedSinkFoldEqualsSerial) {
  const auto param = GetParam();
  const auto log = random_log(param.seed, param.cases, 40);
  const auto f = model::Mapping::call_top_dirs(2);
  EXPECT_EQ(build_serial(log, f), testing::dfg_via_sink(log, f, param.groups));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BuilderEquivalence,
    ::testing::Values(BuilderParam{2, 1, 1}, BuilderParam{3, 1, 4}, BuilderParam{4, 7, 2},
                      BuilderParam{5, 16, 4}, BuilderParam{6, 33, 3}, BuilderParam{7, 64, 8},
                      BuilderParam{8, 100, 4}, BuilderParam{9, 128, 16},
                      BuilderParam{10, 255, 8}, BuilderParam{11, 256, 5}),
    [](const ::testing::TestParamInfo<BuilderParam>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_cases" +
             std::to_string(param_info.param.cases) + "_groups" + std::to_string(param_info.param.groups);
    });

TEST(Builder, PartialMappingDropsEventsInBothPaths) {
  const auto log = random_log(12, 25, 30);
  const auto f = model::Mapping::call_top_dirs(2).filtered_fp("/usr");
  const Dfg serial = build_serial(log, f);
  EXPECT_EQ(serial, testing::dfg_via_sink(log, f, 4));
  for (const auto& a : serial.activities()) {
    EXPECT_NE(a.find("/usr"), std::string::npos);
  }
}

}  // namespace
}  // namespace st::dfg
