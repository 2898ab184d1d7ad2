// The paper's clock-synchronization claim (Sec. IV-B), as properties:
// shifting whole host clocks changes max-concurrency (possibly), but
// never the DFG, the relative durations, the byte totals, the data
// rates, or the rank counts.
#include <gtest/gtest.h>

#include "dfg/builder.hpp"
#include "dfg/stats.hpp"
#include "iosim/campaign.hpp"
#include "paper_oracles.hpp"
#include "support/rng.hpp"
#include "testing_util.hpp"

namespace st::model {
namespace {

using testing::ev;
using testing::make_case;
using testing::shift_host_clocks;

EventLog two_host_log() {
  EventLog log;
  // node1 and node2 events overlap when clocks are aligned.
  log.add_case(make_case("x", 1, {ev("read", "/p/f", 0, 100, 64), ev("read", "/p/f", 200, 100, 64)},
                         "node1"));
  log.add_case(make_case("x", 2, {ev("read", "/p/f", 50, 100, 64)}, "node2"));
  return log;
}

TEST(Skew, ShiftMovesOnlyNamedHosts) {
  const auto shifted = shift_host_clocks(two_host_log(), {{"node2", 1'000'000}});
  const auto* c1 = shifted.find_case(CaseId{"x", "node1", 1});
  const auto* c2 = shifted.find_case(CaseId{"x", "node2", 2});
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c1->events()[0].start, 0);
  EXPECT_EQ(c2->events()[0].start, 1'000'050);
  EXPECT_EQ(c2->events()[0].dur, 100);  // durations untouched
}

TEST(Skew, NegativeOffsetsAllowed) {
  const auto shifted = shift_host_clocks(two_host_log(), {{"node1", -40}});
  EXPECT_EQ(shifted.find_case(CaseId{"x", "node1", 1})->events()[0].start, -40);
}

TEST(Skew, MaxConcurrencyChangesUnderSkew) {
  const auto f = Mapping::call_only();
  const auto aligned = dfg::IoStatistics::compute(two_host_log(), f);
  EXPECT_EQ(aligned.find("read")->max_concurrency, 2u);  // [0,100] vs [50,150]
  const auto skewed = dfg::IoStatistics::compute(
      shift_host_clocks(two_host_log(), {{"node2", 1'000'000}}), f);
  EXPECT_EQ(skewed.find("read")->max_concurrency, 1u);  // overlap destroyed
}

TEST(Skew, DfgInvariantUnderAnySkew) {
  // "not having the clocks synchronized does not affect the DFG
  // construction" — the per-case event order is preserved by whole-
  // host shifts, so the graph is identical.
  const auto log = iosim::ssf_fpp_campaign(iosim::CampaignScale::small());
  const auto f = Mapping::call_site(SitePathMap::juwels_like(), 1);
  const auto skewed = shift_host_clocks(log, {{"node1", 123'456}, {"node2", -987'654}});
  EXPECT_EQ(dfg::build_serial(log, f), dfg::build_serial(skewed, f));
}

TEST(Skew, OtherMetricsInvariantUnderSkew) {
  const auto log = iosim::ssf_fpp_campaign(iosim::CampaignScale::small());
  const auto f = Mapping::call_site(SitePathMap::juwels_like(), 1);
  const auto skewed = shift_host_clocks(log, {{"node1", 5'000'000}});
  const auto before = dfg::IoStatistics::compute(log, f);
  const auto after = dfg::IoStatistics::compute(skewed, f);
  ASSERT_EQ(before.per_activity().size(), after.per_activity().size());
  EXPECT_EQ(before.total_duration(), after.total_duration());
  for (const auto& [activity, b] : before.per_activity()) {
    const auto* a = after.find(activity);
    ASSERT_NE(a, nullptr) << activity;
    EXPECT_DOUBLE_EQ(a->rel_dur, b.rel_dur) << activity;
    EXPECT_EQ(a->bytes, b.bytes) << activity;
    EXPECT_DOUBLE_EQ(a->mean_rate, b.mean_rate) << activity;
    EXPECT_EQ(a->rank_count, b.rank_count) << activity;
    EXPECT_EQ(a->event_count, b.event_count) << activity;
    // max_concurrency deliberately NOT compared: it is the one metric
    // the paper says needs synchronized clocks.
  }
}

class SkewProperty : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SkewProperty, ::testing::Values(1, 2, 3, 4));

TEST_P(SkewProperty, RandomSkewsNeverChangeTheDfg) {
  Xoshiro256 rng(GetParam());
  const auto log = iosim::run_ior([&] {
    auto opt = iosim::make_ssf_options(iosim::CampaignScale::small());
    opt.seed = GetParam();
    return opt;
  }()).to_event_log();
  const auto f = Mapping::call_top_dirs(2);
  const auto reference = dfg::build_serial(log, f);
  for (int trial = 0; trial < 5; ++trial) {
    std::map<std::string, Micros> offsets;
    offsets["node1"] = static_cast<Micros>(rng.below(10'000'000)) - 5'000'000;
    offsets["node2"] = static_cast<Micros>(rng.below(10'000'000)) - 5'000'000;
    EXPECT_EQ(dfg::build_serial(shift_host_clocks(log, offsets), f), reference);
  }
}

}  // namespace
}  // namespace st::model
