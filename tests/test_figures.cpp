// Regression tests for the headline numbers of the paper's evaluation
// figures, at the full 96-rank scale (the same runs the bench/fig*
// binaries print). These pin the calibration recorded in
// EXPERIMENTS.md: if a cost-model change moves the reproduced shapes
// away from the paper, these tests fail.
#include <gtest/gtest.h>

#include "dfg/builder.hpp"
#include "dfg/diff.hpp"
#include "dfg/stats.hpp"
#include "iosim/campaign.hpp"
#include "paper_oracles.hpp"

namespace st {
namespace {

class FullScaleFigures : public ::testing::Test {
 protected:
  static const model::EventLog& cx() {
    static const model::EventLog log = iosim::ssf_fpp_campaign(iosim::CampaignScale{});
    return log;
  }
  static const model::EventLog& cy() {
    static const model::EventLog log = iosim::mpiio_campaign(iosim::CampaignScale{});
    return log;
  }
};

TEST_F(FullScaleFigures, Fig8aScratchDominates) {
  const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 0);
  const auto stats = dfg::IoStatistics::compute(cx(), f);

  const double open_scratch = stats.find("openat\n$SCRATCH")->rel_dur;
  const double write_scratch = stats.find("write\n$SCRATCH")->rel_dur;
  const double read_scratch = stats.find("read\n$SCRATCH")->rel_dur;
  // Paper: 0.55 / 0.43 / 0.02.
  EXPECT_NEAR(open_scratch, 0.55, 0.08);
  EXPECT_NEAR(write_scratch, 0.43, 0.08);
  EXPECT_LT(read_scratch, 0.08);
  // Everything off $SCRATCH is noise-level.
  for (const char* activity :
       {"openat\n$SOFTWARE", "read\n$SOFTWARE", "openat\n$HOME", "read\n$HOME",
        "openat\nNode Local", "write\nNode Local"}) {
    ASSERT_NE(stats.find(activity), nullptr) << activity;
    EXPECT_LT(stats.find(activity)->rel_dur, 0.01) << activity;
  }
}

TEST_F(FullScaleFigures, Fig8aBytesExact) {
  const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 0);
  const auto stats = dfg::IoStatistics::compute(cx(), f);
  // 2 runs x 96 ranks x 3 segments x 16 MiB blocks = 9.66 GB.
  const std::int64_t expected = 2LL * 96 * 3 * (16 << 20);
  EXPECT_EQ(stats.find("write\n$SCRATCH")->bytes, expected);
  EXPECT_EQ(stats.find("read\n$SCRATCH")->bytes, expected);
}

TEST_F(FullScaleFigures, Fig8aMaxConcurrencyIs96) {
  const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 0);
  const auto stats = dfg::IoStatistics::compute(cx(), f);
  EXPECT_EQ(stats.find("write\n$SCRATCH")->max_concurrency, 96u);
  EXPECT_EQ(stats.find("read\n$SCRATCH")->max_concurrency, 96u);
}

TEST_F(FullScaleFigures, Fig8bSsfVersusFppLoads) {
  const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 1)
                     .filtered_fp("/p/scratch");
  const auto stats = dfg::IoStatistics::compute(cx(), f);
  const double open_ssf = stats.find("openat\n$SCRATCH/ssf")->rel_dur;
  const double write_ssf = stats.find("write\n$SCRATCH/ssf")->rel_dur;
  const double open_fpp = stats.find("openat\n$SCRATCH/fpp")->rel_dur;
  const double write_fpp = stats.find("write\n$SCRATCH/fpp")->rel_dur;
  // Paper: 0.54 / 0.43 / 0.01 / 0.00.
  EXPECT_NEAR(open_ssf, 0.54, 0.08);
  EXPECT_NEAR(write_ssf, 0.43, 0.08);
  EXPECT_LT(open_fpp, 0.02);
  EXPECT_LT(write_fpp, 0.05);
  EXPECT_GT(open_ssf, 20 * open_fpp);
  EXPECT_GT(write_ssf, 10 * write_fpp);
}

TEST_F(FullScaleFigures, Fig8CaseAndEventCounts) {
  EXPECT_EQ(cx().case_count(), 192u);  // 96 SSF + 96 FPP
  // openat/read/write variants only: per rank 2 opens + 48 writes +
  // 48 reads for the scratch phase, plus the startup accesses.
  EXPECT_EQ(cx().total_events(), 37632u);
}

TEST_F(FullScaleFigures, Fig9LseekShapeAndCounts) {
  std::size_t posix_lseek = 0;
  std::size_t mpiio_lseek = 0;
  std::size_t posix_events = 0;
  std::size_t mpiio_events = 0;
  for (const auto& c : cy().cases()) {
    const bool mpiio = c.id().cid == "mpiio";
    for (const auto& e : c.events()) {
      (mpiio ? mpiio_events : posix_events) += 1;
      if (e.call == "lseek") (mpiio ? mpiio_lseek : posix_lseek) += 1;
    }
  }
  // POSIX: one lseek per transfer (2*96*48=9216) + 4 startup lseeks per
  // rank; MPI-IO: startup lseeks only.
  EXPECT_EQ(posix_lseek, 9216u + 4u * 96u);
  EXPECT_EQ(mpiio_lseek, 4u * 96u);
  EXPECT_LT(mpiio_events, posix_events);
}

TEST_F(FullScaleFigures, Fig9PartitionClasses) {
  const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 0);
  const auto [green, red] =
      cy().partition([](const model::Case& c) { return c.id().cid == "mpiio"; });
  const dfg::GraphDiff diff(dfg::build_serial(green, f), dfg::build_serial(red, f));
  EXPECT_TRUE(diff.green_nodes().contains("pwrite64\n$SCRATCH"));
  EXPECT_TRUE(diff.green_nodes().contains("pread64\n$SCRATCH"));
  EXPECT_TRUE(diff.red_nodes().contains("lseek\n$SCRATCH"));
  EXPECT_TRUE(diff.common_nodes().contains("read\n$SOFTWARE"));
  EXPECT_TRUE(diff.common_nodes().contains("lseek\n$SOFTWARE"));
  EXPECT_TRUE(diff.common_nodes().contains("write\nNode Local"));
}

TEST_F(FullScaleFigures, GraphInvariantsHoldAtScale) {
  const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 1);
  EXPECT_TRUE(testing::flow_violations(dfg::build_serial(cx(), f)).empty());
  EXPECT_TRUE(testing::flow_violations(dfg::build_serial(cy(), f)).empty());
}

TEST_F(FullScaleFigures, DeterministicAcrossRebuilds) {
  const auto again = iosim::ssf_fpp_campaign(iosim::CampaignScale{});
  EXPECT_EQ(again.total_events(), cx().total_events());
  const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 1);
  EXPECT_EQ(dfg::build_serial(again, f), dfg::build_serial(cx(), f));
}

}  // namespace
}  // namespace st
