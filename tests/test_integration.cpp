// End-to-end pipeline test: simulate -> strace text files on disk ->
// parse -> elog round trip -> mapping -> DFG -> statistics -> coloring
// -> rendering. This is the full workflow of Fig. 6 (the paper's
// st_inspector usage) executed through the C++ API.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "dfg/builder.hpp"
#include "dfg/render.hpp"
#include "elog/store.hpp"
#include "elog/v2_store.hpp"
#include "iosim/campaign.hpp"
#include "iosim/commands.hpp"
#include "model/from_strace.hpp"

namespace st {
namespace {

TEST(Integration, LsWorkflowFromDiskFiles) {
  const std::string dir = ::testing::TempDir() + "/integration_ls";
  std::filesystem::remove_all(dir);
  iosim::make_ls_traces().write_files(dir);
  iosim::make_ls_l_traces().write_files(dir);

  // Collect the trace files exactly as a user would (Fig. 1 naming).
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), 6u);

  const auto log = model::event_log_from_files(files);
  EXPECT_EQ(log.case_count(), 6u);
  EXPECT_EQ(log.total_events(), 3u * 8u + 3u * 17u);

  // Store in the elog container (the paper's single-HDF5-file step)
  // and read back.
  std::ostringstream elog_buf(std::ios::binary);
  elog::write_event_log_v2(elog_buf, log);
  const auto reloaded = elog::read_event_log_v2(elog::MappedElog::from_buffer(
      std::make_shared<strace::TraceBuffer>(std::move(elog_buf).str())));
  EXPECT_EQ(reloaded.case_count(), 6u);
  EXPECT_EQ(reloaded.total_events(), log.total_events());

  // DFG + stats + statistics coloring (Fig. 6 steps 2-5a).
  const auto f = model::Mapping::call_top_dirs(2);
  const auto g = dfg::build_serial(reloaded, f);
  const auto stats = dfg::IoStatistics::compute(reloaded, f);
  EXPECT_EQ(g.activities().size(), 8u);
  EXPECT_EQ(stats.find("read\n/usr/lib")->bytes, 14976);

  const dfg::StatisticsColoring styler(stats);
  const auto dot = dfg::render_dot(g, &stats, &styler);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("Load:"), std::string::npos);

  // Partition coloring (Fig. 6 step 5b): ls vs ls -l.
  const auto [ca, cb] =
      reloaded.partition([](const model::Case& c) { return c.id().cid == "a"; });
  const dfg::PartitionColoring partition(dfg::build_serial(ca, f), dfg::build_serial(cb, f));
  // Fig. 3d: read:/etc/passwd exclusive to ls -l (red).
  EXPECT_EQ(partition.diff().classify_node("read\n/etc/passwd"),
            dfg::PartitionClass::RedOnly);
  // The locale.alias -> write:/dev/pts relation exclusive to ls (green).
  EXPECT_EQ(partition.diff().classify_edge("read\n/etc/locale.alias", "write\n/dev/pts"),
            dfg::PartitionClass::GreenOnly);

  std::filesystem::remove_all(dir);
}

TEST(Integration, IorWorkflowThroughTraceFiles) {
  // Small IOR run -> trace files -> parse -> same event log as the
  // in-memory conversion.
  auto opt = iosim::make_ssf_options(iosim::CampaignScale::small());
  opt.num_ranks = 4;
  opt.ranks_per_node = 2;
  const auto traces = iosim::run_ior(opt);

  const std::string dir = ::testing::TempDir() + "/integration_ior";
  std::filesystem::remove_all(dir);
  traces.write_files(dir);

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  ASSERT_EQ(files.size(), 4u);

  const auto from_disk = model::event_log_from_files(files);
  const auto in_memory = traces.to_event_log();
  EXPECT_EQ(from_disk.total_events(), in_memory.total_events());

  // Every event must agree after the text round trip.
  for (const auto& c : in_memory.cases()) {
    const auto* disk_case = from_disk.find_case(c.id());
    ASSERT_NE(disk_case, nullptr) << c.id().to_string();
    ASSERT_EQ(disk_case->size(), c.size());
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(disk_case->events()[i], c.events()[i]) << c.id().to_string() << " event " << i;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Integration, PartitionColoringOnSsfVsFpp) {
  const auto log = iosim::ssf_fpp_campaign(iosim::CampaignScale::small());
  const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 1);
  const auto [ssf, fpp] =
      log.partition([](const model::Case& c) { return c.id().cid == "ssf"; });
  const dfg::GraphDiff diff(dfg::build_serial(ssf, f), dfg::build_serial(fpp, f));
  // The two runs use distinct paths under $SCRATCH, so their scratch
  // activities are exclusive while startup activities are common.
  EXPECT_TRUE(diff.green_nodes().contains("write\n$SCRATCH/ssf"));
  EXPECT_TRUE(diff.red_nodes().contains("write\n$SCRATCH/fpp"));
  // Startup activities are common to both runs (extra_levels applies
  // below every matched site root, so the library subdir shows up).
  EXPECT_TRUE(diff.common_nodes().contains("read\n$SOFTWARE/mpi"));
}

TEST(Integration, ElogFilePersistsCampaign) {
  const auto log = iosim::ssf_fpp_campaign(iosim::CampaignScale::small());
  const std::string path = ::testing::TempDir() + "/campaign.elog";
  elog::write_event_log_v2_file(path, log);
  const auto reloaded = elog::read_event_log_file(path);
  EXPECT_EQ(reloaded.case_count(), log.case_count());
  EXPECT_EQ(reloaded.total_events(), log.total_events());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace st
