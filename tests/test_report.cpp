#include "report/report.hpp"

#include <gtest/gtest.h>

#include <array>

#include <filesystem>
#include <fstream>

#include "dfg/builder.hpp"
#include "iosim/campaign.hpp"
#include "iosim/commands.hpp"
#include "model/from_strace.hpp"
#include "paper_oracles.hpp"
#include "parallel/thread_pool.hpp"
#include "support/crc32.hpp"
#include "support/errors.hpp"
#include "support/timeparse.hpp"
#include "testing_util.hpp"

namespace st::report {
namespace {

model::EventLog ls_log() {
  return model::EventLog::merge(iosim::make_ls_traces().to_event_log(),
                                iosim::make_ls_l_traces().to_event_log());
}

TEST(Report, ContainsAllSections) {
  const auto f = model::Mapping::call_top_dirs(2);
  const auto html = build_report(ls_log(), f, nullptr);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("Directly-Follows-Graph"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("Activity statistics"), std::string::npos);
  EXPECT_NE(html.find("Cases"), std::string::npos);
  EXPECT_NE(html.find("Directly-follows gaps"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
}

TEST(Report, MetadataLine) {
  const auto f = model::Mapping::call_top_dirs(2);
  const auto html = build_report(ls_log(), f, nullptr);
  EXPECT_NE(html.find("6 cases, 75 events"), std::string::npos);
  EXPECT_NE(html.find("call_top_dirs(2)"), std::string::npos);
}

TEST(Report, TitleAndDescriptionEscaped) {
  ReportOptions opts;
  opts.title = "ls <vs> ls -l & friends";
  opts.description = "a & b";
  const auto f = model::Mapping::call_top_dirs(2);
  const auto html = build_report(ls_log(), f, nullptr, opts);
  EXPECT_NE(html.find("ls &lt;vs&gt; ls -l &amp; friends"), std::string::npos);
  EXPECT_NE(html.find("<p class=\"meta\">a &amp; b</p>"), std::string::npos);
}

TEST(Report, StatisticsColoringEmbedded) {
  const auto log = ls_log();
  const auto f = model::Mapping::call_top_dirs(2);
  const auto stats = dfg::IoStatistics::compute(log, f);
  const dfg::StatisticsColoring styler(stats);
  const auto html = build_report(log, f, &styler);
  EXPECT_NE(html.find("#1F77B4"), std::string::npos);  // the busiest node's shade
}

TEST(Report, PartitionLegendAndColors) {
  const auto log = ls_log();
  const auto f = model::Mapping::call_top_dirs(2);
  const auto [green, red] =
      log.partition([](const model::Case& c) { return c.id().cid == "a"; });
  const dfg::PartitionColoring styler(dfg::build_serial(green, f), dfg::build_serial(red, f));
  ReportOptions opts;
  opts.partition_legend = "green = ls, red = ls -l";
  const auto html = build_report(log, f, &styler, opts);
  EXPECT_NE(html.find("green = ls, red = ls -l"), std::string::npos);
  EXPECT_NE(html.find("#FFCDD2"), std::string::npos);
}

TEST(Report, TimelineSectionWhenRequested) {
  ReportOptions opts;
  opts.timeline_activity = "read\n/usr/lib";
  const auto f = model::Mapping::call_top_dirs(2);
  const auto html = build_report(ls_log(), f, nullptr, opts);
  EXPECT_NE(html.find("Timeline of read /usr/lib"), std::string::npos);
  EXPECT_NE(html.find("max-concurrency:"), std::string::npos);
}

TEST(Report, WriteFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/report.html";
  const auto f = model::Mapping::call_top_dirs(2);
  write_report_file(path, ls_log(), f, nullptr);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("</html>"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Report, WriteToBadPathThrows) {
  const auto f = model::Mapping::call_top_dirs(2);
  EXPECT_THROW(write_report_file("/nonexistent/dir/report.html", ls_log(), f, nullptr),
               IoError);
}

// ---- streaming (single-pass) reports -----------------------------------

class StreamingReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("st_report_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
    Micros t = 36000000000;  // 10:00:00
    for (int file = 0; file < 3; ++file) {
      std::string text;
      for (int i = 0; i < 40; ++i) {
        t += 100;
        if (i % 2 == 0) {
          text += "7  " + format_time_of_day(t) +
                  " read(3</p/data/f>, \"\"..., 512) = 512 <0.000040>\n";
        } else {
          text += "7  " + format_time_of_day(t) +
                  " pwrite64(5</p/scratch/t>, \"\"..., 4096, 0) = 4096 <0.000094>\n";
        }
      }
      paths_.push_back(write_file("run" + std::to_string(file) + "_nodeA_" +
                                      std::to_string(9000 + file) + ".st",
                                  text));
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& text) {
    const auto p = dir_ / name;
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << text;
    return p.string();
  }

  std::filesystem::path dir_;
  std::vector<std::string> paths_;
};

TEST_F(StreamingReportTest, SinglePassReportHasEverySectionPlusVariants) {
  const auto f = model::Mapping::call_top_dirs(2);
  ThreadPool pool(3);
  const auto result = streaming_report(paths_, f, pool);
  EXPECT_EQ(result.summary.case_count, 3u);
  EXPECT_EQ(result.summary.total_events, 120u);
  EXPECT_TRUE(result.summary.warnings.empty());
  EXPECT_EQ(result.summary.health.files_ingested, 3u);
  for (const char* section :
       {"<!DOCTYPE html>", "Directly-Follows-Graph", "<svg", "Activity statistics", "Cases",
        "Directly-follows gaps", "Trace variants", "Data health", "</html>"}) {
    EXPECT_NE(result.html.find(section), std::string::npos) << section;
  }
  // All three cases behave identically -> one variant, multiplicity 3.
  EXPECT_NE(result.html.find("<td>x3</td>"), std::string::npos);
  EXPECT_NE(result.html.find("run0_nodeA_9000"), std::string::npos);
}

TEST_F(StreamingReportTest, SectionsMatchTheStagedReport) {
  // The sink-produced sections (graph SVG, case table, metadata) must
  // render byte-identically to the staged oracle over the same log; the
  // streaming report only ADDS the variants and data-health sections.
  const auto f = model::Mapping::call_top_dirs(2);
  ThreadPool pool(2);
  const auto streamed = streaming_report(paths_, f, pool);

  const auto log = model::event_log_from_files(paths_, 1);
  const auto data = testing::staged_report_data(log, f);
  const dfg::StatisticsColoring styler(data.stats);
  const auto staged = render_report(data, f, &styler);

  // Identical up to the streaming-only sections: the streamed html with
  // the "Trace variants" and "Data health" sections cut out equals the
  // staged html (the staged oracle has no DataHealth to render).
  std::string stripped = streamed.html;
  for (const char* heading : {"<h2>Trace variants</h2>", "<h2>Data health</h2>"}) {
    const auto begin = stripped.find(heading);
    ASSERT_NE(begin, std::string::npos) << heading;
    const auto end = stripped.find("<h2>", begin + 1);
    stripped.erase(begin, (end == std::string::npos ? stripped.find("</body>", begin) - begin
                                                    : end - begin));
  }
  EXPECT_EQ(stripped, staged);
}

TEST_F(StreamingReportTest, WorkerCountDoesNotChangeTheHtml) {
  const auto f = model::Mapping::call_top_dirs(2);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const auto a = streaming_report(paths_, f, pool1);
  const auto b = streaming_report(paths_, f, pool4);
  EXPECT_EQ(a.html, b.html);
}

// -- golden bytes ------------------------------------------------------
//
// CRC-32 digests of render_report with every section filled: the
// statistics, cases, edges, variants, data-health and timeline tables,
// the partition legend, and names that need escaping.

ReportData every_section(const model::EventLog& log, const model::Mapping& f,
                         const ReportOptions& opts) {
  const pipeline::CaseSpan cases(log.cases());
  const std::array<const pipeline::CaseSource*, 1> sources{&cases};
  ReportData data = report_data(sources, f, opts);
  data.variants = model::ActivityLog::build(log, f).variants();
  pipeline::DataHealth health;
  health.files_requested = 9;
  health.files_ingested = 7;
  health.files_skipped = 2;
  health.cases_quarantined = 1;
  health.warnings_by_class = {{"malformed <line> & \"co\"", 3}, {"unfinished", 12}};
  data.health = health;
  return data;
}

model::EventLog escaped_ls_log() {
  using testing::ev;
  model::EventLog log = ls_log();
  log.add_case(testing::make_case(
      "esc", 1,
      {ev("openat", "/usr/<a&b>/x", 0, 5), ev("read", "/usr/\"q\">/f", 10, 20, 512),
       ev("read", "/usr/\"q\">/f", 40, 20, 512), ev("write", "/usr/<a&b>/x", 70, 30, 4096),
       ev("read", "/usr/\"q\">/f", 110, 5, 100), ev("close", "/usr/<a&b>/x", 130, 1)}));
  return log;
}

ReportOptions golden_options() {
  ReportOptions opts;
  opts.title = "ls <vs> ls -l & \"friends\"";
  opts.description = "a & b < c";
  opts.timeline_activity = "read\n/usr/lib";
  opts.partition_legend = "green = ls, red = ls -l & <esc>";
  return opts;
}

TEST(ReportGolden, EverySectionPartitionColored) {
  const auto log = escaped_ls_log();
  const auto f = model::Mapping::call_top_dirs(2);
  const auto [green, red] =
      log.partition([](const model::Case& c) { return c.id().cid == "a"; });
  const dfg::PartitionColoring styler(dfg::build_serial(green, f), dfg::build_serial(red, f));
  const ReportOptions opts = golden_options();
  const std::string html = render_report(every_section(log, f, opts), f, &styler, opts);
  EXPECT_EQ(Crc32::of(html.data(), html.size()), 0x9107586bu);
}

TEST(ReportGolden, EverySectionStatisticsColored) {
  const auto log = escaped_ls_log();
  const auto f = model::Mapping::call_top_dirs(2);
  const ReportOptions opts = golden_options();
  const ReportData data = every_section(log, f, opts);
  const dfg::StatisticsColoring styler(data.stats);
  const std::string html = render_report(data, f, &styler, opts);
  EXPECT_EQ(Crc32::of(html.data(), html.size()), 0x8a988cffu);
  const std::string plain = render_report(data, f, nullptr, opts);
  EXPECT_EQ(Crc32::of(plain.data(), plain.size()), 0x774fd9f3u);
}

TEST(Report, FullCampaignReportBuilds) {
  const auto log = iosim::ssf_fpp_campaign(iosim::CampaignScale::small());
  const auto f = model::Mapping::call_site(model::SitePathMap::juwels_like(), 1);
  const auto stats = dfg::IoStatistics::compute(log, f);
  const dfg::StatisticsColoring styler(stats);
  ReportOptions opts;
  opts.title = "SSF vs FPP";
  const auto html = build_report(log, f, &styler, opts);
  EXPECT_NE(html.find("write $SCRATCH/ssf"), std::string::npos);
  EXPECT_NE(html.find("write $SCRATCH/fpp"), std::string::npos);
}

}  // namespace
}  // namespace st::report
