#include "dfg/export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "testing_util.hpp"

namespace st::dfg {
namespace {

using testing::ev;
using testing::make_case;

model::EventLog sample() {
  model::EventLog log;
  log.add_case(make_case("a", 1,
                         {ev("read", "/usr/lib/x.so", 0, 100, 832),
                          ev("write", "/dev/pts/7", 200, 50, 50)}));
  return log;
}

TEST(CsvField, PlainUnquoted) { EXPECT_EQ(csv_field("abc"), "abc"); }

TEST(CsvField, CommaQuoted) { EXPECT_EQ(csv_field("a,b"), "\"a,b\""); }

TEST(CsvField, QuoteDoubled) { EXPECT_EQ(csv_field("a\"b"), "\"a\"\"b\""); }

TEST(CsvField, NewlineQuoted) { EXPECT_EQ(csv_field("a\nb"), "\"a\nb\""); }

TEST(StatsCsv, HeaderAndRows) {
  const auto f = model::Mapping::call_top_dirs(2);
  const auto stats = IoStatistics::compute(sample(), f);
  const std::string csv = stats_to_csv(stats);

  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "activity,events,rel_dur,total_dur_us,bytes,mean_rate_bps,max_concurrency,ranks");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2u);
  EXPECT_NE(csv.find("read /usr/lib,1,"), std::string::npos);
  EXPECT_NE(csv.find(",832,"), std::string::npos);
}

TEST(StatsCsv, ActivitiesWithoutBytesHaveEmptyField) {
  model::EventLog log;
  log.add_case(make_case("a", 1, {ev("openat", "/p/f", 0, 25, -1)}));
  const auto stats = IoStatistics::compute(log, model::Mapping::call_only());
  const std::string csv = stats_to_csv(stats);
  // openat,1,rel,dur,<empty bytes>,<empty rate>,...
  EXPECT_NE(csv.find("openat,1,1.000000,25,,,"), std::string::npos);
}

}  // namespace
}  // namespace st::dfg
