// Randomized property suites over the whole pipeline:
//   - strace record -> writer -> parser round trip,
//   - event log -> elog -> event log round trip,
//   - DFG structural invariants (flow conservation) on random logs,
//   - serial == sink-folded == merged-partition DFG construction,
//   - interleaved writer round trip on random multi-pid schedules.
// Each property runs under several seeds via TEST_P.
#include <gtest/gtest.h>

#include <sstream>

#include "dfg/builder.hpp"
#include "elog/v2_store.hpp"
#include "paper_oracles.hpp"
#include "strace/parser.hpp"
#include "strace/reader.hpp"
#include "strace/writer.hpp"
#include "support/rng.hpp"
#include "testing_util.hpp"

namespace st {
namespace {

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

// ---- random generators -------------------------------------------------

std::string random_path(Xoshiro256& rng) {
  static const char* kRoots[] = {"/p/scratch", "/p/home", "/p/software", "/usr/lib", "/etc",
                                 "/dev/shm"};
  std::string path = kRoots[rng.below(6)];
  const std::size_t depth = 1 + rng.below(3);
  for (std::size_t i = 0; i < depth; ++i) {
    path += "/d" + std::to_string(rng.below(5));
  }
  return path;
}

/// Arena for the synthesized record strings; outlives every record a
/// test builds.
strace::StringArena& record_arena() {
  static strace::StringArena arena;
  return arena;
}

strace::RawRecord random_record(Xoshiro256& rng, std::uint64_t pid, Micros at) {
  static const char* kCalls[] = {"read", "write", "pread64", "pwrite64", "lseek", "openat"};
  strace::StringArena& arena = record_arena();
  strace::RawRecord rec;
  rec.pid = pid;
  rec.timestamp = at;
  rec.call = kCalls[rng.below(6)];
  rec.duration = static_cast<Micros>(1 + rng.below(500));
  const std::string path = random_path(rng);
  rec.path = arena.intern(path);
  if (rec.call == "openat") {
    rec.args = arena.concat({"AT_FDCWD, \"", path, "\", O_RDONLY"});
    rec.retval = static_cast<std::int64_t>(3 + rng.below(20));
  } else if (rec.call == "lseek") {
    const auto offset = static_cast<std::int64_t>(rng.below(1 << 30));
    rec.args = arena.concat({"3<", path, ">, ", std::to_string(offset), ", SEEK_SET"});
    rec.retval = offset;
  } else {
    const auto bytes = static_cast<std::int64_t>(rng.below(1 << 22));
    rec.args = arena.concat({"3<", path, ">, \"\"..., ", std::to_string(bytes)});
    rec.retval = bytes;
    rec.requested = bytes;
  }
  return rec;
}

model::EventLog random_event_log(Xoshiro256& rng, std::size_t max_cases) {
  model::EventLog log;
  const std::size_t cases = 1 + rng.below(max_cases);
  for (std::size_t c = 0; c < cases; ++c) {
    std::vector<model::Event> events;
    const std::size_t n = rng.below(60);
    Micros t = 0;
    for (std::size_t i = 0; i < n; ++i) {
      auto e = testing::ev("", "", 0, 0);
      static const char* kCalls[] = {"read", "write", "openat", "lseek"};
      e.call = kCalls[rng.below(4)];
      e.fp = testing::intern(random_path(rng));
      e.start = t;
      e.dur = static_cast<Micros>(rng.below(300));
      e.size = rng.below(4) == 0 ? -1 : static_cast<std::int64_t>(rng.below(1 << 20));
      t += static_cast<Micros>(rng.below(100));
      events.push_back(std::move(e));
    }
    log.add_case(testing::make_case("p", c + 1, std::move(events)));
  }
  return log;
}

// ---- properties ----------------------------------------------------------

TEST_P(PipelineProperty, RecordWriterParserRoundTrip) {
  Xoshiro256 rng(GetParam());
  Micros t = 0;
  for (int i = 0; i < 200; ++i) {
    t += static_cast<Micros>(rng.below(1000));
    const auto rec = random_record(rng, 1 + rng.below(4), t);
    const std::string line = strace::format_record(rec);  // must outlive the record's views
    const auto reparsed = strace::parse_line(line);
    ASSERT_TRUE(reparsed) << line;
    EXPECT_EQ(reparsed->pid, rec.pid);
    EXPECT_EQ(reparsed->timestamp, rec.timestamp);
    EXPECT_EQ(reparsed->call, rec.call);
    EXPECT_EQ(reparsed->retval, rec.retval);
    EXPECT_EQ(reparsed->duration, rec.duration);
    EXPECT_EQ(reparsed->path, rec.path);
  }
}

TEST_P(PipelineProperty, ElogRoundTripPreservesEverything) {
  Xoshiro256 rng(GetParam());
  const auto log = random_event_log(rng, 12);
  std::ostringstream buf(std::ios::binary);
  elog::write_event_log_v2(buf, log);
  const auto reloaded = elog::read_event_log_v2(elog::MappedElog::from_buffer(
      std::make_shared<strace::TraceBuffer>(std::move(buf).str())));
  ASSERT_EQ(reloaded.case_count(), log.case_count());
  for (std::size_t i = 0; i < log.case_count(); ++i) {
    const auto& a = log.cases()[i];
    const auto& b = reloaded.cases()[i];
    ASSERT_EQ(a.id(), b.id());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a.events()[j], b.events()[j]);
    }
  }
}

TEST_P(PipelineProperty, DfgFlowConservation) {
  Xoshiro256 rng(GetParam());
  const auto log = random_event_log(rng, 20);
  for (const auto& f : {model::Mapping::call_only(), model::Mapping::call_top_dirs(2),
                        model::Mapping::call_top_dirs(2).filtered_fp("/p")}) {
    const auto g = dfg::build_serial(log, f);
    EXPECT_TRUE(testing::flow_violations(g).empty())
        << "mapping " << f.name() << ": " << testing::flow_violations(g).front();
  }
}

TEST_P(PipelineProperty, MergedPartitionEqualsWhole) {
  // G[L(G)] merged with G[L(R)] == G[L(C)] for any case partition.
  Xoshiro256 rng(GetParam());
  const auto log = random_event_log(rng, 16);
  const auto f = model::Mapping::call_top_dirs(2);
  const auto whole = dfg::build_serial(log, f);
  const auto [green, red] = log.partition(
      [&rng](const model::Case& c) { return c.id().rid % 2 == 0; });
  auto merged = dfg::build_serial(green, f);
  merged.merge(dfg::build_serial(red, f));
  EXPECT_EQ(merged, whole);
}

TEST_P(PipelineProperty, SinkFoldedBuildEqualsSerial) {
  Xoshiro256 rng(GetParam());
  const auto log = random_event_log(rng, 24);
  const auto f = model::Mapping::call_top_dirs(2);
  for (const std::size_t groups : {1u, 2u, 4u}) {
    EXPECT_EQ(dfg::build_serial(log, f), testing::dfg_via_sink(log, f, groups)) << groups;
  }
}

TEST_P(PipelineProperty, ActivityLogMultiplicitiesSumToCaseCount) {
  Xoshiro256 rng(GetParam());
  const auto log = random_event_log(rng, 20);
  const auto al = model::ActivityLog::build(log, model::Mapping::call_only());
  std::size_t total = 0;
  for (const auto& [trace, mult] : al.variants()) total += mult;
  EXPECT_EQ(total, log.case_count());
}

TEST_P(PipelineProperty, InterleavedTextRoundTrip) {
  Xoshiro256 rng(GetParam());
  // Random multi-pid schedule; records of one pid are sequential.
  std::vector<strace::RawRecord> records;
  std::array<Micros, 3> clocks{};
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t pid = 100 + rng.below(3);
    auto& clock = clocks[pid - 100];
    clock += static_cast<Micros>(rng.below(400));
    auto rec = random_record(rng, pid, clock);
    clock += *rec.duration;
    records.push_back(std::move(rec));
  }
  const std::string text = strace::format_trace_interleaved(records);
  const auto result = strace::read_trace_text(text);
  EXPECT_TRUE(result.warnings.empty()) << result.warnings.front();
  ASSERT_EQ(result.records.size(), records.size());
  // Every original record must be recovered intact.
  for (const auto& original : records) {
    bool found = false;
    for (const auto& parsed : result.records) {
      if (parsed.pid == original.pid && parsed.timestamp == original.timestamp &&
          parsed.call == original.call && parsed.duration == original.duration &&
          parsed.retval == original.retval && parsed.path == original.path) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << original.call << "@" << original.timestamp;
  }
}

TEST_P(PipelineProperty, QueryThenMapEqualsFilteredMapping) {
  // Restricting the event log and restricting the mapping are the two
  // equivalent query styles of Sec. IV — the DFGs must coincide.
  Xoshiro256 rng(GetParam());
  const auto log = random_event_log(rng, 16);
  const auto via_log = dfg::build_serial(log.filter_fp("/p/scratch"),
                                         model::Mapping::call_top_dirs(2));
  const auto via_mapping =
      dfg::build_serial(log, model::Mapping::call_top_dirs(2).filtered_fp("/p/scratch"));
  EXPECT_EQ(via_log, via_mapping);
}

}  // namespace
}  // namespace st
