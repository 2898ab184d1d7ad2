#include "model/mapping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "elog/v2_store.hpp"
#include "iosim/campaign.hpp"
#include "iosim/commands.hpp"
#include "iosim/ior.hpp"
#include "model/mapped_case.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
#include "strace/trace_buffer.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

namespace st::model {
namespace {

using testing::ev;

// f-hat of Eq. 4: the paper's worked example.
TEST(Mapping, CallTopDirsPaperExample) {
  const auto f = Mapping::call_top_dirs(2);
  const auto a = f(ev("read", "/usr/lib/x86_64-linux-gnu/libselinux.so.1", 0, 1, 832));
  ASSERT_TRUE(a);
  EXPECT_EQ(*a, "read\n/usr/lib");
}

TEST(Mapping, CallTopDirsShortPathUnchanged) {
  const auto f = Mapping::call_top_dirs(2);
  EXPECT_EQ(*f(ev("read", "/proc/filesystems", 0, 1, 478)), "read\n/proc/filesystems");
  EXPECT_EQ(*f(ev("write", "/dev/pts/7", 0, 1, 50)), "write\n/dev/pts");
}

TEST(Mapping, CallLastComponentsFig4Style) {
  const auto f = Mapping::call_last_components(2);
  EXPECT_EQ(*f(ev("read", "/usr/lib/x86_64-linux-gnu/libc.so.6", 0, 1, 832)),
            "read\nx86_64-linux-gnu/libc.so.6");
}

TEST(Mapping, CallOnly) {
  const auto f = Mapping::call_only();
  EXPECT_EQ(*f(ev("pwrite64", "/p/scratch/ssf/test", 0, 1, 100)), "pwrite64");
}

TEST(Mapping, FilteredFpIsPartial) {
  const auto f = Mapping::call_top_dirs(2).filtered_fp("/usr/lib");
  EXPECT_TRUE(f(ev("read", "/usr/lib/a/b", 0, 1)));
  EXPECT_FALSE(f(ev("read", "/etc/passwd", 0, 1)));
}

TEST(Mapping, FilteredPredicate) {
  const auto f = Mapping::call_only().filtered("reads-only", [](const Event& e) {
    return e.call == "read";
  });
  EXPECT_TRUE(f(ev("read", "/x", 0, 1)));
  EXPECT_FALSE(f(ev("write", "/x", 0, 1)));
}

TEST(Mapping, DefaultConstructedIsInvalid) {
  const Mapping f;
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f(ev("read", "/x", 0, 1)));
}

TEST(Mapping, CustomMapping) {
  const auto f = Mapping::custom("sized", [](const Event& e) -> std::optional<Activity> {
    if (!e.has_size()) return std::nullopt;
    return std::string(e.call) + ":" + std::to_string(e.size);
  });
  EXPECT_EQ(*f(ev("read", "/x", 0, 1, 832)), "read:832");
  EXPECT_FALSE(f(ev("lseek", "/x", 0, 1, -1)));
}

// ---- SitePathMap (f-bar) ------------------------------------------------

TEST(SitePathMap, JuwelsLikePrefixes) {
  const auto map = SitePathMap::juwels_like();
  EXPECT_EQ(map.abstract("/p/scratch/ssf/test"), "$SCRATCH");
  EXPECT_EQ(map.abstract("/p/home/user/.bashrc"), "$HOME");
  EXPECT_EQ(map.abstract("/p/software/mpi/lib/libmpi.so"), "$SOFTWARE");
  EXPECT_EQ(map.abstract("/dev/shm/seg0"), "Node Local");
  EXPECT_EQ(map.abstract("/usr/lib/libc.so"), "Node Local");
}

TEST(SitePathMap, LongestPrefixWins) {
  SitePathMap map("OTHER");
  map.add_prefix("/p", "$P");
  map.add_prefix("/p/scratch", "$SCRATCH");
  EXPECT_EQ(map.abstract("/p/scratch/x"), "$SCRATCH");
  EXPECT_EQ(map.abstract("/p/home/x"), "$P");
}

TEST(SitePathMap, MatchExposesRemainder) {
  const auto map = SitePathMap::juwels_like();
  const auto m = map.match("/p/scratch/ssf/test");
  EXPECT_TRUE(m.matched);
  EXPECT_EQ(m.label, "$SCRATCH");
  EXPECT_EQ(m.remainder, "/ssf/test");
}

TEST(SitePathMap, NoMatchUsesDefault) {
  const auto m = SitePathMap::juwels_like().match("/etc/passwd");
  EXPECT_FALSE(m.matched);
  EXPECT_EQ(m.label, "Node Local");
}

TEST(Mapping, CallSiteCollapsed) {
  const auto f = Mapping::call_site(SitePathMap::juwels_like(), 0);
  EXPECT_EQ(*f(ev("write", "/p/scratch/ssf/test", 0, 1, 100)), "write\n$SCRATCH");
  EXPECT_EQ(*f(ev("openat", "/dev/shm/seg", 0, 1)), "openat\nNode Local");
}

TEST(Mapping, CallSiteOneExtraLevelDistinguishesSsfFpp) {
  const auto f = Mapping::call_site(SitePathMap::juwels_like(), 1);
  EXPECT_EQ(*f(ev("write", "/p/scratch/ssf/test", 0, 1, 100)), "write\n$SCRATCH/ssf");
  EXPECT_EQ(*f(ev("write", "/p/scratch/fpp/test.00000001", 0, 1, 100)),
            "write\n$SCRATCH/fpp");
}

TEST(Mapping, CallSiteExtraLevelsNeverApplyToDefaultLabel) {
  const auto f = Mapping::call_site(SitePathMap::juwels_like(), 2);
  EXPECT_EQ(*f(ev("read", "/usr/lib/x/libc.so", 0, 1, 8)), "read\nNode Local");
}

TEST(Mapping, CallSiteExtraLevelsClampedToAvailableComponents) {
  const auto f = Mapping::call_site(SitePathMap::juwels_like(), 5);
  EXPECT_EQ(*f(ev("read", "/p/scratch/ssf/test", 0, 1, 8)), "read\n$SCRATCH/ssf/test");
}

TEST(Mapping, NamesAreDescriptive) {
  EXPECT_EQ(Mapping::call_top_dirs(2).name(), "call_top_dirs(2)");
  EXPECT_NE(Mapping::call_top_dirs(2).filtered_fp("/usr").name().find("fp~/usr"),
            std::string::npos);
}

// ---- the (call, fp) memo of map_case -------------------------------------

TEST(Mapping, FactoriesAndFilteredFpDeclareACallFpKeyOthersAnEventKey) {
  for (const auto& name : {"top1", "top2", "last1", "last2", "call", "site", "site1"}) {
    const Mapping f = mapping_by_name(name);
    EXPECT_EQ(f.key(), Mapping::Key::kCallFp) << name;
    EXPECT_EQ(f.filtered_fp("/p").key(), Mapping::Key::kCallFp) << name;
    EXPECT_EQ(f.filtered("any", [](const Event&) { return true; }).key(), Mapping::Key::kEvent)
        << name;
    const Mapping copy = f;
    EXPECT_EQ(copy.key_id(), f.key_id()) << name;
    EXPECT_NE(mapping_by_name(name).key_id(), f.key_id()) << name;
  }
  const auto custom = Mapping::custom("c", [](const Event& e) { return Activity(e.call); });
  EXPECT_EQ(custom.key(), Mapping::Key::kEvent);
  EXPECT_EQ(custom.filtered_fp("/p").key(), Mapping::Key::kEvent);
  EXPECT_EQ(Mapping().key(), Mapping::Key::kEvent);
}

/// `f`'s own function behind an event key: map_case runs it per event.
Mapping per_event(const Mapping& f) {
  return Mapping::custom(f.name(), [f](const Event& e) { return f(e); });
}

/// Each case's ids and event indices, then the dictionary's names in
/// id order.
using MappedLog = std::pair<std::vector<MappedCase>, std::vector<Activity>>;

/// map_case over every case of `log` into one dictionary, so the memo
/// carries over from case to case.
MappedLog map_log(const EventLog& log, const Mapping& f) {
  ActivityDict dict;
  std::vector<MappedCase> cases;
  for (const Case& c : log.cases()) {
    map_case(c, f, dict, cases.emplace_back());
  }
  std::vector<Activity> names;
  for (std::uint32_t id = 0; id < dict.size(); ++id) names.push_back(dict.name(id));
  return {std::move(cases), std::move(names)};
}

void expect_same_mapping(const MappedLog& a, const MappedLog& b) {
  ASSERT_EQ(a.first.size(), b.first.size());
  for (std::size_t c = 0; c < a.first.size(); ++c) {
    EXPECT_EQ(a.first[c].activities, b.first[c].activities) << "case " << c;
    EXPECT_EQ(a.first[c].events, b.first[c].events) << "case " << c;
  }
  EXPECT_EQ(a.second, b.second);
}

class MapCaseMemo : public testing::CorpusTest {
 protected:
  MapCaseMemo() : CorpusTest("st_map_memo") {}

  /// Parsed trace files: the ls / ls -l traces of Fig. 2, a small IOR
  /// SSF run (site, scratch and node-local paths) and the noisy corpus.
  EventLog trace_file_log() {
    iosim::make_ls_traces().write_files(dir_.string());
    iosim::make_ls_l_traces().write_files(dir_.string());
    const auto ssf = iosim::make_ssf_options(iosim::CampaignScale::small());
    iosim::run_ior(ssf).write_files(dir_.string());
    (void)make_corpus();
    std::vector<std::string> paths;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    ThreadPool pool(2);
    return pipeline::run(paths, pool, {});
  }
};

TEST_F(MapCaseMemo, CallFpMappingsMapLikeTheirPerEventSelves) {
  const EventLog traces = trace_file_log();
  ASSERT_GT(traces.total_events(), 500u);
  std::ostringstream v2(std::ios::binary);
  elog::write_event_log_v2(v2, traces);
  const EventLog container = elog::read_event_log_v2(elog::MappedElog::from_buffer(
      std::make_shared<strace::TraceBuffer>(std::move(v2).str())));
  std::vector<std::pair<std::string, Mapping>> mappings;
  for (const auto& name : {"top1", "top2", "last1", "last2", "call", "site", "site1"}) {
    mappings.emplace_back(name, mapping_by_name(name));
  }
  mappings.emplace_back("top2|fp~/p/scratch", mapping_by_name("top2").filtered_fp("/p/scratch"));
  mappings.emplace_back("last1|fp~lib", mapping_by_name("last1").filtered_fp("lib"));
  for (const auto& [name, f] : mappings) {
    ASSERT_EQ(f.key(), Mapping::Key::kCallFp) << name;
    for (const EventLog* log : {&traces, &container}) {
      SCOPED_TRACE(name + (log == &traces ? " over trace files" : " over a container"));
      expect_same_mapping(map_log(*log, f), map_log(*log, per_event(f)));
    }
  }
}

TEST(MapCaseMemoRule, EventKeyedMappingsRunPerEvent) {
  // Two events with the same (call, fp) that an event-keyed mapping
  // tells apart: a memo over every mapping would give both the first
  // one's result.
  const Case c = testing::make_case(
      "a", 1, {ev("read", "/p/scratch/f", 10, 1, 100), ev("read", "/p/scratch/f", 20, 1, 200)});
  ActivityDict dict;
  MappedCase out;

  const auto sized = Mapping::custom("sized", [](const Event& e) -> std::optional<Activity> {
    return std::string(e.call) + ":" + std::to_string(e.size);
  });
  map_case(c, sized, dict, out);
  ASSERT_EQ(out.activities.size(), 2u);
  EXPECT_EQ(dict.name(out.activities[0]), "read:100");
  EXPECT_EQ(dict.name(out.activities[1]), "read:200");

  const auto early = Mapping::call_top_dirs(2).filtered("early", [](const Event& e) {
    return e.start < 15;
  });
  ActivityDict dict2;
  map_case(c, early, dict2, out);
  EXPECT_EQ(out.events, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(dict2.name(out.activities.at(0)), "read\n/p/scratch");
}

TEST(MapCaseMemoRule, ADictionaryMeetingAnotherMappingForgetsTheMemo) {
  // One dictionary, two call-fp mappings in turn: each case maps as
  // under its own mapping, never through the other's memo.
  const Case c = testing::make_case(
      "a", 1, {ev("read", "/usr/lib/x/a.so", 10, 1), ev("write", "/dev/pts/7", 20, 1)});
  const Mapping top1 = Mapping::call_top_dirs(1);
  const Mapping last1 = Mapping::call_last_components(1);
  ActivityDict dict;
  MappedCase out;
  std::vector<Activity> seen;
  for (const Mapping* f : {&top1, &last1, &top1}) {
    map_case(c, *f, dict, out);
    for (const std::uint32_t id : out.activities) seen.push_back(dict.name(id));
  }
  EXPECT_EQ(seen, (std::vector<Activity>{"read\n/usr", "write\n/dev", "read\na.so",
                                         "write\n7", "read\n/usr", "write\n/dev"}));
}

}  // namespace
}  // namespace st::model
