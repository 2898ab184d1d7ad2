// Atomic publication of outputs (support/publish.hpp): an output file
// is replaced whole or not at all.
//   - PublishedFile and ElogV2Writer(path): destroyed unpublished, or
//     with the "publish" fault firing before the rename, they leave the
//     previous file byte-identical and no temporary behind; a new file
//     gets mode 0666 & ~umask; a non-regular destination is written in
//     place;
//   - elog_tool: a failed import, convert, filter, merge and fold-shard
//     each leave the previous output byte-identical (gated on
//     ST_ELOG_TOOL, which ctest exports).
#include "support/publish.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "elog/v2_store.hpp"
#include "support/errors.hpp"
#include "support/faultpoint.hpp"
#include "testing_corpus.hpp"

namespace st {
namespace {

#ifdef ST_NO_FAULT_POINTS
constexpr bool kFaultPoints = false;
#else
constexpr bool kFaultPoints = true;
#endif

class Publish : public testing::CorpusTest {
 protected:
  Publish() : CorpusTest("st_publish") {}

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  /// Every entry of the test directory: no temporary may linger.
  std::vector<std::string> listing() const {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }
};

TEST_F(Publish, PublishReplacesTheFileWhole) {
  const std::string path = write_file("out.bin", "previous");
  {
    PublishedFile file(path);
    file.stream() << "next";
    EXPECT_EQ(slurp(path), "previous");  // nothing visible before publish
    file.publish();
  }
  EXPECT_EQ(slurp(path), "next");
  EXPECT_EQ(listing(), std::vector<std::string>{"out.bin"});
}

TEST_F(Publish, UnpublishedFileLeavesThePreviousOneAndNoTemporary) {
  const std::string path = write_file("out.bin", "previous");
  {
    PublishedFile file(path);
    file.stream() << "half of the next";
  }
  EXPECT_EQ(slurp(path), "previous");
  EXPECT_EQ(listing(), std::vector<std::string>{"out.bin"});

  // And with no previous file, none appears.
  const std::string fresh = (dir_ / "fresh.bin").string();
  { PublishedFile file(fresh); }
  EXPECT_FALSE(std::filesystem::exists(fresh));
}

TEST_F(Publish, FaultBeforeTheRenameLeavesThePreviousFile) {
  if (!kFaultPoints) GTEST_SKIP() << "fault points are compiled out";
  const std::string path = write_file("out.bin", "previous");
  fault::Spec error;
  const fault::ScopedFault f("publish", error);
  EXPECT_THROW(publish_file(path, "next"), IoError);
  EXPECT_EQ(slurp(path), "previous");
  EXPECT_EQ(listing(), std::vector<std::string>{"out.bin"});
}

TEST_F(Publish, NewFileModeFollowsTheUmask) {
  const ::mode_t old = ::umask(027);
  const std::string path = (dir_ / "masked.bin").string();
  publish_file(path, "x");
  ::umask(old);
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777, 0640u);
}

TEST_F(Publish, NonRegularDestinationIsWrittenInPlace) {
  publish_file("/dev/null", "discarded");
  struct stat st{};
  ASSERT_EQ(::lstat("/dev/null", &st), 0);
  EXPECT_TRUE(S_ISCHR(st.st_mode));
}

TEST_F(Publish, MissingDirectoryIsATypedError) {
  EXPECT_THROW(publish_file((dir_ / "no" / "such" / "dir.bin").string(), "x"), IoError);
}

TEST_F(Publish, ElogWriterDestroyedBeforeFinalizeLeavesThePreviousContainer) {
  const model::EventLog log = testing::staged_log(make_corpus());
  const std::string path = write_file("corpus.elog", "previous container");
  const auto before = listing();
  {
    elog::ElogV2Writer writer(path);
    for (const model::Case& c : log.cases()) writer.append(c);
  }
  EXPECT_EQ(slurp(path), "previous container");
  EXPECT_EQ(listing(), before);
  // Control: finalize publishes.
  {
    elog::ElogV2Writer writer(path);
    for (const model::Case& c : log.cases()) writer.append(c);
    writer.finalize();
  }
  EXPECT_EQ(elog::read_event_log_v2(elog::open_v2(path)).case_count(), log.case_count());
  EXPECT_EQ(listing(), before);
}

// ---- the CLI verbs ------------------------------------------------------

class PublishCli : public Publish {
 protected:
  void SetUp() override {
    Publish::SetUp();
    const char* exe = std::getenv("ST_ELOG_TOOL");
    if (exe == nullptr || *exe == '\0' || !std::filesystem::exists(exe)) {
      GTEST_SKIP() << "ST_ELOG_TOOL unset or not built (ctest exports the path)";
    }
    exe_ = exe;
  }

  /// Runs elog_tool with `args`, ST_FAULTS set to `faults` for the
  /// child only and stderr to `err`; returns its exit status.
  int tool(const std::string& args, const std::string& faults = "",
           const std::string& err = "/dev/null") const {
    std::string cmd;
    if (!faults.empty()) cmd += "ST_FAULTS='" + faults + "' ";
    cmd += "'" + exe_ + "' " + args + " >/dev/null 2>'" + err + "'";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  static std::string quoted(const std::vector<std::string>& paths) {
    std::string out;
    for (const auto& p : paths) out += " '" + p + "'";
    return out;
  }

  std::string exe_;
};

TEST_F(PublishCli, FailedImportLeavesThePreviousContainerAndReport) {
  const auto paths = make_corpus();
  const std::string elog = (dir_ / "good.elog").string();
  const std::string html = (dir_ / "good.html").string();
  ASSERT_EQ(tool("import '" + elog + "'" + quoted(paths) + " --stream-report '" + html + "'"), 0);
  const std::string elog_bytes = slurp(elog);
  const std::string html_bytes = slurp(html);
  const auto before = listing();

  // A missing file late in the list fails the run after earlier cases
  // were already appended to the container's temporary.
  auto broken = paths;
  broken.push_back((dir_ / "missing_node1_1.st").string());
  EXPECT_EQ(tool("import '" + elog + "'" + quoted(broken) + " --stream-report '" + html + "'"), 1);
  EXPECT_EQ(slurp(elog), elog_bytes);
  EXPECT_EQ(slurp(html), html_bytes);
  EXPECT_EQ(listing(), before);

  // The container's rename fails.
  if (!kFaultPoints) return;
  EXPECT_EQ(tool("import '" + elog + "'" + quoted(paths), "publish=error"), 1);
  EXPECT_EQ(slurp(elog), elog_bytes);
  EXPECT_EQ(listing(), before);
}

TEST_F(PublishCli, FailedConvertAndFilterLeaveThePreviousOutput) {
  if (!kFaultPoints) GTEST_SKIP() << "fault points are compiled out";
  const auto paths = make_corpus();
  const std::string source = (dir_ / "source.elog").string();
  ASSERT_EQ(tool("import '" + source + "'" + quoted(paths)), 0);
  const std::string out = write_file("out.elog", "previous output");
  const auto before = listing();
  EXPECT_EQ(tool("convert '" + out + "' '" + source + "'", "publish=error"), 1);
  EXPECT_EQ(slurp(out), "previous output");
  EXPECT_EQ(tool("filter '" + out + "' '" + source + "' --calls read", "publish=error"), 1);
  EXPECT_EQ(slurp(out), "previous output");
  EXPECT_EQ(listing(), before);
  // Control: the same verbs succeed without the fault.
  EXPECT_EQ(tool("convert '" + out + "' '" + source + "'"), 0);
  EXPECT_NE(slurp(out), "previous output");
}

TEST_F(PublishCli, FailedMergeLeavesThePreviousOutput) {
  // Two containers that share a case id: the merge is rejected after
  // both inputs load, before anything is written.
  const auto paths = make_corpus();
  const std::string a = (dir_ / "a.elog").string();
  const std::string b = (dir_ / "b.elog").string();
  const std::string c = (dir_ / "c.elog").string();
  ASSERT_EQ(tool("import '" + a + "'" + quoted({paths[0], paths[1]})), 0);
  ASSERT_EQ(tool("import '" + b + "'" + quoted({paths[1], paths[2]})), 0);
  ASSERT_EQ(tool("import '" + c + "'" + quoted({paths[3], paths[4]})), 0);
  const std::string out = write_file("merged.elog", "previous output");
  const std::string err = write_file("merge.err", "");
  const auto before = listing();
  EXPECT_EQ(tool("merge '" + out + "' '" + a + "' '" + b + "'", "", err), 1);
  EXPECT_NE(slurp(err).find("duplicate case"), std::string::npos) << slurp(err);
  EXPECT_EQ(slurp(out), "previous output");
  EXPECT_EQ(listing(), before);
  // Control: disjoint inputs merge.
  EXPECT_EQ(tool("merge '" + out + "' '" + a + "' '" + c + "'"), 0);
  EXPECT_NE(slurp(out), "previous output");
}

TEST_F(PublishCli, FailedFoldShardLeavesThePreviousBlob) {
  const auto paths = make_corpus();
  const std::string blob = write_file("shard.partial", "previous blob");
  const auto before = listing();
  if (kFaultPoints) {
    EXPECT_EQ(tool("fold-shard '" + blob + "'" + quoted(paths), "publish=error"), 1);
    EXPECT_EQ(slurp(blob), "previous blob");
  }
  auto broken = paths;
  broken.push_back((dir_ / "missing_node1_1.st").string());
  EXPECT_EQ(tool("fold-shard '" + blob + "'" + quoted(broken)), 1);
  EXPECT_EQ(slurp(blob), "previous blob");
  EXPECT_EQ(listing(), before);
}

}  // namespace
}  // namespace st
