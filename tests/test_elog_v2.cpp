// elog v2 (columnar, mmap-able, footer-indexed) — round trips, the
// staged/streamed byte-identity contract, and the integrity guarantee:
// a corrupted file surfaces as IoError, never as silently wrong
// analysis (including an exhaustive flip-one-bit-per-byte sweep, which
// the format's full-coverage design makes possible).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "elog/store.hpp"
#include "elog/v2_format.hpp"
#include "elog/v2_store.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
#include "strace/trace_buffer.hpp"
#include "support/crc32.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/timeparse.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

namespace st::elog {
namespace {

namespace fs = std::filesystem;

using testing::ev;
using testing::make_case;

model::EventLog sample_log() {
  model::EventLog log;
  log.add_case(make_case("a", 9042,
                         {ev("read", "/usr/lib/x/libselinux.so.1", 100, 203, 832),
                          ev("read", "/usr/lib/x/libselinux.so.1", 400, 79, 832),
                          ev("write", "/dev/pts/7", 600, 111, 50)}));
  log.add_case(make_case("b", 9157, {ev("openat", "/p/scratch/ssf/test", 0, 25, -1)}, "node2"));
  return log;
}

bool logs_equal(const model::EventLog& a, const model::EventLog& b) {
  if (a.case_count() != b.case_count()) return false;
  for (std::size_t i = 0; i < a.case_count(); ++i) {
    const auto& ca = a.cases()[i];
    const auto& cb = b.cases()[i];
    if (ca.id() != cb.id() || ca.size() != cb.size()) return false;
    for (std::size_t j = 0; j < ca.size(); ++j) {
      if (!(ca.events()[j] == cb.events()[j])) return false;
    }
  }
  return true;
}

std::string v2_bytes(const model::EventLog& log) {
  std::ostringstream out(std::ios::binary);
  write_event_log_v2(out, log);
  return std::move(out).str();
}

std::shared_ptr<MappedElog> open_bytes(std::string bytes) {
  return MappedElog::from_buffer(std::make_shared<strace::TraceBuffer>(std::move(bytes)));
}

/// Opens + fully checks `bytes`; any corruption must throw IoError.
void open_and_verify(std::string bytes) {
  const auto mapped = open_bytes(std::move(bytes));
  mapped->verify();
  for (std::size_t i = 0; i < mapped->case_count(); ++i) (void)mapped->case_at(i);
}

// ---- round trips -------------------------------------------------------

TEST(ElogV2, RoundTripInMemory) {
  const auto log = sample_log();
  const auto reloaded = read_event_log_v2(open_bytes(v2_bytes(log)));
  EXPECT_TRUE(logs_equal(log, reloaded));
}

TEST(ElogV2, RoundTripThroughFileUsesMmap) {
  const std::string path = ::testing::TempDir() + "/v2_roundtrip.elog";
  write_event_log_v2_file(path, sample_log());
  const auto mapped = open_v2(path);
  EXPECT_TRUE(mapped->is_mapped());
  EXPECT_EQ(mapped->case_count(), 2u);
  EXPECT_EQ(mapped->total_events(), 4u);
  EXPECT_EQ(mapped->case_id(1), (model::CaseId{"b", "node2", 9157}));
  EXPECT_EQ(mapped->case_rows(0), 3u);
  EXPECT_TRUE(logs_equal(sample_log(), read_event_log_v2(mapped)));
  fs::remove(path);
}

TEST(ElogV2, StoreReadsV2File) {
  const std::string path = ::testing::TempDir() + "/v2_dispatch.elog";
  write_event_log_v2_file(path, sample_log());
  EXPECT_TRUE(logs_equal(sample_log(), read_event_log_file(path)));
  const auto loaded = read_event_log_file_indexed(path);
  EXPECT_TRUE(logs_equal(sample_log(), loaded.log));
  EXPECT_NE(loaded.mapped, nullptr);  // a clean read keeps the mapping
  fs::remove(path);
}

TEST(ElogV2, StoreMissingFileThrows) {
  EXPECT_THROW((void)read_event_log_file("/nonexistent/x.elog"), IoError);
}

TEST(ElogV2, StoreRejectsNonV2Files) {
  // Garbage, an older container (the same magic with version byte 1),
  // and files shorter than the 8-byte magic are all typed IoErrors on
  // the path entry points.
  const std::string path = ::testing::TempDir() + "/v2_not_v2.elog";
  std::string older(kMagicV2);
  older[6] = '1';
  older[7] = '\n';
  older.append(64, '\0');
  for (const std::string& bytes :
       {std::string("NOTELOG0rest of data, long enough to hold a footer......"), older,
        std::string("STELOG"), std::string()}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    EXPECT_THROW((void)read_event_log_file_indexed(path), IoError) << bytes.size() << " bytes";
    EXPECT_THROW((void)read_event_log_file(path), IoError) << bytes.size() << " bytes";
  }
  fs::remove(path);
}

TEST(ElogV2, PreservesEventOrderAndIdentity) {
  const auto reloaded = read_event_log_v2(open_bytes(v2_bytes(sample_log())));
  const auto* a = reloaded.find_case(model::CaseId{"a", "host1", 9042});
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ(a->events()[0].start, 100);
  EXPECT_EQ(a->events()[1].start, 400);
  EXPECT_EQ(a->events()[2].call, "write");
  const auto* c = reloaded.find_case(model::CaseId{"b", "node2", 9157});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->events()[0].call, "openat");
  EXPECT_EQ(c->events()[0].cid, "b");
  EXPECT_EQ(c->events()[0].host, "node2");
  EXPECT_EQ(c->events()[0].rid, 9157u);
  EXPECT_EQ(c->events()[0].size, -1);
}

TEST(ElogV2, LargeRandomLogRoundTrips) {
  Xoshiro256 rng(7);
  model::EventLog log;
  for (int c = 0; c < 20; ++c) {
    std::vector<model::Event> events;
    const std::size_t n = rng.below(200);
    for (std::size_t i = 0; i < n; ++i) {
      events.push_back(ev(rng.below(2) != 0 ? "read" : "write",
                          "/p/" + std::to_string(rng.below(10)),
                          static_cast<Micros>(rng.below(100000)),
                          static_cast<Micros>(rng.below(500)),
                          static_cast<std::int64_t>(rng.below(1 << 20)) - 1));
    }
    log.add_case(make_case("r", static_cast<std::uint64_t>(c + 1), std::move(events)));
  }
  const auto mapped = open_bytes(v2_bytes(log));
  mapped->verify();
  EXPECT_TRUE(logs_equal(log, read_event_log_v2(mapped)));
}

TEST(ElogV2, RoundTripEmptyLog) {
  const auto reloaded = read_event_log_v2(open_bytes(v2_bytes(model::EventLog{})));
  EXPECT_EQ(reloaded.case_count(), 0u);
}

TEST(ElogV2, RoundTripEmptyCase) {
  model::EventLog log;
  log.add_case(make_case("a", 1, {}));
  const auto mapped = open_bytes(v2_bytes(log));
  mapped->verify();
  EXPECT_EQ(mapped->case_rows(0), 0u);
  const auto reloaded = read_event_log_v2(mapped);
  ASSERT_EQ(reloaded.case_count(), 1u);
  EXPECT_EQ(reloaded.cases()[0].size(), 0u);
  EXPECT_EQ(reloaded.cases()[0].id(), (model::CaseId{"a", "host1", 1}));
}

TEST(ElogV2, AdoptionKeepsViewsAliveAfterMappingHandleIsDropped) {
  const std::string path = ::testing::TempDir() + "/v2_adopt.elog";
  write_event_log_v2_file(path, sample_log());
  model::EventLog log;
  {
    auto mapped = open_v2(path);
    log = read_event_log_v2(std::move(mapped));
  }  // the only named handle to the mapping is gone; the log adopted it
  EXPECT_EQ(log.cases()[0].events()[0].call, "read");
  EXPECT_EQ(log.cases()[0].events()[0].fp, "/usr/lib/x/libselinux.so.1");
  EXPECT_TRUE(logs_equal(sample_log(), log));
  fs::remove(path);
}

// ---- layout properties -------------------------------------------------

TEST(ElogV2, SectionsAreEightByteAligned) {
  const auto mapped = open_bytes(v2_bytes(sample_log()));
  for (const SectionEntry& e : mapped->sections()) {
    EXPECT_EQ(e.offset % kSectionAlign, 0u) << section_kind_name(e.kind);
  }
}

TEST(ElogV2, StringPoolIsSharedAcrossCases) {
  // The same path used from several cases must land in the file once:
  // one file-level pool, not one pool per case.
  model::EventLog log;
  const std::string path = "/p/scratch/ssf/a-rather-long-shared-file-path";
  for (std::uint64_t c = 1; c <= 4; ++c) {
    log.add_case(make_case("w" + std::to_string(c), c, {ev("write", path, 10, 5, 100)}));
  }
  const std::string data = v2_bytes(log);
  std::size_t occurrences = 0;
  for (std::size_t pos = data.find(path); pos != std::string::npos;
       pos = data.find(path, pos + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
  EXPECT_TRUE(logs_equal(log, read_event_log_v2(open_bytes(data))));
}

TEST(ElogV2, StartEncodingPicksVarintForSmallDeltas) {
  const auto mapped = open_bytes(v2_bytes(sample_log()));
  for (const SectionEntry& e : mapped->sections()) {
    if (e.kind == SectionKind::kColStart && mapped->case_rows(e.case_index) > 0) {
      EXPECT_EQ(e.aux, kStartEncodingVarint);
    }
  }
}

TEST(ElogV2, StartEncodingFallsBackToFixedForHugeDeltas) {
  // Deltas near 2^60 need 9+ varint bytes — fixed i64 is smaller and
  // must be chosen; the round trip must hold either way.
  model::EventLog log;
  log.add_case(make_case("big", 1,
                         {ev("read", "/p/a", 1LL << 60, 1, 8),
                          ev("read", "/p/a", 2LL << 60, 1, 8),
                          ev("read", "/p/a", 3LL << 60, 1, 8)}));
  const std::string data = v2_bytes(log);
  const auto mapped = open_bytes(data);
  bool saw_start = false;
  for (const SectionEntry& e : mapped->sections()) {
    if (e.kind == SectionKind::kColStart) {
      EXPECT_EQ(e.aux, kStartEncodingFixed);
      EXPECT_EQ(e.length, 3u * 8u);
      saw_start = true;
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(logs_equal(log, read_event_log_v2(mapped)));
}

// ---- varint primitives -------------------------------------------------

TEST(ElogV2Varint, ZigzagRoundTripsExtremes) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{63}, std::int64_t{-64},
        std::numeric_limits<std::int64_t>::max(), std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

TEST(ElogV2Varint, UvarintRoundTrips) {
  std::string buf;
  std::vector<std::uint64_t> values;
  for (int shift = 0; shift < 64; ++shift) {
    values.push_back(1ULL << shift);
    values.push_back((1ULL << shift) - 1);
  }
  values.push_back(std::numeric_limits<std::uint64_t>::max());
  for (const std::uint64_t v : values) put_uvarint(buf, v);
  const char* p = buf.data();
  const char* end = p + buf.size();
  for (const std::uint64_t v : values) EXPECT_EQ(read_uvarint(&p, end), v);
  EXPECT_EQ(p, end);
}

TEST(ElogV2Varint, TruncatedAndOverlongThrow) {
  std::string buf;
  put_uvarint(buf, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const char* p = buf.data();
    EXPECT_THROW((void)read_uvarint(&p, p + cut), IoError) << "cut " << cut;
  }
  const std::string overlong(11, '\x80');
  const char* p = overlong.data();
  EXPECT_THROW((void)read_uvarint(&p, p + overlong.size()), IoError);
}

// ---- writer contract ---------------------------------------------------

TEST(ElogV2Writer, UnfinalizedFileIsUnreadable) {
  const std::string path = ::testing::TempDir() + "/v2_unfinalized.elog";
  {
    ElogV2Writer writer(path);
    writer.append(sample_log().cases()[0]);
    // no finalize(): the file has no footer and must not read as a log
  }
  EXPECT_THROW((void)open_v2(path), IoError);
  EXPECT_THROW((void)read_event_log_file(path), IoError);
  fs::remove(path);
}

TEST(ElogV2Writer, AppendAfterFinalizeThrows) {
  std::ostringstream out(std::ios::binary);
  ElogV2Writer writer(out);
  writer.finalize();
  EXPECT_THROW(writer.append(sample_log().cases()[0]), LogicError);
}

TEST(ElogV2Writer, FinalizeIsIdempotent) {
  std::ostringstream out(std::ios::binary);
  ElogV2Writer writer(out);
  writer.append(sample_log().cases()[0]);
  writer.finalize();
  writer.finalize();
  const auto reloaded = read_event_log_v2(open_bytes(std::move(out).str()));
  EXPECT_EQ(reloaded.case_count(), 1u);
}

TEST(ElogV2Writer, IncrementalWriteMatchesBulkWrite) {
  const auto log = sample_log();
  std::ostringstream out(std::ios::binary);
  ElogV2Writer writer(out);
  for (const auto& c : log.cases()) writer.append(c);
  writer.finalize();
  EXPECT_EQ(std::move(out).str(), v2_bytes(log));
}

// ---- streamed sink: byte identity at any worker count ------------------

using st::testing::make_clean_trace;

class ElogV2Import : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("st_elog_v2_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
    paths_.push_back(write_file("a_nodeA_1.st", make_clean_trace(400, 40)));
    paths_.push_back(write_file("b_nodeB_2.st", make_clean_trace(250, 50)));
    paths_.push_back(write_file("empty_nodeA_3.st", ""));
    paths_.push_back(write_file("c_nodeC_4.st", make_clean_trace(330, 60)));
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& text) {
    const fs::path p = dir_ / name;
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << text;
    return p.string();
  }

  fs::path dir_;
  std::vector<std::string> paths_;
};

TEST_F(ElogV2Import, SinkWriteIsByteIdenticalToStagedWriteAtAnyWorkerCount) {
  // The reference: a staged write of the (deterministic) streamed log.
  ThreadPool ref_pool(1);
  const auto ref_log = pipeline::run(paths_, ref_pool, {});
  const std::string staged = v2_bytes(ref_log);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    std::ostringstream out(std::ios::binary);
    ElogV2Writer writer(out);
    ElogV2WriterSink sink(writer);
    const auto log = pipeline::run(paths_, pool, {&sink});
    writer.finalize();
    EXPECT_EQ(std::move(out).str(), staged) << "workers " << workers;
    EXPECT_TRUE(logs_equal(ref_log, log));
  }
}

TEST_F(ElogV2Import, ImportedV2AgreesWithTheTraces) {
  ThreadPool pool(3);
  const auto from_traces = pipeline::run(paths_, pool, {});
  std::ostringstream v2(std::ios::binary);
  ElogV2Writer writer(v2);
  ElogV2WriterSink sink(writer);
  (void)pipeline::run(paths_, pool, {&sink});
  writer.finalize();
  const auto from_v2 = read_event_log_v2(open_bytes(std::move(v2).str()));
  EXPECT_TRUE(logs_equal(from_traces, from_v2));
}

// ---- corruption: IoError, never wrong analysis -------------------------

TEST(ElogV2Corruption, TruncationThrows) {
  const std::string data = v2_bytes(sample_log());
  for (const std::size_t cut : {std::size_t{0}, std::size_t{7}, data.size() / 4,
                                data.size() / 2, data.size() - 1}) {
    EXPECT_THROW(open_and_verify(data.substr(0, cut)), IoError) << "cut " << cut;
  }
}

TEST(ElogV2Corruption, BadMagicThrows) {
  std::string data = v2_bytes(sample_log());
  data[0] = 'X';
  EXPECT_THROW(open_and_verify(std::move(data)), IoError);
}

TEST(ElogV2Corruption, FlippedBitInEverySectionThrows) {
  const std::string data = v2_bytes(sample_log());
  const auto clean = open_bytes(data);
  for (const SectionEntry& e : clean->sections()) {
    if (e.length == 0) continue;
    std::string corrupt = data;
    corrupt[e.offset + e.length / 2] ^= 0x10;
    EXPECT_THROW(open_and_verify(std::move(corrupt)), IoError)
        << "section " << section_kind_name(e.kind) << " case " << e.case_index;
  }
}

TEST(ElogV2Corruption, ExhaustiveSingleBitFlipSweepIsAlwaysDetected) {
  // The full-coverage property: EVERY byte of the file is under some
  // check (magic, section crc, table crc, footer structure, or the
  // zero-padding rule), so one flipped bit anywhere must throw.
  const std::string data = v2_bytes(sample_log());
  for (std::size_t pos = 0; pos < data.size(); ++pos) {
    std::string corrupt = data;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << (pos % 8)));
    EXPECT_THROW(open_and_verify(std::move(corrupt)), IoError) << "byte " << pos;
  }
}

TEST(ElogV2Corruption, CrcValidationIsLazyAndPerSection) {
  // A flipped byte in case 1's dur column: open stays cheap and
  // succeeds, case 0 still reads, touching case 1 throws.
  const std::string data = v2_bytes(sample_log());
  const auto clean = open_bytes(data);
  std::string corrupt = data;
  bool patched = false;
  for (const SectionEntry& e : clean->sections()) {
    if (e.kind == SectionKind::kColDur && e.case_index == 1 && e.length > 0) {
      corrupt[e.offset] ^= 0x01;
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  const auto mapped = open_bytes(std::move(corrupt));
  EXPECT_NO_THROW((void)mapped->case_at(0));
  EXPECT_THROW((void)mapped->case_at(1), IoError);
  EXPECT_THROW(mapped->verify(), IoError);
}

// ---- index sections (zone maps, id sets, posting list) -----------------

TEST(ElogV2Index, IndexSectionsPresentAndDiscoverable) {
  const auto mapped = open_bytes(v2_bytes(sample_log()));
  EXPECT_TRUE(mapped->has_index());
  std::size_t zones = 0;
  std::size_t callsets = 0;
  std::size_t fpsets = 0;
  std::size_t postings = 0;
  for (const SectionEntry& e : mapped->sections()) {
    if (e.kind == SectionKind::kZoneMap) ++zones;
    if (e.kind == SectionKind::kCallSet) ++callsets;
    if (e.kind == SectionKind::kFpSet) ++fpsets;
    if (e.kind == SectionKind::kPosting) ++postings;
  }
  EXPECT_EQ(zones, 1u);
  EXPECT_EQ(callsets, 1u);
  EXPECT_EQ(fpsets, 1u);
  EXPECT_EQ(postings, 1u);

  const auto iv = mapped->index_view();
  ASSERT_NE(iv.zones, nullptr);
  ASSERT_NE(iv.call_ends, nullptr);
  ASSERT_NE(iv.fp_ends, nullptr);
  ASSERT_NE(iv.posting_table, nullptr);
  // Case 0 of sample_log: starts 100/400/600, pid = rid + 12 = 9054.
  const auto z0 = iv.zone(0);
  EXPECT_EQ(z0.min_start, 100);
  EXPECT_EQ(z0.max_start, 600);
  EXPECT_EQ(z0.min_pid, 9054u);
  EXPECT_EQ(z0.max_pid, 9054u);
}

TEST(ElogV2Index, PostingListMapsEveryCallToItsCases) {
  const auto mapped = open_bytes(v2_bytes(sample_log()));
  const auto iv = mapped->index_view();
  std::map<std::string, std::vector<std::uint32_t>> by_call;
  std::uint32_t begin = 0;
  for (std::uint32_t k = 0; k < iv.posting_keys; ++k) {
    const std::uint32_t id = load_u32(iv.posting_table + k * 8);
    const std::uint32_t end = load_u32(iv.posting_table + k * 8 + 4);
    auto& cases = by_call[std::string(mapped->pool_string(id))];
    for (std::uint32_t i = begin; i < end; ++i) {
      cases.push_back(load_u32(iv.posting_cases + i * 4));
    }
    begin = end;
  }
  const std::map<std::string, std::vector<std::uint32_t>> expected = {
      {"read", {0}}, {"write", {0}}, {"openat", {1}}};
  EXPECT_EQ(by_call, expected);
}

TEST(ElogV2Index, EmptyCaseWritesEmptyRangeSentinels) {
  model::EventLog log;
  log.add_case(make_case("a", 1, {}));
  log.add_case(make_case("b", 2, {ev("read", "/p/x", 50, 1, 8)}));
  const auto mapped = open_bytes(v2_bytes(log));
  const auto iv = mapped->index_view();
  const auto z = iv.zone(0);
  EXPECT_EQ(z.min_start, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(z.max_start, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(z.min_pid, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(z.max_pid, 0u);
  // Its distinct-call set is empty: ends[0] == 0.
  EXPECT_EQ(load_u32(iv.call_ends), 0u);
  mapped->verify();
}

TEST(ElogV2Index, NoIndexFileIsReadableAndReportsNoIndex) {
  std::ostringstream out(std::ios::binary);
  write_event_log_v2(out, sample_log(), ElogV2WriterOptions{false});
  const auto mapped = open_bytes(std::move(out).str());
  EXPECT_FALSE(mapped->has_index());
  for (const SectionEntry& e : mapped->sections()) {
    EXPECT_FALSE(section_kind_is_index(e.kind)) << section_kind_name(e.kind);
  }
  mapped->verify();
  EXPECT_TRUE(logs_equal(sample_log(), read_event_log_v2(mapped)));
}

TEST(ElogV2Index, ReencodeIsByteStableAndReindexesBareFiles) {
  const auto log = sample_log();
  const std::string indexed = v2_bytes(log);
  std::ostringstream bare_out(std::ios::binary);
  write_event_log_v2(bare_out, log, ElogV2WriterOptions{false});
  const std::string bare = std::move(bare_out).str();
  ASSERT_NE(indexed, bare);
  // convert's core contract: re-encoding a log read from an
  // index-free file produces exactly the indexed bytes, and re-encoding
  // an already-indexed file is byte-stable.
  EXPECT_EQ(v2_bytes(read_event_log_v2(open_bytes(bare))), indexed);
  EXPECT_EQ(v2_bytes(read_event_log_v2(open_bytes(indexed))), indexed);
}

TEST(ElogV2IndexCorruption, FlippedBitInEachIndexSectionThrowsOnVerifyAndUse) {
  const std::string data = v2_bytes(sample_log());
  const auto clean = open_bytes(data);
  std::size_t tested = 0;
  for (const SectionEntry& e : clean->sections()) {
    if (!section_kind_is_index(e.kind) || e.length == 0) continue;
    std::string corrupt = data;
    corrupt[e.offset + e.length / 2] ^= 0x04;
    const auto mapped = open_bytes(std::move(corrupt));
    // The index is advisory by ABSENCE only: present + corrupt is an
    // IoError on every path that would consult it...
    EXPECT_THROW((void)mapped->index_view(), IoError) << section_kind_name(e.kind);
    EXPECT_THROW(mapped->verify(), IoError) << section_kind_name(e.kind);
    // ...while the plain materializing read stays untouched.
    EXPECT_TRUE(logs_equal(sample_log(), read_event_log_v2(mapped)));
    ++tested;
  }
  EXPECT_EQ(tested, 4u);
}

TEST(ElogV2IndexCorruption, HostileButChecksummedIndexStillThrows) {
  // Beyond bit rot: a callset whose cumulative ends overrun the id
  // array, with all CRCs recomputed, must still be IoError on use.
  std::string data = v2_bytes(sample_log());
  const FooterV2 f = load_footer(data);
  const char* table = data.data() + f.table_offset;
  bool patched = false;
  for (std::uint32_t i = 0; i < f.section_count; ++i) {
    char* entry_bytes = data.data() + f.table_offset + i * kSectionEntryBytes;
    const SectionEntry e = load_section_entry(entry_bytes);
    if (e.kind != SectionKind::kCallSet) continue;
    store_u32(data.data() + e.offset, 0xFFFFu);  // ends[0] far past the ids
    store_u32(entry_bytes + 24, Crc32::of(data.data() + e.offset, e.length));
    patched = true;
  }
  ASSERT_TRUE(patched);
  std::string footer_patch;
  put_u32(footer_patch,
          Crc32::of(table, static_cast<std::size_t>(f.section_count) * kSectionEntryBytes));
  data.replace(data.size() - kFooterBytes + 16, 4, footer_patch);
  const auto mapped = open_bytes(std::move(data));
  EXPECT_THROW((void)mapped->index_view(), IoError);
  EXPECT_THROW(mapped->verify(), IoError);
  EXPECT_NO_THROW((void)mapped->case_at(0));  // columns are untouched
}

TEST(ElogV2Corruption, OutOfRangePoolIdThrowsEvenWithValidCrcs) {
  // Beyond bit rot: a structurally "consistent" file whose call column
  // points past the pool (all crcs recomputed) must still be IoError.
  std::string data = v2_bytes(sample_log());
  const FooterV2 f = load_footer(data);
  const char* table = data.data() + f.table_offset;
  for (std::uint32_t i = 0; i < f.section_count; ++i) {
    char* entry_bytes = data.data() + f.table_offset + i * kSectionEntryBytes;
    const SectionEntry e = load_section_entry(entry_bytes);
    if (e.kind != SectionKind::kColCall || e.case_index != 0) continue;
    store_u32(data.data() + e.offset, 1000);  // far past the pool
    store_u32(entry_bytes + 24, Crc32::of(data.data() + e.offset, e.length));
  }
  std::string footer_patch;
  put_u32(footer_patch,
          Crc32::of(table, static_cast<std::size_t>(f.section_count) * kSectionEntryBytes));
  data.replace(data.size() - kFooterBytes + 16, 4, footer_patch);
  const auto mapped = open_bytes(std::move(data));
  mapped->verify();  // all crcs check out...
  EXPECT_THROW((void)mapped->case_at(0), IoError);  // ...the id still cannot escape
}

}  // namespace
}  // namespace st::elog
