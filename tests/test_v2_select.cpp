// Query selection over elog v2 (elog/v2_select) — the byte-identity
// contract: for ANY query over ANY corpus, the kept cases, decoded,
// are exactly what Query::apply returns over the materialized log —
// same cases in the same order (including event-restriction-emptied
// cases), same events — whether they are decoded by select_v2 or
// through a container's selection (elog::ContainerCases::select, the
// fold source behind trace_explorer --query and corpus::Catalog) at
// any worker count. Randomized corpora x all 32 restriction combos x
// selectivities from 0% to 100% hold it there, and serve_mix's query
// shapes hold it over a container, a case stored out of start order, a
// keep-going quarantine and a container written with the reserved
// (retired index) sections 9..12, which must answer like its re-encode.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/catalog.hpp"
#include "dfg/builder.hpp"
#include "elog/format.hpp"
#include "elog/store.hpp"
#include "elog/v2_fold.hpp"
#include "elog/v2_select.hpp"
#include "elog/v2_store.hpp"
#include "model/query.hpp"
#include "parallel/thread_pool.hpp"
#include "strace/trace_buffer.hpp"
#include "support/errors.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

namespace st::elog {
namespace {

namespace fs = std::filesystem;

using testing::decoded_log;
using testing::ev;
using testing::expect_same_log;
using testing::make_case;

std::string v2_bytes(const model::EventLog& log) {
  std::ostringstream out(std::ios::binary);
  write_event_log_v2(out, log);
  return std::move(out).str();
}

std::shared_ptr<MappedElog> open_bytes(std::string bytes) {
  return MappedElog::from_buffer(std::make_shared<strace::TraceBuffer>(std::move(bytes)));
}

/// Full identity check: cases, order, events, warnings.
void expect_logs_identical(const model::EventLog& expect, const model::EventLog& got,
                           const std::string& ctx) {
  ASSERT_EQ(expect.warnings(), got.warnings()) << ctx;
  ASSERT_EQ(expect.case_count(), got.case_count()) << ctx;
  for (std::size_t i = 0; i < expect.case_count(); ++i) {
    const auto& ce = expect.cases()[i];
    const auto& cg = got.cases()[i];
    ASSERT_EQ(ce.id(), cg.id()) << ctx << " case " << i;
    ASSERT_EQ(ce.size(), cg.size()) << ctx << " case " << i;
    for (std::size_t j = 0; j < ce.size(); ++j) {
      ASSERT_TRUE(ce.events()[j] == cg.events()[j]) << ctx << " case " << i << " event " << j;
    }
  }
}

/// Deterministic randomized corpus: varied calls/paths/windows, ~1 in 8
/// cases empty, occasional huge start jump so both start encodings
/// (varint and fixed) appear. rid_base keeps CaseIds disjoint between
/// corpora that get merged.
model::EventLog random_log(std::mt19937& rng, std::size_t cases, std::uint64_t rid_base) {
  static const std::vector<std::string> kCalls = {"read",  "write", "openat", "close",
                                                  "fsync", "lseek", "pread64"};
  static const std::vector<std::string> kPaths = {
      "/p/scratch/ssf/data",    "/p/scratch/ssf/ckpt", "/usr/lib/x/libz.so",
      "/dev/pts/0",             "/p/data/huge.bin",    "/etc/app.conf"};
  model::EventLog log;
  for (std::size_t c = 0; c < cases; ++c) {
    std::vector<model::Event> events;
    const std::size_t n = rng() % 8 == 0 ? 0 : 1 + rng() % 40;
    Micros t = static_cast<Micros>(rng() % 10000);
    for (std::size_t i = 0; i < n; ++i) {
      t += static_cast<Micros>(rng() % 1000);
      if (rng() % 64 == 0) t += 1LL << 50;  // forces fixed start encoding
      events.push_back(ev(kCalls[rng() % kCalls.size()], kPaths[rng() % kPaths.size()], t,
                          static_cast<Micros>(rng() % 500),
                          static_cast<std::int64_t>(rng() % 4096) - 1));
    }
    log.add_case(make_case("c" + std::to_string(c % 5), rid_base + c, std::move(events),
                           "node" + std::to_string(c % 3)));
  }
  return log;
}

/// One query per (restriction-combo, selectivity-variant): bit k of
/// `mask` switches restriction k on; `variant` sweeps each dimension
/// from nothing-matches (0%) through rare and common to everything.
model::Query make_query(unsigned mask, int variant) {
  model::Query q;
  if (mask & 1u) {
    switch (variant % 4) {
      case 0: q = q.calls({"statx"}); break;            // 0%: not in any corpus
      case 1: q = q.calls({"fsync"}); break;            // rare
      case 2: q = q.calls({"read"}); break;             // common (family expands)
      case 3: q = q.calls({"read", "write", "openat", "close", "fsync", "lseek"}); break;
    }
  }
  if (mask & 2u) {
    switch (variant % 4) {
      case 0: q = q.fp_contains("/nowhere"); break;
      case 1: q = q.fp_contains("ckpt"); break;
      case 2: q = q.fp_contains("/p/"); break;
      default: q = q.fp_contains("/"); break;
    }
  }
  if (mask & 4u) {
    switch (variant % 4) {
      case 0: q = q.between(0, 1); break;               // empty window
      case 1: q = q.between(0, 20000); break;
      case 2: q = q.between(5000, 1LL << 40); break;
      default: q = q.between(std::numeric_limits<Micros>::min(),
                             std::numeric_limits<Micros>::max()); break;
    }
  }
  if (mask & 8u) {
    switch (variant % 3) {
      case 0: q = q.cids({"zzz"}); break;
      case 1: q = q.cids({"c0"}); break;
      default: q = q.cids({"c0", "c1", "c2", "c3", "c4"}); break;
    }
  }
  if (mask & 16u) {
    switch (variant % 3) {
      case 0: q = q.hosts({"nohost"}); break;
      case 1: q = q.hosts({"node1"}); break;
      default: q = q.hosts({"node0", "node1", "node2"}); break;
    }
  }
  return q;
}

// ---- single-file equivalence -------------------------------------------

TEST(V2Select, ByteIdenticalToApplyAcrossAllRestrictionCombos) {
  std::mt19937 rng(20240817);
  for (int trial = 0; trial < 3; ++trial) {
    const auto src = random_log(rng, 24, 1000u * static_cast<unsigned>(trial + 1));
    const auto mapped = open_bytes(v2_bytes(src));
    const auto base = read_event_log_v2(mapped);
    const ContainerCases container(mapped, {}, RunPolicy{}, nullptr);
    for (unsigned mask = 0; mask < 32; ++mask) {
      for (int variant = 0; variant < 4; ++variant) {
        const auto q = make_query(mask, variant);
        const std::string ctx = "trial " + std::to_string(trial) + " query [" + q.describe() + "]";
        const auto expect = q.apply(base);
        expect_logs_identical(expect, select_v2(mapped, q), ctx + " select_v2");
        const auto selected = container.select(q);
        const std::array<const pipeline::CaseSource*, 1> sources{&selected};
        expect_logs_identical(expect, decoded_log(sources), ctx + " selection");
        EXPECT_EQ(selected.total_events(), expect.total_events()) << ctx;
      }
    }
  }
}

TEST(V2Select, SingleCallRestrictionMatchesApplyAtEveryRowCount) {
  // A call restriction that accepts one pool id, over cases from empty
  // to several 64-row words long, alone and with an fp or window
  // restriction: every case must give Query::apply's bytes.
  static const std::vector<std::string> kCalls = {"read", "lseek", "write"};
  std::mt19937 rng(99);
  model::EventLog src;
  std::uint64_t rid = 1;
  for (const std::size_t rows : {0u, 1u, 2u, 7u, 8u, 9u, 15u, 63u, 64u, 65u, 130u}) {
    std::vector<model::Event> events;
    for (std::size_t i = 0; i < rows; ++i) {
      events.push_back(ev(kCalls[rng() % kCalls.size()], i % 2 ? "/p/a" : "/q/b",
                          static_cast<Micros>(i * 10), 1, 1));
    }
    src.add_case(make_case("c0", rid++, std::move(events), "node0"));
  }
  const auto lseek = model::Query().calls({"lseek"});  // single accepted pool id
  const auto mapped = open_bytes(v2_bytes(src));
  const auto base = read_event_log_v2(mapped);
  for (const auto& q : {lseek, lseek.fp_contains("/p/"), lseek.between(100, 500)}) {
    expect_logs_identical(q.apply(base), select_v2(mapped, q), "[" + q.describe() + "]");
  }
}

TEST(V2Select, AdoptsTheMappingSoViewsOutliveTheHandle) {
  std::mt19937 rng(5);
  const auto src = random_log(rng, 6, 1);
  model::EventLog result;
  {
    const auto mapped = open_bytes(v2_bytes(src));
    result = select_v2(mapped, model::Query().calls({"read"}));
  }  // only the result's adoption keeps the mapping alive now
  for (const auto& c : result.cases()) {
    for (const auto& e : c.events()) EXPECT_FALSE(e.call.empty());
  }
}

// ---- selections over serve_mix's query shapes ---------------------------

/// serve_mix's query shapes (perfbench/run.py request_keys), spelled for
/// random_log's cids, hosts and paths.
std::vector<model::Query> serve_mix_shapes() {
  std::vector<model::Query> out;
  for (const char* text :
       {"all", "calls{write}", "calls{read}", "calls{lseek}", "calls{read,write}",
        "calls{unlinkat}", "fp~/p/scratch", "fp~/p/scratch/ssf", "fp~/dev/pts", "cids{c1}",
        "cids{c0,c2}", "hosts{node1}", "t[5000,20000)", "t[0,1)", "cids{c1} calls{write}",
        "cids{c3} calls{read}", "fp~/p/ calls{read,write} t[1000,30000) hosts{node0,node2}"}) {
    out.push_back(model::Query::parse(text));
  }
  return out;
}

/// Each shape's selection of `mapped`, opened at no pool and on 1 and 4
/// workers, against q.apply on `read` (the container read the same
/// way): its cases decoded through the source's cursor, its counts, and
/// its DFG under `call` folded through the container's dictionary (the
/// decoded events' pool-id pairs must follow them).
void expect_selections_apply(const std::shared_ptr<MappedElog>& mapped,
                             const model::EventLog& read, const RunPolicy& policy,
                             const std::string& what) {
  const auto f = model::mapping_by_name("call");
  const std::array<const model::Mapping*, 1> mappings{&f};
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1, &pool4}) {
    const ContainerCases container(mapped, mappings, policy, pool);
    for (const auto& q : serve_mix_shapes()) {
      SCOPED_TRACE(what + " [" + q.describe() + "] workers " +
                   std::to_string(pool ? pool->size() : 0));
      const auto expect = q.apply(read);
      const auto selected = container.select(q);
      const std::array<const pipeline::CaseSource*, 1> sources{&selected};
      expect_same_log(decoded_log(sources), expect);
      EXPECT_EQ(selected.case_count(), expect.case_count());
      EXPECT_EQ(selected.total_events(), expect.total_events());
      ASSERT_NE(selected.dictionary(f), nullptr);
      pipeline::DfgSink graph(f);
      const std::array<pipeline::CaseSink*, 1> sinks{&graph};
      pipeline::fold_cases(sources, sinks, pool);
      EXPECT_EQ(graph.graph(), dfg::build_serial(expect, f));
    }
  }
}

TEST(V2Selection, DecodesToApply) {
  std::mt19937 rng(31);
  const auto mapped = open_bytes(v2_bytes(random_log(rng, 40, 1)));
  expect_selections_apply(mapped, read_event_log_v2(mapped), RunPolicy{}, "container");
}

TEST(V2Selection, DecodesACaseStoredOutOfStartOrderInStartOrder) {
  // A checksummed case whose rows are not in start order: the kept rows
  // come back sorted by start, like Case sorts them, with their pool-id
  // pairs alongside (the fold maps through them).
  model::EventLog src;
  src.add_case(make_case("c1", 1,
                         {ev("read", "/p/scratch/a", 10, 2, 8), ev("write", "/p/scratch/b", 20, 3, 16),
                          ev("openat", "/p/data/c", 30, 1), ev("read", "/p/scratch/d", 40, 2, 8),
                          ev("lseek", "/p/scratch/a", 50, 1), ev("write", "/dev/pts/0", 60, 1, 4)},
                         "node1"));
  EncodedCase ec = encode_case(src.cases()[0]);
  ec.col_start.clear();
  for (const std::int64_t delta : {30, -20, 10, 20, -10, 30}) put_i64(ec.col_start, delta);
  ec.start_encoding = kStartEncodingFixed;
  std::ostringstream out(std::ios::binary);
  ElogV2Writer writer(out);
  writer.append_encoded(std::move(ec));
  writer.finalize();
  const auto mapped = open_bytes(std::move(out).str());
  const auto read = read_event_log_v2(mapped);
  ASSERT_EQ(read.cases()[0].events()[0].call, "write");  // really reordered
  expect_selections_apply(mapped, read, RunPolicy{}, "unsorted");
}

TEST(V2Selection, SelectsOnlyTheCasesAKeepGoingOpenKept) {
  std::mt19937 rng(32);
  std::string bytes = v2_bytes(random_log(rng, 20, 1));
  const auto clean = open_bytes(bytes);
  for (const SectionEntry& e : clean->sections()) {
    if (e.kind == SectionKind::kColDur && e.case_index == 7 && e.length > 0) {
      bytes[e.offset + e.length / 2] ^= 0x10;
      break;
    }
  }
  const auto mapped = open_bytes(bytes);
  const auto read = read_event_log_v2(mapped, ElogReadOptions{true});
  ASSERT_EQ(read.warnings().size(), 1u);
  ASSERT_EQ(read.case_count(), mapped->case_count() - 1);
  expect_selections_apply(mapped, read, RunPolicy{true}, "quarantine");
}

TEST(V2Selection, ALegacyContainerAnswersLikeItsReencode) {
  // A container written with the retired query index (reserved kinds
  // 9..12, testing::legacy_index_elog) answers every query as its
  // re-encode, which has none, does, and so does a copy with a bit
  // flipped in any one of those sections.
  const std::string bytes = testing::legacy_index_elog();
  const auto legacy = open_bytes(bytes);
  const auto reencode = open_bytes(v2_bytes(read_event_log_v2(legacy)));
  const auto expect = read_event_log_v2(reencode);
  std::vector<std::pair<std::string, std::string>> copies{{"legacy", bytes}};
  for (const SectionEntry& e : legacy->sections()) {
    if (static_cast<std::uint32_t>(e.kind) <= static_cast<std::uint32_t>(SectionKind::kColSize)) {
      continue;
    }
    std::string flipped = bytes;
    flipped[e.offset + e.length / 2] ^= 0x04;
    copies.emplace_back("flipped kind " + std::to_string(static_cast<std::uint32_t>(e.kind)),
                        std::move(flipped));
  }
  ASSERT_EQ(copies.size(), 5u);
  for (const auto& [what, copy] : copies) {
    const auto mapped = open_bytes(copy);
    expect_selections_apply(mapped, expect, RunPolicy{}, what);
    for (unsigned mask = 0; mask < 32; ++mask) {
      for (int variant = 0; variant < 4; ++variant) {
        const auto q = make_query(mask, variant);
        expect_logs_identical(select_v2(reencode, q), select_v2(mapped, q),
                              what + " [" + q.describe() + "]");
      }
    }
  }
}

// ---- through corpus::Catalog -------------------------------------------

class V2SelectCatalog : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("st_v2sel_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
    std::mt19937 rng(4242);
    write((dir_ / "a.elog").string(), v2_bytes(random_log(rng, 10, 100)));
    write((dir_ / "b.elog").string(), v2_bytes(random_log(rng, 14, 200)));
    inputs_ = {(dir_ / "a.elog").string(), (dir_ / "b.elog").string()};
  }
  void TearDown() override { fs::remove_all(dir_); }

  static void write(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  /// The containers read and merged into one log, in input order.
  [[nodiscard]] model::EventLog materialized() const {
    return model::EventLog::merge(read_event_log_file(inputs_[0]), read_event_log_file(inputs_[1]));
  }

  fs::path dir_;
  std::vector<std::string> inputs_;
};

TEST_F(V2SelectCatalog, FilteredIsByteIdenticalToApplyAtAnyWorkerCount) {
  const auto base = materialized();
  for (const std::size_t workers : {1u, 2u, 4u}) {
    corpus::Catalog catalog;
    ThreadPool pool(workers);
    catalog.load(inputs_, pool);
    for (unsigned mask = 0; mask < 32; mask += 3) {
      const auto q = make_query(mask, 1);
      const auto expect = q.apply(base);
      const auto view = catalog.filtered(q);
      const std::string ctx = "workers " + std::to_string(workers) + " [" + q.describe() + "]";
      expect_logs_identical(expect, decoded_log(view->sources), ctx);
      EXPECT_EQ(view->case_count, expect.case_count()) << ctx;
      EXPECT_EQ(view->total_events, expect.total_events()) << ctx;
    }
  }
}

TEST_F(V2SelectCatalog, ConcurrentFilteredStampedeAgrees) {
  corpus::Catalog catalog;
  ThreadPool pool(4);
  catalog.load(inputs_, pool);
  const auto q = make_query(3, 2);
  const auto expect = q.apply(materialized());
  std::vector<std::shared_ptr<const corpus::CorpusSelection>> results(8);
  ThreadPool clients(4);
  std::vector<std::future<void>> done;
  for (auto& slot : results) {
    done.push_back(clients.submit([&catalog, &q, &slot] { slot = catalog.filtered(q); }));
  }
  for (auto& d : done) d.get();
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());
    expect_logs_identical(expect, decoded_log(r->sources), "stampede");
  }
}

}  // namespace
}  // namespace st::elog
