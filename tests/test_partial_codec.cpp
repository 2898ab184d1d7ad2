// Acceptance tests for the partial codec (pipeline/partial_codec):
//   - a ShardPartial round-trips EXACTLY, every sink's partial included
//     (doubles by bit pattern),
//   - encode -> decode -> merge equals the direct merge,
//   - re-encoding a decoded blob reproduces the bytes (canonical form),
//   - EVERY truncation and EVERY single-bit flip of a blob is rejected
//     as IoError — never silently wrong analytics,
//   - hand-crafted valid-CRC-but-bad-content sections still fail
//     loudly (pool ids out of range, booleans out of range, element
//     counts exceeding the payload, each reached through
//     decode_shard_partial), and so do unassigned section kinds
//     — the retired 5 (activity log) and 7 (query log) included.
#include "pipeline/partial_codec.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dfg/builder.hpp"
#include "model/activity_log.hpp"
#include "model/case_stats.hpp"
#include "support/errors.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

namespace st {
namespace {

using pipeline::PartialReader;
using pipeline::PartialSection;
using pipeline::PartialWriter;
using pipeline::ShardPartial;
using testing::ev;
using testing::expect_same_io_stats;
using testing::make_case;

model::EventLog sample_log() {
  model::EventLog log;
  log.add_case(make_case("w0", 1,
                         {ev("read", "/p/data/a", 0, 7, 1000),
                          ev("pwrite64", "/p/scratch/b", 10, 3, 999),
                          ev("read", "/p/data/a", 20, 11, 123457)}));
  log.add_case(make_case("w1", 2,
                         {ev("openat", "/p/scratch/c", 100, 5),
                          ev("read", "/p/data/a", 110, 11, 123)},
                         "host2"));
  log.add_case(make_case("w2", 3, {}));  // empty case, empty variant
  return log;
}

model::EventLog other_log() {
  model::EventLog log;
  log.add_case(make_case("x0", 4,
                         {ev("read", "/p/data/a", 40, 9, 2048),
                          ev("write", "/p/data/d", 60, 2, 17)}));
  return log;
}

/// Builds the ShardPartial a fold over `log` would produce (hand-built
/// here so the codec is tested in isolation from the pipeline).
ShardPartial sample_partial(const model::EventLog& log, std::vector<std::string> warnings) {
  const auto f = model::Mapping::call_top_dirs(2);
  ShardPartial p;
  p.mapping = f.name();
  p.case_count = log.case_count();
  p.total_events = log.total_events();
  p.warnings = std::move(warnings);
  p.graph = dfg::build_serial(log, f);
  p.case_summaries = model::summarize_cases(log);
  p.variants = model::ActivityLog::build(log, f).variants();
  for (const auto& c : log.cases()) {
    p.io.add_case(c, f);
    p.edges.add_case(c, f);
  }
  return p;
}

/// A blob whose sections are an empty ShardPartial's, except `kind`,
/// which carries `payload`: the way to one sink's decoder through
/// decode_shard_partial. `w` may already hold interned strings.
std::string blob_with(PartialWriter& w, PartialSection kind, std::string payload) {
  const std::string empty = pipeline::encode_shard_partial(ShardPartial{});
  const PartialReader base(empty);
  for (const PartialSection k : {PartialSection::kMeta, PartialSection::kDfg,
                                 PartialSection::kCaseStats, PartialSection::kVariants,
                                 PartialSection::kIoStats, PartialSection::kEdgeStats}) {
    w.add_section(k, k == kind ? std::move(payload) : std::string(base.section(k)));
  }
  return w.finish();
}

void expect_same_shard_partial(const ShardPartial& a, const ShardPartial& b) {
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.case_count, b.case_count);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.warnings, b.warnings);
  EXPECT_EQ(a.graph, b.graph);
  EXPECT_EQ(a.case_summaries, b.case_summaries);
  EXPECT_EQ(a.variants, b.variants);
  EXPECT_EQ(a.io, b.io);
  EXPECT_EQ(a.edges, b.edges);
}

// ---- round trips -------------------------------------------------------

TEST(PartialCodec, ShardPartialRoundTrips) {
  const ShardPartial p = sample_partial(sample_log(), {"big_nodeA_9001.st: line 4: noise"});
  expect_same_shard_partial(p, pipeline::decode_shard_partial(pipeline::encode_shard_partial(p)));
}

TEST(PartialCodec, ReencodingADecodedBlobIsByteStable) {
  // decode is exact and encode deterministic, so the round trip must
  // reproduce the canonical bytes — the property that lets the
  // coordinator (or a cache) treat blobs as content-addressable.
  const std::string blob =
      pipeline::encode_shard_partial(sample_partial(sample_log(), {"w: warn"}));
  EXPECT_EQ(pipeline::encode_shard_partial(pipeline::decode_shard_partial(blob)), blob);
}

TEST(PartialCodec, DecodeThenMergeEqualsDirectMerge) {
  // Warnings chosen so the shard seam exercises the consecutive-
  // duplicate collapse: direct and decoded merges must agree on it.
  const std::vector<std::string> w1 = {"a.st: warn", "shared: tail warn"};
  const std::vector<std::string> w2 = {"shared: tail warn", "b.st: warn"};

  ShardPartial direct = sample_partial(sample_log(), w1);
  direct.merge(sample_partial(other_log(), w2));

  ShardPartial via = pipeline::decode_shard_partial(
      pipeline::encode_shard_partial(sample_partial(sample_log(), w1)));
  via.merge(pipeline::decode_shard_partial(
      pipeline::encode_shard_partial(sample_partial(other_log(), w2))));

  expect_same_shard_partial(direct, via);
  EXPECT_EQ(direct.warnings,
            (std::vector<std::string>{"a.st: warn", "shared: tail warn", "b.st: warn"}));
  // And the finalized doubles agree bit for bit.
  expect_same_io_stats(direct.io.finalize(), via.io.finalize());
  EXPECT_EQ(direct.edges.finalize().per_edge(), via.edges.finalize().per_edge());
}

// ---- corruption: every defect is an IoError ----------------------------

TEST(PartialCodec, EveryTruncationIsIoError) {
  const std::string blob =
      pipeline::encode_shard_partial(sample_partial(sample_log(), {"a.st: warn"}));
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW((void)pipeline::decode_shard_partial(blob.substr(0, len)), IoError)
        << "prefix length " << len;
  }
}

TEST(PartialCodec, EverySingleBitFlipIsIoError) {
  const std::string blob =
      pipeline::encode_shard_partial(sample_partial(sample_log(), {"a.st: warn"}));
  std::string mutated = blob;
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[i] = static_cast<char>(blob[i] ^ (1 << bit));
      EXPECT_THROW((void)pipeline::decode_shard_partial(mutated), IoError)
          << "byte " << i << " bit " << bit;
    }
    mutated[i] = blob[i];
  }
}

TEST(PartialCodec, GarbageBlobsAreIoError) {
  EXPECT_THROW((void)pipeline::decode_shard_partial(""), IoError);
  EXPECT_THROW((void)pipeline::decode_shard_partial("not a partial blob at all"), IoError);
  EXPECT_THROW((void)pipeline::decode_shard_partial(std::string(64, '\0')), IoError);
}

TEST(PartialCodec, UnknownSectionKindIsIoError) {
  // Unassigned kinds — below, between (the retired 5 and 7) and above
  // the assigned ones — fail the eager validation even behind a valid
  // checksum, before any decoder runs.
  for (const std::uint32_t kind : {0u, 5u, 7u, 10u, 0xFFFFFFFFu}) {
    PartialWriter w;
    w.add_section(static_cast<PartialSection>(kind), "x");
    const std::string blob = w.finish();
    EXPECT_THROW((void)PartialReader(blob), IoError) << "kind " << kind;
    EXPECT_THROW((void)pipeline::decode_shard_partial(blob), IoError) << "kind " << kind;
  }
}

TEST(PartialCodec, MissingRequiredSectionIsIoError) {
  // A structurally valid blob (magic, CRCs, pool) carrying only Meta:
  // decode_shard_partial must reject it when it reaches the DFG.
  PartialWriter w;
  std::string meta;
  meta.push_back('\0');  // case_count = 0
  meta.push_back('\0');  // total_events = 0
  meta.push_back('\0');  // no warnings
  w.add_section(PartialSection::kMeta, std::move(meta));
  EXPECT_THROW((void)pipeline::decode_shard_partial(w.finish()), IoError);
}

TEST(PartialCodec, ValidCrcBadContentStillFailsLoudly) {
  {
    // Pool id out of range behind a correct checksum.
    PartialWriter w;
    std::string io;
    io.push_back('\x01');  // one case
    io.push_back('\x07');  // cid pool id 7 — the pool is empty
    const std::string blob = blob_with(w, PartialSection::kIoStats, std::move(io));
    EXPECT_THROW((void)pipeline::decode_shard_partial(blob), IoError);
  }
  {
    // Boolean byte outside {0, 1}.
    PartialWriter w;
    const std::uint32_t id = w.intern("x");
    ASSERT_EQ(id, 0u);
    std::string io;
    io.push_back('\x01');                              // one case
    io.push_back('\0'), io.push_back('\0'), io.push_back('\0');  // case id x/x/0
    io.push_back('\x01');                              // one activity
    io.push_back('\0');                                // activity id 0
    io.push_back('\0');                                // total_dur 0
    io.push_back('\0');                                // event_count 0
    io.push_back('\0');                                // bytes 0
    io.push_back('\x02');                              // has_bytes = 2: invalid
    const std::string blob = blob_with(w, PartialSection::kIoStats, std::move(io));
    EXPECT_THROW((void)pipeline::decode_shard_partial(blob), IoError);
  }
  {
    // Element count larger than the bytes that could hold it.
    PartialWriter w;
    std::string v;
    v.push_back('\xC8');  // uvarint 200...
    v.push_back('\x01');  // ...with no elements behind it
    const std::string blob = blob_with(w, PartialSection::kVariants, std::move(v));
    EXPECT_THROW((void)pipeline::decode_shard_partial(blob), IoError);
  }
  {
    // The same helper with nothing replaced decodes: the throws above
    // come from the planted payloads, not from the scaffolding.
    PartialWriter w;
    const std::string blob = blob_with(w, PartialSection::kStringPool, "");
    EXPECT_EQ(pipeline::decode_shard_partial(blob).case_count, 0u);
  }
}

// ---- writer / reader unit checks ---------------------------------------

TEST(PartialCodec, DuplicateSectionIsLogicError) {
  PartialWriter w;
  w.add_section(PartialSection::kMeta, "");
  EXPECT_THROW(w.add_section(PartialSection::kMeta, ""), LogicError);
}

TEST(PartialCodec, ReaderPoolAndSectionAccess) {
  PartialWriter w;
  EXPECT_EQ(w.intern("alpha"), 0u);
  EXPECT_EQ(w.intern(""), 1u);
  EXPECT_EQ(w.intern("alpha"), 0u);  // interning is idempotent
  w.add_section(PartialSection::kMeta, "m");
  const std::string blob = w.finish();

  const PartialReader r(blob);
  EXPECT_TRUE(r.has_section(PartialSection::kStringPool));
  EXPECT_TRUE(r.has_section(PartialSection::kMeta));
  EXPECT_FALSE(r.has_section(PartialSection::kDfg));
  EXPECT_EQ(r.section(PartialSection::kMeta), "m");
  EXPECT_THROW((void)r.section(PartialSection::kDfg), IoError);
  EXPECT_EQ(r.pool_string(0), "alpha");
  EXPECT_EQ(r.pool_string(1), "");
  EXPECT_THROW((void)r.pool_string(2), IoError);
}

}  // namespace
}  // namespace st
