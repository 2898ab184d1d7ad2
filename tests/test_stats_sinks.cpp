// ISSUE 7 acceptance: the statistics sinks are BIT-identical to their
// staged compute() counterparts — doubles compared by bit pattern, not
// approximately — at any worker count and any chunk size, because
//   - IoStatistics::Partial::merge is pure concatenation (no FP ops),
//   - every double is summed once, in finalize(), through the
//     fixed-shape pairwise tree (deterministic_pairwise_sum),
//   - EdgeStatistics partials are all-integer.
#include "pipeline/sink.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dfg/edge_stats.hpp"
#include "dfg/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

namespace st {
namespace {

using testing::ev;
using testing::expect_same_io_stats;
using testing::make_case;

class StatsSinks : public testing::CorpusTest {
 protected:
  StatsSinks() : CorpusTest("st_stats_sinks") {}
};

// ---- the summation tree itself -----------------------------------------

TEST(DeterministicPairwiseSum, EdgeCasesAndShape) {
  EXPECT_EQ(dfg::deterministic_pairwise_sum({}), 0.0);

  const double one[] = {3.25};
  EXPECT_EQ(dfg::deterministic_pairwise_sum(one), 3.25);

  // Values whose sum depends on association order (1e16 + 1 + -1e16 is
  // 1.0 or 0.0 depending on grouping) make the shape observable.
  // half = n/2, so
  //   n=3: x0 + (x1 + x2)
  //   n=5: (x0 + x1) + (x2 + (x3 + x4))
  const double x3[] = {1e16, 1.0, -1e16};
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dfg::deterministic_pairwise_sum(x3)),
            std::bit_cast<std::uint64_t>(x3[0] + (x3[1] + x3[2])));

  const double x5[] = {1e16, 1.0, -1e16, 0.5, 1e-3};
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dfg::deterministic_pairwise_sum(x5)),
            std::bit_cast<std::uint64_t>((x5[0] + x5[1]) + (x5[2] + (x5[3] + x5[4]))));

  // Same inputs, same bits, every time (shape is a function of n alone).
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dfg::deterministic_pairwise_sum(x5)),
            std::bit_cast<std::uint64_t>(dfg::deterministic_pairwise_sum(x5)));
}

// ---- sink output vs staged compute, exact ------------------------------

TEST_F(StatsSinks, SinksMatchComputeBitwiseAt1247Workers) {
  const auto paths = make_corpus();
  const auto f = model::Mapping::call_top_dirs(2);

  const auto reference = testing::staged_log(paths);
  const auto ref_io = dfg::IoStatistics::compute(reference, f);
  const auto ref_edges = dfg::EdgeStatistics::compute(reference, f);
  ASSERT_FALSE(ref_io.per_activity().empty());
  ASSERT_FALSE(ref_edges.per_edge().empty());

  for (const std::size_t workers : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(workers);
    pipeline::StreamOptions opts;
    opts.min_chunk_bytes = 512;  // force many chunks per file

    pipeline::IoStatsSink io_sink(f);
    pipeline::EdgeStatsSink edge_sink(f);
    (void)pipeline::run(paths, pool, {&io_sink, &edge_sink}, opts);

    expect_same_io_stats(io_sink.finalize(), ref_io);
    EXPECT_EQ(edge_sink.finalize().per_edge(), ref_edges.per_edge()) << workers;
  }
}

TEST_F(StatsSinks, PartialTimelineMatchesStaticTimeline) {
  // Partial::timeline must reconstruct exactly what the static
  // timeline builds from a materialized log — for every activity.
  const auto paths = make_corpus();
  const auto f = model::Mapping::call_top_dirs(2);
  const auto reference = testing::staged_log(paths);

  ThreadPool pool(3);
  pipeline::IoStatsSink io_sink(f);
  (void)pipeline::run(paths, pool, {&io_sink});
  const dfg::IoStatistics::Partial partial = io_sink.take_partial();

  const auto stats = dfg::IoStatistics::compute(reference, f);
  ASSERT_FALSE(stats.per_activity().empty());
  for (const auto& [activity, stat] : stats.per_activity()) {
    const auto from_partial = partial.timeline(activity);
    const auto from_log = dfg::IoStatistics::timeline(reference, f, activity);
    ASSERT_EQ(from_partial.size(), from_log.size()) << activity;
    for (std::size_t i = 0; i < from_partial.size(); ++i) {
      EXPECT_EQ(from_partial[i].case_id, from_log[i].case_id) << activity << " entry " << i;
      EXPECT_EQ(from_partial[i].interval, from_log[i].interval) << activity << " entry " << i;
    }
  }
}

// ---- the monoid, hand-driven -------------------------------------------

/// Cases with rate-carrying events (size AND dur), so FP association
/// errors would show if merge did any arithmetic.
model::Case rated_case(const std::string& cid, std::uint64_t rid, Micros base) {
  return make_case(cid, rid,
                   {ev("read", "/p/data/f", base, 7, 1000),
                    ev("write", "/p/data/f", base + 10, 3, 999),
                    ev("read", "/p/data/f", base + 20, 11, 123457)});
}

TEST(IoStatsPartial, MergeGroupingCannotChangeBits) {
  const auto f = model::Mapping::call_only();
  const model::Case c0 = rated_case("w0", 1, 0);
  const model::Case c1 = rated_case("w1", 2, 500);
  const model::Case c2 = rated_case("w2", 3, 1000);

  auto partial_of = [&](std::initializer_list<const model::Case*> cases) {
    dfg::IoStatistics::Partial p;
    for (const model::Case* c : cases) p.add_case(*c, f);
    return p;
  };

  // ((c0 + c1) + c2)
  dfg::IoStatistics::Partial left = partial_of({&c0, &c1});
  left.merge(partial_of({&c2}));
  // (c0 + (c1 + c2))
  dfg::IoStatistics::Partial tail = partial_of({&c1});
  tail.merge(partial_of({&c2}));
  dfg::IoStatistics::Partial right = partial_of({&c0});
  right.merge(std::move(tail));
  // the serial walk
  const dfg::IoStatistics::Partial serial = partial_of({&c0, &c1, &c2});

  EXPECT_EQ(left, serial);
  EXPECT_EQ(right, serial);
  expect_same_io_stats(left.finalize(), serial.finalize());
  expect_same_io_stats(right.finalize(), serial.finalize());
}

TEST(EdgeStatsPartial, MergeGroupingCannotChangeMaps) {
  const auto f = model::Mapping::call_only();
  const model::Case c0 = rated_case("w0", 1, 0);
  const model::Case c1 = rated_case("w1", 2, 500);

  dfg::EdgeStatistics::Partial merged;
  {
    dfg::EdgeStatistics::Partial a;
    a.add_case(c0, f);
    dfg::EdgeStatistics::Partial b;
    b.add_case(c1, f);
    merged = std::move(a);
    merged.merge(std::move(b));
  }
  dfg::EdgeStatistics::Partial serial;
  serial.add_case(c0, f);
  serial.add_case(c1, f);
  EXPECT_EQ(merged, serial);
  EXPECT_EQ(merged.finalize().per_edge(), serial.finalize().per_edge());
}

}  // namespace
}  // namespace st
