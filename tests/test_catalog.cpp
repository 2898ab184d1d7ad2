// corpus::Catalog (ISSUE 9): the resident corpus with memoized
// artifacts, and the serve request loop in front of it.
//
//   - loading mixes traces like the offline pipeline (the unrestricted
//     selection decodes to its log), a case id met twice fails the
//     load, and a keep-going load reports quarantined container cases
//     and counts only the kept ones;
//   - hit/miss/evict semantics of the LRU memo table, including
//     single-flight deduplication under a stampede;
//   - cached artifacts are byte-identical to uncached recomputation
//     and to the staged oracle (testing::staged_report_data rendered
//     with the shared query_report_options), also over trace files that
//     warn or fail, against a catalog of the same files imported as a
//     container;
//   - concurrent lookup/evict/insert is clean (this test is in the
//     TSan job's target list);
//   - handle_request/serve_lines: canonical echo, payload framing,
//     graceful error replies, shutdown;
//   - the TCP server outlives a client that hangs up mid-reply, and
//     answers an overlong request line with an error instead of
//     buffering it without bound.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/catalog.hpp"
#include "corpus/serve.hpp"
#include "dfg/coloring.hpp"
#include "elog/store.hpp"
#include "elog/v2_fold.hpp"
#include "elog/v2_store.hpp"
#include "model/query.hpp"
#include "paper_oracles.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
#include "report/report.hpp"
#include "testing_corpus.hpp"

namespace st::corpus {
namespace {

using model::Query;

class CatalogTest : public st::testing::CorpusTest {
 protected:
  CatalogTest() : CorpusTest("catalog") {}

  Catalog make_catalog(std::size_t capacity = 64) {
    CatalogOptions opts;
    opts.cache_capacity = capacity;
    Catalog catalog(opts);
    ThreadPool pool(2);
    catalog.load(corpus_, pool);
    return catalog;
  }

  void SetUp() override {
    CorpusTest::SetUp();
    corpus_ = make_corpus();
  }

  std::vector<std::string> corpus_;
};

TEST_F(CatalogTest, LoadMatchesTheOfflinePipeline) {
  auto catalog = make_catalog();
  ThreadPool pool(2);
  const auto offline = pipeline::run(corpus_, pool, {});
  // The unrestricted selection holds every case, whole.
  const auto all = catalog.filtered(Query());
  st::testing::expect_same_log(st::testing::decoded_log(all->sources), Query().apply(offline));
  EXPECT_EQ(all->case_count, offline.case_count());
  EXPECT_EQ(all->total_events, offline.total_events());
  EXPECT_EQ(catalog.case_count(), offline.case_count());
  EXPECT_EQ(catalog.total_events(), offline.total_events());
  EXPECT_EQ(catalog.load_warnings(), offline.warnings());
}

TEST_F(CatalogTest, ContainersSharingACaseIdAreRejectedLikeAnyMerge) {
  // A case id in two containers is the merge's LogicError, under
  // keep_going too (it is no data fault of either file).
  ThreadPool pool(2);
  const auto log = pipeline::run(corpus_, pool, {});
  const std::string a = write_file("a.elog", "");
  const std::string b = write_file("b.elog", "");
  elog::write_event_log_v2_file(a, log);
  elog::write_event_log_v2_file(
      b, log.partition([](const model::Case& c) { return c.id().cid == "s2"; }).first);
  for (const bool keep_going : {false, true}) {
    CatalogOptions opts;
    opts.policy.keep_going = keep_going;
    Catalog catalog(opts);
    try {
      catalog.load({a, b}, pool);
      ADD_FAILURE() << "a duplicate case loaded";
    } catch (const LogicError& e) {
      EXPECT_EQ(std::string(e.what()), "logic error: EventLog::merge: duplicate case s2_nodeC_9102");
    }
  }
  Catalog one;
  one.load({a}, pool);
  EXPECT_EQ(one.case_count(), log.case_count());
  EXPECT_EQ(one.total_events(), log.total_events());
}

TEST_F(CatalogTest, KeepGoingLoadReportsQuarantinedContainerCases) {
  // A container whose first case fails its CRC: a strict load throws,
  // a keep_going load drops the case AND says so, and counts only the
  // cases it kept.
  ThreadPool pool(2);
  const auto log = pipeline::run(corpus_, pool, {});
  const std::string path = write_file("corpus.elog", "");
  elog::write_event_log_v2_file(path, log);
  std::uint64_t flip_at = 0;
  {
    const auto mapped = elog::open_v2(path);
    for (const elog::SectionEntry& e : mapped->sections()) {
      if (e.kind == elog::SectionKind::kColPid && e.case_index == 0 && e.length > 0) {
        flip_at = e.offset;
      }
    }
  }
  ASSERT_NE(flip_at, 0u);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(flip_at));
    const char byte = static_cast<char>(f.get() ^ 0x01);
    f.seekp(static_cast<std::streamoff>(flip_at));
    f.put(byte);
  }

  {
    Catalog strict;
    EXPECT_THROW(strict.load({path}, pool), IoError);
  }

  CatalogOptions opts;
  opts.policy.keep_going = true;
  Catalog catalog(opts);
  catalog.load({path}, pool);
  ASSERT_EQ(catalog.load_warnings().size(), 1u);
  const std::string expected = path + ": case 0 (big_nodeA_9001) quarantined: ";
  EXPECT_EQ(catalog.load_warnings()[0].substr(0, expected.size()), expected);
  const auto read = elog::read_event_log_file(path, elog::ElogReadOptions{true});
  EXPECT_EQ(catalog.case_count(), log.case_count() - 1);
  EXPECT_EQ(catalog.total_events(), read.total_events());
  st::testing::expect_same_log(st::testing::decoded_log(catalog.filtered(Query())->sources),
                               Query().apply(read));
}

TEST_F(CatalogTest, HitMissEvictSemantics) {
  auto catalog = make_catalog(/*capacity=*/2);
  const auto q1 = Query().fp_contains("/p/data");
  const auto q2 = Query().fp_contains("/p/scratch");
  const auto q3 = Query().calls({"read"});

  (void)catalog.filtered(q1);  // miss
  (void)catalog.filtered(q1);  // hit
  auto s = catalog.cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);

  (void)catalog.filtered(q2);  // miss, fills capacity
  (void)catalog.filtered(q3);  // miss, evicts q1 (least recently used)
  s = catalog.cache_stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);

  (void)catalog.filtered(q1);  // recompute after eviction: a miss again
  s = catalog.cache_stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.hits, 1u);

  // q3 was touched more recently than q2 at the q1 insert, so q2 is
  // the victim: q3 must still be resident.
  (void)catalog.filtered(q3);  // hit
  EXPECT_EQ(catalog.cache_stats().hits, 2u);
}

TEST_F(CatalogTest, EvictedHandlesStayValid) {
  auto catalog = make_catalog(/*capacity=*/1);
  const auto q = Query().fp_contains("/p/data");
  const auto held = catalog.filtered(q);
  (void)catalog.filtered(Query().fp_contains("/p/scratch"));  // evicts q
  EXPECT_GE(catalog.cache_stats().evictions, 1u);
  // The shared_ptr keeps the artifact alive past eviction.
  EXPECT_GT(held->case_count, 0u);
  EXPECT_EQ(st::testing::decoded_log(held->sources).case_count(), held->case_count);
}

TEST_F(CatalogTest, CacheIdentityIsTheCanonicalDescribe) {
  auto catalog = make_catalog();
  // Two spellings, one canonical form -> the second request is a HIT
  // and returns the SAME artifact object.
  const auto a = catalog.filtered(Query().calls({"write", "read"}));
  const auto b = catalog.filtered(Query::parse("  calls{read , write} "));
  EXPECT_EQ(a.get(), b.get());
  const auto s = catalog.cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST_F(CatalogTest, CachedArtifactsMatchUncachedRecomputation) {
  auto catalog = make_catalog();
  const auto q = Query().fp_contains("/p/scratch").calls({"read", "write", "openat"});
  const auto cached_first = catalog.report_html(q);
  const auto cached_again = catalog.report_html(q);
  EXPECT_EQ(cached_first.get(), cached_again.get());  // served from cache

  // A fresh catalog (nothing memoized) over the same inputs.
  auto cold = make_catalog();
  EXPECT_EQ(*cold.report_html(q), *cached_first);

  // And the staged oracle over Query::apply with the shared options —
  // what query_report's fold must reproduce.
  ThreadPool pool(2);
  const auto view = q.apply(pipeline::run(corpus_, pool, {}));
  const auto opts = query_report_options(q, cold.mapping());
  const auto data = testing::staged_report_data(view, cold.mapping(), opts);
  const dfg::StatisticsColoring styler(data.stats);
  EXPECT_EQ(report::render_report(data, cold.mapping(), &styler, opts), *cached_first);

  // Every artifact over trace files that warn (a malformed line, calls
  // never resumed) or fail (a directory named like a trace, a misnamed
  // file), loaded on 1 and 4 workers under fail fast and keep_going,
  // equals the staged oracle over pipeline::run's log and the artifact
  // of a catalog over the same files imported as a container.
  const std::string unresumed = write_file(
      "open_nodeD_1.st",
      "7  10:00:00.000100 read(3</p/data/f>, \"\"..., 512) = 512 <0.000040>\n"
      "7  10:00:00.000200 not_a_call_line\n"
      "7  10:00:00.000300 read(3</p/data/f>, <unfinished ...>\n");
  const std::string misnamed = write_file("no-trace-name.st", "");
  const std::string folder = (dir_ / "dir_nodeD_2.st").string();
  std::filesystem::create_directories(folder);
  std::vector<std::string> warned = corpus_;
  warned.insert(warned.begin() + 1, unresumed);
  std::vector<std::string> refused = warned;
  refused.insert(refused.begin() + 2, folder);
  refused.insert(refused.begin() + 4, misnamed);
  const std::vector<Query> queries = {Query(), q, Query().calls({"read"}),
                                      Query().between(36000000000, 36000040000)};
  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool_n(workers);
    for (const bool keep_going : {false, true}) {
      const std::string what =
          "workers " + std::to_string(workers) + (keep_going ? " keep_going" : "");
      CatalogOptions copts;
      copts.policy.keep_going = keep_going;
      pipeline::StreamOptions sopts;
      sopts.keep_going = keep_going;
      if (!keep_going) {
        for (const auto& defect : {folder, misnamed}) {
          std::vector<std::string> inputs = warned;
          inputs.insert(inputs.begin() + 3, defect);
          std::string expected;
          try {
            (void)pipeline::run(inputs, pool_n, {}, sopts);
          } catch (const Error& e) {
            expected = e.what();
          }
          ASSERT_FALSE(expected.empty()) << defect;
          Catalog strict(copts);
          try {
            strict.load(inputs, pool_n);
            ADD_FAILURE() << defect << " loaded, " << what;
          } catch (const Error& e) {
            EXPECT_EQ(std::string(e.what()), expected) << what;
          }
        }
      }
      const auto& inputs = keep_going ? refused : warned;
      const auto log = pipeline::run(inputs, pool_n, {}, sopts);
      const std::string imported = write_file("imported.elog", "");
      elog::write_event_log_v2_file(imported, log);
      Catalog traces(copts);
      traces.load(inputs, pool_n);
      Catalog container(copts);
      container.load({imported}, pool_n);
      EXPECT_EQ(traces.load_warnings(), log.warnings()) << what;
      EXPECT_EQ(traces.case_count(), log.case_count()) << what;
      EXPECT_EQ(traces.total_events(), log.total_events()) << what;
      const model::Mapping& f = traces.mapping();
      for (const auto& query : queries) {
        SCOPED_TRACE(what + " [" + query.describe() + "]");
        const auto view = query.apply(log);
        const auto selection = traces.filtered(query);
        for (const pipeline::CaseSource* source : selection->sources) {
          EXPECT_NE(dynamic_cast<const elog::ContainerCases::Selected*>(source), nullptr);
        }
        st::testing::expect_same_log(st::testing::decoded_log(selection->sources), view);
        st::testing::expect_same_log(st::testing::decoded_log(selection->sources),
                                     st::testing::decoded_log(container.filtered(query)->sources));
        EXPECT_EQ(*traces.graph(query), dfg::build_serial(view, f));
        EXPECT_EQ(*traces.graph(query), *container.graph(query));
        st::testing::expect_same_io_stats(*traces.io_stats(query),
                                          dfg::IoStatistics::compute(view, f));
        st::testing::expect_same_io_stats(*traces.io_stats(query), *container.io_stats(query));
        EXPECT_EQ(*traces.summaries(query), model::summarize_cases(view));
        EXPECT_EQ(*traces.summaries(query), *container.summaries(query));
        const auto query_opts = query_report_options(query, f);
        const auto staged = testing::staged_report_data(view, f, query_opts);
        const dfg::StatisticsColoring staged_styler(staged.stats);
        EXPECT_EQ(*traces.report_html(query),
                  report::render_report(staged, f, &staged_styler, query_opts));
        EXPECT_EQ(*traces.report_html(query), *container.report_html(query));
      }
    }
  }
}

TEST_F(CatalogTest, SingleFlightUnderStampede) {
  auto catalog = make_catalog();
  const auto q = Query().fp_contains("/p/data");
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const std::string>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] { results[i] = catalog.report_html(q); });
    }
    for (auto& t : threads) t.join();
  }
  // Everyone got the same object, and the report was computed ONCE.
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(results[0].get(), results[i].get());
  const auto s = catalog.cache_stats();
  // report -> filtered dependency: 2 distinct keys, each computed
  // exactly once regardless of the stampede (the report computes its
  // statistics itself, once). Hits: the other kThreads-1 requesters.
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST_F(CatalogTest, ConcurrentMixedAccessStaysCoherent) {
  // Small capacity forces concurrent insert/evict/lookup interleaving
  // — the TSan job runs this against the catalog's locking.
  auto catalog = make_catalog(/*capacity=*/3);
  const std::vector<Query> queries = {
      Query(),
      Query().fp_contains("/p/data"),
      Query().fp_contains("/p/scratch"),
      Query().calls({"read"}),
      Query().calls({"write", "openat"}),
      Query().between(36000000000, 36000040000),
  };
  constexpr int kThreads = 6;
  constexpr int kRounds = 12;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto& q = queries[static_cast<std::size_t>(t + r) % queries.size()];
        switch ((t + r) % 4) {
          case 0: EXPECT_NE(catalog.filtered(q), nullptr); break;
          case 1: EXPECT_NE(catalog.graph(q), nullptr); break;
          case 2: EXPECT_NE(catalog.summaries(q), nullptr); break;
          default: EXPECT_NE(catalog.io_stats(q), nullptr); break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Whatever the interleaving, capacity holds and each artifact equals
  // a cold recompute.
  const auto s = catalog.cache_stats();
  EXPECT_LE(s.entries, 3u);
  auto cold = make_catalog();
  for (const auto& q : queries) {
    const auto warm_view = catalog.filtered(q);
    const auto cold_view = cold.filtered(q);
    st::testing::expect_same_log(st::testing::decoded_log(warm_view->sources),
                                 st::testing::decoded_log(cold_view->sources));
    EXPECT_EQ(warm_view->total_events, cold_view->total_events);
  }
}

TEST_F(CatalogTest, FailuresAreNotCached) {
  CatalogOptions opts;
  Catalog catalog(opts);  // no load(): artifact computation must fail
  const auto q = Query().fp_contains("/p");
  EXPECT_THROW((void)catalog.filtered(q), LogicError);
  // The failed flight must not poison the key: after load, the same
  // query computes.
  ThreadPool pool(2);
  catalog.load(corpus_, pool);
  EXPECT_NE(catalog.filtered(q), nullptr);
}

// -- the serve loop over the catalog ---------------------------------

TEST_F(CatalogTest, HandleRequestEchoesCanonicalQueryAndFramesPayload) {
  auto catalog = make_catalog();
  const auto r = handle_request(catalog, "query   calls{write , read}  ");
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.header.find("\"verb\":\"query\""), std::string::npos) << r.header;
  EXPECT_NE(r.header.find("\"query\":\"calls{read,write}\""), std::string::npos) << r.header;
  EXPECT_NE(r.header.find("\"bytes\":" + std::to_string(r.payload.size())), std::string::npos)
      << r.header;
  EXPECT_EQ(r.payload, model::render_case_summaries(
                           *catalog.summaries(Query().calls({"read", "write"}))));
}

TEST_F(CatalogTest, HandleRequestRepliesGracefullyToBadInput) {
  auto catalog = make_catalog();
  const auto parse_error = handle_request(catalog, "query calls{read");
  ASSERT_FALSE(parse_error.ok);
  EXPECT_NE(parse_error.header.find("\"ok\":false"), std::string::npos);
  // Offsets are relative to the query text (what the client sent
  // after the verb): "calls{read" fails at its own byte 10.
  EXPECT_NE(parse_error.header.find("\"position\":10"), std::string::npos) << parse_error.header;
  EXPECT_TRUE(parse_error.payload.empty());

  const auto bad_verb = handle_request(catalog, "frobnicate all");
  ASSERT_FALSE(bad_verb.ok);
  EXPECT_NE(bad_verb.header.find("unknown verb"), std::string::npos) << bad_verb.header;

  // A failed request must not kill subsequent ones.
  EXPECT_TRUE(handle_request(catalog, "ping").ok);
}

TEST_F(CatalogTest, ServeLinesSpeaksTheFramedProtocol) {
  auto catalog = make_catalog();
  std::istringstream in("ping\nreport fp~/p/scratch\nshutdown\nquery all\n");
  std::ostringstream out;
  serve_lines(catalog, in, out);
  const std::string stream = out.str();

  // ping reply
  ASSERT_TRUE(stream.starts_with("{\"ok\":true,\"verb\":\"ping\",\"query\":\"\",\"bytes\":5}\n"));
  std::size_t pos = stream.find('\n') + 1;
  EXPECT_EQ(stream.substr(pos, 5), "pong\n");
  pos += 5;

  // report reply: header bytes N, then exactly N payload bytes that
  // equal the catalog's artifact.
  const auto expected = *catalog.report_html(Query::parse("fp~/p/scratch"));
  const std::size_t header_end = stream.find('\n', pos);
  const std::string header = stream.substr(pos, header_end - pos);
  EXPECT_NE(header.find("\"bytes\":" + std::to_string(expected.size())), std::string::npos)
      << header;
  EXPECT_EQ(stream.substr(header_end + 1, expected.size()), expected);

  // shutdown ends the session: the trailing "query all" is never
  // answered.
  EXPECT_TRUE(stream.ends_with("bye\n"));
  EXPECT_EQ(stream.find("\"verb\":\"query\""), std::string::npos);
}

TEST_F(CatalogTest, StatReportsCorpusAndCacheCounters) {
  auto catalog = make_catalog();
  (void)catalog.filtered(Query());  // one miss
  const auto r = handle_request(catalog, "stat");
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.payload.find("\"cases\":" + std::to_string(catalog.case_count()) +
                           ",\"events\":" + std::to_string(catalog.total_events())),
            std::string::npos)
      << r.payload;
  EXPECT_NE(r.payload.find("\"misses\":1"), std::string::npos) << r.payload;

  // With a query, the counts are the query's view's: Query::apply's.
  ThreadPool pool(2);
  const auto view = Query().calls({"read"}).apply(pipeline::run(corpus_, pool, {}));
  const auto rq = handle_request(catalog, "stat calls{read}");
  ASSERT_TRUE(rq.ok);
  EXPECT_EQ(rq.payload.rfind("{\"cases\":" + std::to_string(view.case_count()) +
                                ",\"events\":" + std::to_string(view.total_events()) + ",",
                            0),
            0u)
      << rq.payload;
}

// -- the TCP server ----------------------------------------------------

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) return fd;
  if (fd >= 0) ::close(fd);
  return -1;
}

void send_line(int fd, std::string_view bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// Reads until the reply ends with `suffix`, EOF, an error or the
/// socket's receive timeout.
std::string recv_until(int fd, std::string_view suffix) {
  std::string reply;
  char buf[256];
  while (!reply.ends_with(suffix)) {
    const auto n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  return reply;
}

/// A fresh client's ping, answered within 10 s — proof the server is
/// still serving.
std::string ping(std::uint16_t port) {
  const int fd = connect_local(port);
  if (fd < 0) return "connect failed";
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  send_line(fd, "ping\n");
  std::string reply = recv_until(fd, "pong\n");
  ::close(fd);
  return reply;
}

TEST_F(CatalogTest, ServerSurvivesAClientThatHangsUpMidReply) {
  auto catalog = make_catalog();
  Server server(catalog, 0);
  ThreadPool pool(2);
  std::thread accept_loop([&] { server.serve_forever(pool); });

  // Ask for reports, then reset the connection without reading a byte.
  // The server's first reply write fails with ECONNRESET; the next one,
  // for the pipelined second request, hits a closed socket, which
  // raises SIGPIPE unless the write suppresses it.
  const int rude = connect_local(server.port());
  ASSERT_GE(rude, 0);
  send_line(rude, "report all\nreport all\nreport all\n");
  const linger abort_on_close{1, 0};
  ::setsockopt(rude, SOL_SOCKET, SO_LINGER, &abort_on_close, sizeof abort_on_close);
  ::close(rude);

  // The process is still alive and a fresh client gets its pong.
  const std::string reply = ping(server.port());
  server.stop();
  accept_loop.join();
  EXPECT_TRUE(reply.starts_with("{\"ok\":true,\"verb\":\"ping\"")) << reply;
  EXPECT_TRUE(reply.ends_with("pong\n")) << reply;
}

TEST_F(CatalogTest, ServerRejectsAnOverlongRequestLine) {
  auto catalog = make_catalog();
  Server server(catalog, 0);
  ThreadPool pool(2);
  std::thread accept_loop([&] { server.serve_forever(pool); });

  // 128 KiB with no newline: the server must not buffer it forever but
  // answer with an error header and hang up.
  const int greedy = connect_local(server.port());
  ASSERT_GE(greedy, 0);
  const timeval timeout{5, 0};
  ::setsockopt(greedy, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(greedy, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  const std::string flood(128 * 1024, 'x');
  std::size_t sent = 0;
  while (sent < flood.size()) {  // the server may hang up before taking it all
    const auto n = ::send(greedy, flood.data() + sent, flood.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  const std::string rejection = recv_until(greedy, "}\n");
  ::close(greedy);

  // The overlong client cost the server nothing: the next one is served.
  const std::string reply = ping(server.port());
  server.stop();
  accept_loop.join();
  EXPECT_TRUE(rejection.starts_with("{\"ok\":false,\"error\":\"request line exceeds"))
      << rejection;
  EXPECT_TRUE(rejection.ends_with("}\n")) << rejection;
  EXPECT_TRUE(reply.ends_with("pong\n")) << reply;
}

}  // namespace
}  // namespace st::corpus
