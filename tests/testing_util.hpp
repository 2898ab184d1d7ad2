// Shared helpers for building small synthetic event logs in tests.
//
// Event string fields are std::string_views; hand-built test events
// intern their strings into a process-lifetime arena (test_arena), so
// the views outlive every log a test can construct and no test needs
// to thread ownership around.
#pragma once

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dfg/dfg.hpp"
#include "model/event_log.hpp"
#include "model/mapped_case.hpp"
#include "model/mapping.hpp"
#include "pipeline/sink.hpp"
#include "strace/arena.hpp"
#include "support/errors.hpp"

namespace st::testing {

/// Process-lifetime arena backing the string fields of hand-built test
/// events. Never freed (tests exit anyway); single-threaded use only.
inline strace::StringArena& test_arena() {
  static strace::StringArena arena;
  return arena;
}

/// Interns `s` for the remaining lifetime of the test process.
inline std::string_view intern(std::string_view s) { return test_arena().intern(s); }

/// Compact event builder: ev("read", "/usr/lib/x/y.so", start, dur, size).
inline model::Event ev(std::string_view call, std::string_view fp, Micros start, Micros dur,
                       std::int64_t size = -1) {
  model::Event e;
  e.cid = "t";
  e.host = "host1";
  e.rid = 1;
  e.pid = 100;
  e.call = intern(call);
  e.fp = intern(fp);
  e.start = start;
  e.dur = dur;
  e.size = size;
  return e;
}

inline model::Case make_case(std::string cid, std::uint64_t rid, std::vector<model::Event> events,
                             std::string host = "host1") {
  const std::string_view cid_view = intern(cid);
  const std::string_view host_view = intern(host);
  for (auto& e : events) {
    e.cid = cid_view;
    e.host = host_view;
    e.rid = rid;
    e.pid = rid + 12;
  }
  return model::Case(model::CaseId{std::move(cid), std::move(host), rid}, std::move(events));
}

/// The mappings the map-once sinks are held to their string oracles
/// under: the seven registry names, plus
///   "filtered"  top2 restricted to paths containing /p/scratch;
///   "markers"   reads named like the DFG's start marker, writes like
///               its end marker, every other event by its call — they
///               must merge with the markers, as strings do;
///   "none"      maps no event.
inline std::vector<std::string> mappings_under_test() {
  return {"top1", "top2", "last1", "last2", "call", "site", "site1", "filtered", "markers", "none"};
}

inline model::Mapping mapping_under_test(const std::string& name) {
  if (name == "filtered") return model::mapping_by_name("top2").filtered_fp("/p/scratch");
  if (name == "markers") {
    return model::Mapping::custom("markers", [](const model::Event& e) {
      if (e.call == "read") return model::Activity(model::kStartActivity);
      if (e.call.find("write") != std::string_view::npos) return model::Activity(model::kEndActivity);
      return model::Activity(e.call);
    });
  }
  if (name == "none") {
    return model::Mapping::custom(
        "none", [](const model::Event&) -> std::optional<model::Activity> { return std::nullopt; });
  }
  return model::mapping_by_name(name);
}

/// The Dfg monoid as pipeline::DfgSink drives it, without the pool: the
/// cases split into `groups` contiguous runs, each run mapped into its
/// own activity dictionary, folded into its own partial and sealed, the
/// partials merged in input order.
inline dfg::Dfg dfg_via_sink(const model::EventLog& log, const model::Mapping& f,
                             std::size_t groups) {
  pipeline::DfgSink sink(f);
  const std::shared_ptr<strace::StringArena> no_arena;
  const std::shared_ptr<strace::TraceBuffer> no_buffer;
  const auto cases = log.cases();
  const std::size_t per_group = std::max<std::size_t>(1, (cases.size() + groups - 1) / groups);
  for (std::size_t lo = 0; lo < cases.size(); lo += per_group) {
    model::ActivityDict dict;
    model::MappedCase mapped;
    auto partial = sink.make_partial();
    for (std::size_t i = lo; i < std::min(cases.size(), lo + per_group); ++i) {
      model::map_case(cases[i], f, dict, mapped);
      sink.fold(*partial, {cases[i], no_arena, no_buffer, &mapped, &dict});
    }
    sink.seal(*partial, &dict);
    sink.merge(std::move(partial));
  }
  return sink.take_graph();
}

/// Throws while folding any case whose cid is poisoned, and counts
/// merges so tests can assert that failing runs never merge anything.
/// A `data_error` sink throws an IoError, which keep_going
/// quarantines; otherwise a std::runtime_error, which fails any run.
class ThrowingSink final : public pipeline::CaseSink {
 public:
  explicit ThrowingSink(std::set<std::string> poisoned, bool data_error = false)
      : poisoned_(std::move(poisoned)), data_error_(data_error) {}

  std::unique_ptr<pipeline::SinkPartial> make_partial() const override {
    return std::make_unique<pipeline::SinkPartial>();
  }
  void fold(pipeline::SinkPartial&, const pipeline::CaseContext& ctx) const override {
    if (!poisoned_.contains(ctx.c.id().cid)) return;
    const std::string what = "sink poisoned on " + ctx.c.id().cid;
    if (data_error_) throw IoError(what);
    throw std::runtime_error(what);
  }
  void absorb(pipeline::SinkPartial&, std::unique_ptr<pipeline::SinkPartial>) const override {}
  void merge(std::unique_ptr<pipeline::SinkPartial>) override { ++merges_; }

  [[nodiscard]] int merges() const { return merges_; }

 private:
  std::set<std::string> poisoned_;
  bool data_error_;
  int merges_ = 0;
};

/// tests/data/legacy_index.elog: `elog_tool import` of three short
/// traces (c0_node0_1, c1_node1_2 and c2_node2_3: 23 events of openat,
/// read, lseek, write, pwrite64 and close under /p/scratch, /p/data
/// and /dev/pts), written by a build that still wrote the retired query
/// index, so it carries one section of each reserved kind 9..12 after
/// its case directory.
inline std::string legacy_index_elog() {
  std::ifstream in(ST_TEST_DATA_DIR "/legacy_index.elog", std::ios::binary);
  if (!in) throw IoError("cannot open tests/data/legacy_index.elog");
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace st::testing
