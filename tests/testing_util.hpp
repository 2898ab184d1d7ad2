// Shared helpers for building small synthetic event logs in tests.
//
// Event string fields are std::string_views; hand-built test events
// intern their strings into a process-lifetime arena (test_arena), so
// the views outlive every log a test can construct and no test needs
// to thread ownership around.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dfg/dfg.hpp"
#include "model/event_log.hpp"
#include "model/mapped_case.hpp"
#include "model/mapping.hpp"
#include "pipeline/sink.hpp"
#include "strace/arena.hpp"

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

}  // namespace st::testing
