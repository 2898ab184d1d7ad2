// Shared helpers for building small synthetic event logs in tests.
//
// Event string fields are std::string_views; hand-built test events
// intern their strings into a process-lifetime arena (test_arena), so
// the views outlive every log a test can construct and no test needs
// to thread ownership around.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dfg/dfg.hpp"
#include "model/event_log.hpp"
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

/// The Dfg monoid as pipeline::DfgSink drives it, without the pool: the
/// cases split into `groups` contiguous runs, each run folded into its
/// own partial, the partials merged in input order.
inline dfg::Dfg dfg_via_sink(const model::EventLog& log, const model::Mapping& f,
                             std::size_t groups) {
  pipeline::DfgSink sink(f);
  const std::shared_ptr<strace::StringArena> no_arena;
  const std::shared_ptr<strace::TraceBuffer> no_buffer;
  const auto cases = log.cases();
  const std::size_t per_group = std::max<std::size_t>(1, (cases.size() + groups - 1) / groups);
  for (std::size_t lo = 0; lo < cases.size(); lo += per_group) {
    auto partial = sink.make_partial();
    for (std::size_t i = lo; i < std::min(cases.size(), lo + per_group); ++i) {
      sink.fold(*partial, {cases[i], no_arena, no_buffer});
    }
    sink.merge(std::move(partial));
  }
  return sink.take_graph();
}

}  // namespace st::testing
