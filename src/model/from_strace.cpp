#include "model/from_strace.hpp"

#include <utility>

#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"

namespace st::model {

std::optional<Event> event_from_record(const strace::TraceFileId& id,
                                       const strace::RawRecord& rec) {
  if (rec.kind != strace::RecordKind::Complete) return std::nullopt;
  Event e;
  e.cid = id.cid;
  e.host = id.host;
  e.rid = id.rid;
  e.pid = rec.pid;
  e.call = rec.call;
  e.start = rec.timestamp;
  e.dur = rec.duration.value_or(0);
  e.fp = rec.path;
  // Transfer size: return value, and only for data-moving calls
  // (Sec. III rule 6). Failed calls carry no size.
  if (rec.is_data_transfer() && rec.retval && *rec.retval >= 0) {
    e.size = *rec.retval;
  } else {
    e.size = -1;
  }
  return e;
}

Case case_from_records(const strace::TraceFileId& id,
                       const std::vector<strace::RawRecord>& records,
                       strace::StringArena& arena) {
  // One interned copy of cid/host serves every event of the case — the
  // old per-event heap strings were the model layer's dominant cost.
  const std::string_view cid = arena.intern(id.cid);
  const std::string_view host = arena.intern(id.host);
  std::vector<Event> events;
  events.reserve(records.size());
  for (const auto& rec : records) {
    if (auto e = event_from_record(id, rec)) {
      e->cid = cid;
      e->host = host;
      events.push_back(*e);
    }
  }
  return Case(CaseId{id.cid, id.host, id.rid}, std::move(events));
}

EventLog event_log_from_files(const std::vector<std::string>& paths, std::size_t threads) {
  // pipeline::run with no sinks: each file's record -> Case conversion
  // runs on the pool thread that finished that file's parse; name
  // validation and error determinism live in the pipeline core.
  ThreadPool pool(threads);
  return pipeline::run(paths, pool, {});
}

}  // namespace st::model
