// Bridge from the strace substrate to the event model: applies the
// attribute extraction rules of Sec. III to raw records.
//
//   - cid/host/rid come from the trace file name,
//   - size is parsed only for read/write variants, from the return
//     value (bytes actually transferred, not bytes requested),
//   - records without a duration get dur = 0,
//   - failed calls (retval < 0) carry size -1.
//
// Zero-copy contract: the produced Events hold string_views — call/fp
// point into the records' storage (TraceBuffer/arena), cid/host are
// interned once per case into the arena the caller passes (usually
// EventLog::arena()). event_log_from_files wires all of this up: it
// reads or maps the files, parses them with mixed per-file + intra-file
// parallelism on one shared pool, adopts every TraceBuffer into the
// returned log, and surfaces reader warnings via EventLog::warnings()
// prefixed with the originating path (ordered by file, then line).
#pragma once

#include <string>
#include <vector>

#include "model/event_log.hpp"
#include "strace/filename.hpp"
#include "strace/record.hpp"

namespace st::model {

/// Converts one record. Returns nullopt for non-syscall records
/// (signals/exits) — these are not events. The event's cid/host view
/// into `id`, call/fp into the record's storage: both must outlive the
/// event (case_from_records re-points cid/host at interned copies).
[[nodiscard]] std::optional<Event> event_from_record(const strace::TraceFileId& id,
                                                     const strace::RawRecord& rec);

/// Builds the case for one trace file's records (sorted by start).
/// cid/host are interned once into `arena`; call/fp stay views into
/// the records' storage. The caller owns keeping both alive — attach
/// the arena and the records' TraceBuffer to the destination EventLog
/// (arena()/adopt()).
[[nodiscard]] Case case_from_records(const strace::TraceFileId& id,
                                     const std::vector<strace::RawRecord>& records,
                                     strace::StringArena& arena);

/// Reads a set of trace files from disk into an event log. File names
/// must follow the cid_host_rid.st convention; files that do not parse
/// as such throw ParseError, and a case id named twice throws
/// LogicError (checked for every path before any I/O; first offender
/// in input order wins). Built on the streaming pipeline
/// (pipeline::run): files are read (up to one parse chunk) or mapped
/// and parsed with
/// mixed per-file + intra-file parallelism over `threads` workers
/// (0 = hardware concurrency), and each file's record -> Case
/// conversion runs on the pool thread that finished that file's parse
/// (per-file arenas adopted into the log), while case order, event
/// order and warning order stay identical to a single-worker build. Reader
/// warnings land in EventLog::warnings() deterministically ordered by
/// file then line, with identical consecutive messages collapsed to
/// the first occurrence.
[[nodiscard]] EventLog event_log_from_files(const std::vector<std::string>& paths,
                                            std::size_t threads = 0);

}  // namespace st::model
