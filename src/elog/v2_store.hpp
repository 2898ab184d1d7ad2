// elog v2 store: write EventLogs into the columnar mmap format and
// open corpora with zero parse work (format spec: v2_format.hpp).
//
// The read side does no stream parsing: instead of re-materializing
// every string and column, open_v2 maps the file (TraceBuffer::from_file_mmap — the same owner the ingestion
// path uses) and reads ONLY the footer, the section table and the case
// directory. EventLog views are built lazily per case straight over
// the mapping: Event call/fp/cid/host are string_views into the mapped
// string pool, so "open and query a fleet of imported traces" costs
// microseconds instead of a reparse. Section CRCs are validated on
// demand, once, the first time a section is decoded; verify() runs the
// full pass. The buffer-lifetime contract from the ingestion layer
// carries over unchanged: a log built from a MappedElog adopts it, so
// views stay valid through arbitrary derivation chains.
//
// The write side is monoid-shaped like every other analytic:
// encode_case() builds a case's columns against a case-local
// dictionary on any thread, and ElogV2Writer::append_encoded() interns
// the local dictionary into the file-level pool and writes the
// sections — strictly in append order, so the streamed
// ElogV2WriterSink (fold = encode, absorb = append) produces a file
// byte-identical to a staged write_event_log_v2 at any worker count.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "elog/store.hpp"
#include "elog/v2_format.hpp"
#include "model/event_log.hpp"
#include "pipeline/sink.hpp"
#include "strace/trace_buffer.hpp"
#include "support/publish.hpp"

namespace st::elog {

/// One case, encoded against a case-local dictionary. Produced by
/// encode_case on any thread; consumed by ElogV2Writer::append_encoded
/// on the writer's thread. The string_views alias the case's storage —
/// whoever carries an EncodedCase across threads must also carry the
/// case's owners (ElogV2WriterSink keeps the arena and TraceBuffer in
/// its partial).
struct EncodedCase {
  /// Owned (not views): the CaseId they come from is moved into
  /// run()'s log, or freed, when the cursor absorbs the case, and SSO
  /// moves would dangle a view. The event-column views below point into the case's arena /
  /// TraceBuffer instead, which the partial keeps alive.
  std::string cid;
  std::string host;
  std::uint64_t rid = 0;
  std::uint64_t rows = 0;
  /// Local dictionary in first-use order (call, then fp, per event) —
  /// the same order a staged write interns, so streamed and staged
  /// files are byte-identical.
  std::vector<std::string_view> strings;
  std::string col_pid;    ///< rows x u64
  std::string col_call;   ///< rows x u32 LOCAL ids (remapped on append)
  std::string col_start;  ///< delta-encoded, per start_encoding
  std::string col_dur;    ///< rows x i64
  std::string col_fp;     ///< rows x u32 LOCAL ids (remapped on append)
  std::string col_size;   ///< rows x i64
  std::uint32_t start_encoding = kStartEncodingFixed;
  /// Zone-map ranges (inclusive; the defaults are the empty-range
  /// sentinels the format writes for a case with no events).
  std::int64_t min_start = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_start = std::numeric_limits<std::int64_t>::min();
  std::uint64_t min_pid = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_pid = 0;
  /// Distinct LOCAL ids appearing in col_call / col_fp, sorted
  /// ascending (remapped to file ids — and re-sorted, since interning
  /// does not preserve order — by append_encoded).
  std::vector<std::uint32_t> call_set;
  std::vector<std::uint32_t> fp_set;
};

/// Encodes one case's columns. Pure function of the case: delta-encodes
/// start (varint vs fixed chosen by encoded size), dictionary-encodes
/// call/fp against a local pool.
[[nodiscard]] EncodedCase encode_case(const model::Case& c);

struct ElogV2WriterOptions {
  /// Write the advisory index sections (zone maps, per-case call/fp id
  /// sets, the call posting list — v2_format.hpp kinds 9..12). false
  /// produces an index-free file every reader accepts; queries over it
  /// fall back to the column scan.
  bool write_index = true;
};

/// Streaming v2 writer: cases are appended one at a time; the string
/// pool, case directory, index sections and section table/footer are
/// written by finalize(). No seeking — any ostream works. The path
/// constructor writes a sibling temporary (support/publish.hpp) that
/// finalize() renames over `path`: a writer destroyed WITHOUT
/// finalize() removes it and leaves whatever `path` held untouched.
/// On the ostream constructor such a writer leaves a prefix with no
/// footer, which every reader rejects (IoError): partial writes cannot
/// be mistaken for corpora.
class ElogV2Writer {
 public:
  explicit ElogV2Writer(std::ostream& out, ElogV2WriterOptions opts = {});
  explicit ElogV2Writer(const std::string& path, ElogV2WriterOptions opts = {});
  ElogV2Writer(const ElogV2Writer&) = delete;
  ElogV2Writer& operator=(const ElogV2Writer&) = delete;
  ~ElogV2Writer() = default;

  void append(const model::Case& c);

  /// Interns `ec.strings` into the file-level pool (in local-id
  /// order), remaps the call/fp columns and writes the case's
  /// sections. Throws LogicError after finalize().
  void append_encoded(EncodedCase&& ec);

  /// Writes pool + directory + table + footer, then publishes the
  /// file of the path constructor. Idempotent.
  void finalize();

 private:
  void write_raw(std::string_view bytes);
  void add_section(SectionKind kind, std::uint32_t case_index, std::string_view payload,
                   std::uint32_t aux = 0);
  [[nodiscard]] std::uint32_t intern(std::string_view s);

  std::unique_ptr<PublishedFile> file_;  ///< the path ctor's output
  std::ostream* out_;
  std::uint64_t offset_ = 0;
  std::vector<SectionEntry> entries_;
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, std::uint32_t, SvHash, std::equal_to<>> pool_ids_;
  std::vector<std::string> pool_strings_;
  std::uint64_t pool_blob_bytes_ = 0;
  std::string directory_;
  std::size_t cases_ = 0;
  bool finalized_ = false;
  ElogV2WriterOptions opts_;
  // Index accumulators (write_index only). All derived deterministically
  // from the append order, so streamed and staged files stay identical.
  std::string zones_;                           ///< kZoneMap payload
  std::vector<std::uint32_t> call_set_ends_;    ///< cumulative, per case
  std::vector<std::uint32_t> call_set_ids_;
  std::vector<std::uint32_t> fp_set_ends_;
  std::vector<std::uint32_t> fp_set_ids_;
  std::map<std::uint32_t, std::vector<std::uint32_t>> postings_;  ///< call id -> case indices
};

/// Bulk writes (staged counterparts of the streamed sink path; the
/// bytes are identical for the same case sequence).
void write_event_log_v2(std::ostream& out, const model::EventLog& log,
                        ElogV2WriterOptions opts = {});
void write_event_log_v2_file(const std::string& path, const model::EventLog& log,
                             ElogV2WriterOptions opts = {});

/// An open v2 corpus: the mapped bytes plus the decoded section table
/// and case directory — O(sections) open work, no per-event parsing.
/// Thread-safe for concurrent reads (lazy CRC validation uses atomic
/// per-section flags); always lives behind the shared_ptr its
/// factories return so EventLogs can adopt it.
class MappedElog {
 public:
  /// Opens a corpus over any byte owner (open_v2 maps a file; tests
  /// and benchmarks wrap in-memory bytes). Validates the
  /// footer, section table and case directory; throws IoError on any
  /// structural defect.
  [[nodiscard]] static std::shared_ptr<MappedElog> from_buffer(
      std::shared_ptr<strace::TraceBuffer> buffer);

  [[nodiscard]] std::size_t case_count() const { return cases_.size(); }
  [[nodiscard]] std::uint64_t total_events() const { return total_rows_; }
  [[nodiscard]] model::CaseId case_id(std::size_t i) const;
  [[nodiscard]] std::uint64_t case_rows(std::size_t i) const;

  /// Materializes one case lazily: event string fields are views into
  /// the mapped pool (zero copies). The case's sections (and the pool)
  /// are CRC-validated on first touch; corruption throws IoError. The
  /// returned Case is valid while this MappedElog lives — adopt() it
  /// into any log that escapes.
  [[nodiscard]] model::Case case_at(std::size_t i) const;

  /// case_at(i) into `out`, reusing its event storage, with the
  /// (call id, fp id) pool-id pair of each of its events, in event
  /// order, in `pairs` (key: call id << 32 | fp id). Same checks, same
  /// errors.
  void case_at(std::size_t i, model::Case& out, std::vector<std::uint64_t>& pairs) const;

  /// Every check case_at(i) makes, in its order — so it throws the
  /// IoError case_at would — without materializing an event; appends
  /// the pool-id pair of each row, in row order, to `pairs`.
  void check_case(std::size_t i, std::vector<std::uint64_t>& pairs) const;

  /// Full integrity pass: every section CRC plus zero inter-section
  /// padding, so all file bytes are covered — including the structural
  /// invariants of any index sections present. Throws IoError.
  void verify() const;

  // -- index + raw-column access (elog/v2_select) ----------------------

  /// One case's zone-map entry (inclusive ranges; min > max marks a
  /// case with no events).
  struct ZoneMap {
    std::int64_t min_start = 0;
    std::int64_t max_start = 0;
    std::uint64_t min_pid = 0;
    std::uint64_t max_pid = 0;
  };

  /// Validated pointers into whichever index sections the file carries
  /// (null/zero when a section is absent — each prune step of the
  /// planner is independently optional). Returned by index_view().
  struct IndexView {
    const char* zones = nullptr;          ///< case_count x 32 bytes
    const char* call_ends = nullptr;      ///< u32[case_count], cumulative
    const char* call_ids = nullptr;       ///< sorted distinct ids per case
    const char* fp_ends = nullptr;
    const char* fp_ids = nullptr;
    std::uint32_t posting_keys = 0;
    const char* posting_table = nullptr;  ///< (u32 call_id, u32 end)[keys]
    const char* posting_cases = nullptr;  ///< sorted case indices

    [[nodiscard]] ZoneMap zone(std::size_t case_index) const;
  };

  /// True when the file carries any of the index sections.
  [[nodiscard]] bool has_index() const;

  /// CRC-validates and structurally validates the present index
  /// sections (once; later calls only re-check the cheap CRC flags)
  /// and returns pointers into them. A present-but-corrupt index is an
  /// IoError — the advisory rule covers ABSENCE only, never silently
  /// wrong pruning.
  [[nodiscard]] IndexView index_view() const;

  /// Directory ids of one case (for dictionary-id case predicates —
  /// no string compare, no pool touch).
  [[nodiscard]] std::uint32_t case_cid_id(std::size_t i) const;
  [[nodiscard]] std::uint32_t case_host_id(std::size_t i) const;

  /// CRC-validated raw pointers to one case's six columns, for
  /// predicate evaluation directly over the encoded data. Lifetime and
  /// validation contract identical to case_at.
  struct ColumnView {
    std::uint64_t rows = 0;
    const char* pid = nullptr;    ///< rows x u64
    const char* call = nullptr;   ///< rows x u32 pool ids
    const char* start = nullptr;  ///< delta-encoded per start_encoding
    std::uint64_t start_len = 0;
    std::uint32_t start_encoding = kStartEncodingFixed;
    const char* dur = nullptr;    ///< rows x i64
    const char* fp = nullptr;     ///< rows x u32 pool ids
    const char* size = nullptr;   ///< rows x i64
  };
  [[nodiscard]] ColumnView case_columns(std::size_t i) const;

  // -- observability (elog_tool stat) ----------------------------------
  [[nodiscard]] std::uint64_t file_size() const { return file_.size(); }
  [[nodiscard]] const std::vector<SectionEntry>& sections() const { return entries_; }
  [[nodiscard]] std::uint32_t pool_count() const { return pool_count_; }
  [[nodiscard]] std::uint64_t pool_blob_bytes() const { return pool_blob_len_; }
  [[nodiscard]] std::string_view pool_string(std::uint32_t id) const;
  [[nodiscard]] bool is_mapped() const;
  [[nodiscard]] std::string_view file_bytes() const { return file_; }

 private:
  MappedElog() = default;
  void validate_section(std::size_t index) const;
  /// case_at's decode: validates case i's sections and strings and
  /// writes its rows into `events` (when kEvents) and their pool-id
  /// pairs into `pairs` (when kPairs). Returns the case's id.
  template <bool kEvents, bool kPairs>
  model::CaseId decode(std::size_t i, std::vector<model::Event>* events,
                       std::vector<std::uint64_t>* pairs) const;
  void validate_index_structure(const IndexView& iv) const;

  /// Per-case references into entries_ (indexes of the six column
  /// sections, in kind order ColPid..ColSize).
  struct CaseRef {
    std::uint32_t cid_id = 0;
    std::uint32_t host_id = 0;
    std::uint64_t rid = 0;
    std::uint64_t rows = 0;
    std::uint32_t col[6] = {};
  };

  std::shared_ptr<strace::TraceBuffer> buffer_;
  std::string_view file_;
  std::vector<SectionEntry> entries_;
  std::vector<CaseRef> cases_;
  std::uint64_t total_rows_ = 0;
  std::size_t pool_section_ = 0;
  std::uint32_t pool_count_ = 0;
  const char* pool_ends_ = nullptr;
  const char* pool_blob_ = nullptr;
  std::uint64_t pool_blob_len_ = 0;
  /// Index section indices into entries_ (kNoSection sentinel absent).
  std::uint32_t zone_section_ = 0xFFFFFFFFu;
  std::uint32_t callset_section_ = 0xFFFFFFFFu;
  std::uint32_t fpset_section_ = 0xFFFFFFFFu;
  std::uint32_t posting_section_ = 0xFFFFFFFFu;
  /// Lazily-set CRC flags, one per section. Racing validations of the
  /// same section both compute the same CRC — benign, and atomic so
  /// concurrent readers stay clean under TSan.
  mutable std::unique_ptr<std::atomic<bool>[]> validated_;
  /// One-shot flag for the O(index bytes) structural pass of
  /// index_view(); racing validators recompute the same answer.
  mutable std::atomic<bool> index_checked_{false};
};

/// `out` = Case(id, events), which sorts the events by start: `pairs`, one per event, alike.
void assemble_case(model::CaseId id, std::vector<model::Event> events,
                   std::vector<std::uint64_t>& pairs, model::Case& out);

/// Maps `path` (read fallback where mmap is unavailable) and opens it.
[[nodiscard]] std::shared_ptr<MappedElog> open_v2(const std::string& path);

/// Materializes every case into an EventLog that adopts `mapped`, so
/// the log stands alone like any other ingested log. opts.keep_going
/// == true: a case whose sections fail CRC (or decode) is quarantined
/// with a "case N (id) quarantined: ..." warning on the returned log
/// instead of aborting the read; false: the first IoError propagates.
/// The cases decode in order and fail fast stops at the first failure,
/// so the section CRCs are validated in a fixed order (the "elog.crc"
/// fault point counts on it).
[[nodiscard]] model::EventLog read_event_log_v2(std::shared_ptr<MappedElog> mapped,
                                                const ElogReadOptions& opts = {});

/// read_event_log_v2's rule for case i of `mapped` failing with
/// `error`: fail fast (or anything but an IoError) rethrows it;
/// keep_going returns the case's quarantine warning, "case N (id)
/// quarantined: <error>" (the id is left out when the pool holding it
/// is itself corrupt).
[[nodiscard]] std::string quarantine_warning(const MappedElog& mapped, std::size_t i,
                                             const std::exception_ptr& error,
                                             const RunPolicy& policy);

/// CaseSink writing elog v2 in the same streamed pipeline::ingest pass as
/// any other analytic: fold() encodes the case's columns on the pool
/// thread (carrying the case's owners in the partial), absorb() appends
/// to the writer strictly in input order at the merge cursor, while
/// later files still parse; merge() has nothing left to do. The caller
/// finalizes (publishes) the writer after a successful run; after a
/// failed one the writer is destroyed unfinalized, which removes its
/// temporary and leaves the destination as it was.
class ElogV2WriterSink final : public pipeline::CaseSink {
 public:
  explicit ElogV2WriterSink(ElogV2Writer& writer) : writer_(&writer) {}

  [[nodiscard]] std::unique_ptr<pipeline::SinkPartial> make_partial() const override;
  void fold(pipeline::SinkPartial& p, const pipeline::CaseContext& ctx) const override;
  void absorb(pipeline::SinkPartial& acc,
              std::unique_ptr<pipeline::SinkPartial> p) const override;
  void merge(std::unique_ptr<pipeline::SinkPartial> acc) override;

 private:
  ElogV2Writer* writer_;
};

}  // namespace st::elog
