#include "strace/writer.hpp"

#include <algorithm>

#include "support/timeparse.hpp"

namespace st::strace {

namespace {

void append_header(std::string& out, const RawRecord& rec) {
  out += std::to_string(rec.pid);
  out += "  ";
  out += format_time_of_day(rec.timestamp);
  out += ' ';
}

void append_result(std::string& out, const RawRecord& rec) {
  out += " = ";
  if (rec.retval) {
    out += std::to_string(*rec.retval);
  } else {
    out += '?';
  }
  if (!rec.errno_name.empty()) {
    out += ' ';
    out += rec.errno_name;
    out += " (interrupted)";
  }
  if (rec.duration) {
    out += " <";
    out += format_seconds(*rec.duration);
    out += '>';
  }
}

}  // namespace

std::string format_record(const RawRecord& rec) {
  std::string out;
  out.reserve(128);
  append_header(out, rec);
  switch (rec.kind) {
    case RecordKind::Signal:
      out += "--- ";
      out += rec.args;
      out += " ---";
      return out;
    case RecordKind::Exit:
      out += "+++ ";
      out += rec.args;
      out += " +++";
      return out;
    case RecordKind::Unfinished:
      out += rec.call;
      out += '(';
      out += rec.args;
      if (!rec.args.empty()) out += ", ";
      out += " <unfinished ...>";
      return out;
    case RecordKind::Resumed:
      out += "<... ";
      out += rec.call;
      out += " resumed> ";
      out += rec.args;
      out += ')';
      append_result(out, rec);
      return out;
    case RecordKind::Complete:
      out += rec.call;
      out += '(';
      out += rec.args;
      out += ')';
      append_result(out, rec);
      return out;
  }
  return out;
}

std::string format_trace(const std::vector<RawRecord>& records) {
  std::string out;
  for (const auto& rec : records) {
    out += format_record(rec);
    out += '\n';
  }
  return out;
}

std::string format_trace_interleaved(std::vector<RawRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const RawRecord& a, const RawRecord& b) { return a.timestamp < b.timestamp; });

  // A record splits iff another record from a different pid produces
  // an output line (its start, or its return when it itself splits)
  // strictly inside this record's span. Checking both endpoints is a
  // safe over-approximation: extra splits still parse back correctly.
  const auto must_split = [&records](std::size_t i) {
    const RawRecord& r = records[i];
    const Micros end = r.timestamp + r.duration.value_or(0);
    for (const RawRecord& other : records) {
      if (other.pid == r.pid) continue;
      const Micros other_end = other.timestamp + other.duration.value_or(0);
      if ((other.timestamp > r.timestamp && other.timestamp < end) ||
          (other_end > r.timestamp && other_end < end)) {
        return true;
      }
    }
    return false;
  };

  struct Line {
    Micros at;
    std::uint64_t seq;  // stable order for equal timestamps
    std::string text;
  };
  std::vector<Line> lines;
  lines.reserve(records.size());
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RawRecord& r = records[i];
    if (r.kind != RecordKind::Complete || !must_split(i)) {
      lines.push_back({r.timestamp, seq++, format_record(r)});
      continue;
    }
    // Split: the first argument (the -y fd annotation) stays on the
    // unfinished line; the remainder moves to the resumed line, where
    // the return value and duration are reported. head/tail view into
    // r.args, which outlives the formatting below.
    std::string_view head = r.args;
    std::string_view tail;
    if (const auto comma = r.args.find(','); comma != std::string_view::npos) {
      head = r.args.substr(0, comma);
      tail = r.args.substr(std::min(comma + 2, r.args.size()));  // skip ", "
    }
    RawRecord unfinished = r;
    unfinished.kind = RecordKind::Unfinished;
    unfinished.args = head;
    RawRecord resumed = r;
    resumed.kind = RecordKind::Resumed;
    resumed.args = tail;
    resumed.timestamp = r.timestamp + r.duration.value_or(0);
    lines.push_back({unfinished.timestamp, seq++, format_record(unfinished)});
    lines.push_back({resumed.timestamp, seq++, format_record(resumed)});
  }
  std::sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  });
  std::string out;
  for (const Line& line : lines) {
    out += line.text;
    out += '\n';
  }
  return out;
}

}  // namespace st::strace
