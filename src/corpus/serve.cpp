#include "corpus/serve.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "dfg/diff.hpp"
#include "parallel/thread_pool.hpp"
#include "support/errors.hpp"
#include "support/strings.hpp"

namespace st::corpus {
namespace {

/// Minimal JSON string escaping for the header line (quotes,
/// backslashes and control bytes; everything else passes through).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      static const char* hex = "0123456789abcdef";
      out += "\\u00";
      out += hex[u >> 4];
      out += hex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

Response ok_response(std::string_view verb, const std::string& canonical, std::string payload) {
  Response r;
  r.ok = true;
  r.header = "{\"ok\":true,\"verb\":\"" + std::string(verb) + "\",\"query\":\"" +
             json_escape(canonical) + "\",\"bytes\":" + std::to_string(payload.size()) + "}";
  r.payload = std::move(payload);
  return r;
}

Response error_response(std::string_view what, std::optional<std::size_t> position = {}) {
  Response r;
  r.ok = false;
  r.header = "{\"ok\":false,\"error\":\"" + json_escape(what) + "\"";
  if (position) r.header += ",\"position\":" + std::to_string(*position);
  r.header += "}";
  return r;
}

/// Activities may embed newlines (call\npath); flatten for the
/// line-oriented diff listing.
std::string flat(const model::Activity& a) {
  std::string out = a;
  std::replace(out.begin(), out.end(), '\n', ' ');
  return out;
}

std::string render_diff(const dfg::GraphDiff& d) {
  std::ostringstream out;
  const auto nodes = [&](const char* label, const std::set<model::Activity>& set) {
    out << label << " nodes (" << set.size() << "):\n";
    for (const auto& a : set) out << "  " << flat(a) << "\n";
  };
  const auto edges = [&](const char* label, const std::set<dfg::GraphDiff::Edge>& set) {
    out << label << " edges (" << set.size() << "):\n";
    for (const auto& [from, to] : set) out << "  " << flat(from) << " -> " << flat(to) << "\n";
  };
  nodes("green", d.green_nodes());
  nodes("red", d.red_nodes());
  nodes("common", d.common_nodes());
  edges("green", d.green_edges());
  edges("red", d.red_edges());
  edges("common", d.common_edges());
  return std::move(out).str();
}

std::string render_stat(const Catalog& catalog, std::size_t cases, std::uint64_t events) {
  const CacheStats s = catalog.cache_stats();
  std::ostringstream out;
  out << "{\"cases\":" << cases << ",\"events\":" << events << ",\"cache\":{\"hits\":" << s.hits
      << ",\"misses\":" << s.misses << ",\"evictions\":" << s.evictions
      << ",\"entries\":" << s.entries << "}}\n";
  return std::move(out).str();
}

}  // namespace

Response handle_request(Catalog& catalog, std::string_view line) {
  try {
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) return error_response("empty request");
    const auto space = trimmed.find(' ');
    const std::string_view verb = trimmed.substr(0, space);
    const std::string_view arg =
        space == std::string_view::npos ? std::string_view{} : trim(trimmed.substr(space + 1));

    if (verb == "ping") return ok_response("ping", "", "pong\n");
    if (verb == "shutdown") return ok_response("shutdown", "", "bye\n");
    if (verb == "describe") {
      const auto q = model::Query::parse(arg);
      return ok_response("describe", q.describe(), q.describe() + "\n");
    }
    if (verb == "query") {
      const auto q = model::Query::parse(arg);
      return ok_response("query", q.describe(),
                         model::render_case_summaries(*catalog.summaries(q)));
    }
    if (verb == "report") {
      const auto q = model::Query::parse(arg);
      return ok_response("report", q.describe(), *catalog.report_html(q));
    }
    if (verb == "diff") {
      const auto sep = arg.find(" :: ");
      if (sep == std::string_view::npos) {
        return error_response("diff takes two queries: diff <green> :: <red>");
      }
      const auto qa = model::Query::parse(arg.substr(0, sep));
      const auto qb = model::Query::parse(arg.substr(sep + 4));
      const auto ga = catalog.graph(qa);
      const auto gb = catalog.graph(qb);
      return ok_response("diff", qa.describe() + " :: " + qb.describe(),
                         render_diff(dfg::GraphDiff(*ga, *gb)));
    }
    if (verb == "stat") {
      if (arg.empty()) {
        return ok_response("stat", "",
                           render_stat(catalog, catalog.case_count(), catalog.total_events()));
      }
      const auto q = model::Query::parse(arg);
      const auto view = catalog.filtered(q);
      return ok_response("stat", q.describe(),
                         render_stat(catalog, view->case_count, view->total_events));
    }
    return error_response("unknown verb (ping/describe/query/report/diff/stat/shutdown): " +
                          std::string(verb));
  } catch (const model::QueryParseError& e) {
    return error_response(e.what(), e.position());
  } catch (const Error& e) {
    return error_response(e.what());
  } catch (const std::exception& e) {
    return error_response(std::string("internal error: ") + e.what());
  }
}

void serve_lines(Catalog& catalog, std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (trim(line).empty()) continue;
    const Response r = handle_request(catalog, line);
    out << r.header << '\n' << r.payload << std::flush;
    if (r.ok && r.header.find("\"verb\":\"shutdown\"") != std::string::npos) break;
  }
}

// -- TCP transport ---------------------------------------------------

namespace {

/// MSG_NOSIGNAL: a client that hangs up mid-reply costs an EPIPE here,
/// not a SIGPIPE that would terminate the whole server.
void write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const auto n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // client went away; nothing useful to do
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Longest request line the server buffers. A client that sends more
/// without a newline gets an error reply and is disconnected, so one
/// connection cannot grow the server's memory without bound.
constexpr std::size_t kMaxRequestLine = 64 * 1024;

Response overlong_response() {
  return error_response("request line exceeds " + std::to_string(kMaxRequestLine) + " bytes");
}

/// Buffered line reads over a socket.
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  /// False at EOF, on a read error, or once a line outgrows
  /// kMaxRequestLine (then overlong() is true).
  bool getline(std::string& line) {
    line.clear();
    for (;;) {
      const auto nl = buf_.find('\n', pos_);
      if ((nl == std::string::npos ? buf_.size() : nl) - pos_ > kMaxRequestLine) {
        overlong_ = true;
        return false;
      }
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[4096];
      const auto n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        if (!buf_.empty()) {  // final unterminated line
          line = std::exchange(buf_, {});
          return true;
        }
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  [[nodiscard]] bool overlong() const { return overlong_; }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
  bool overlong_ = false;
};

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() && hex_value(s[i + 1]) >= 0 &&
               hex_value(s[i + 2]) >= 0) {
      out += static_cast<char>((hex_value(s[i + 1]) << 4) | hex_value(s[i + 2]));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

/// "GET /report?q=fp~%2Fp HTTP/1.1" -> the ndjson request line.
std::string request_from_http(std::string_view request_line) {
  std::string_view rest = request_line.substr(4);  // past "GET "
  const auto sp = rest.find(' ');
  if (sp != std::string_view::npos) rest = rest.substr(0, sp);
  if (!rest.empty() && rest.front() == '/') rest.remove_prefix(1);
  const auto qm = rest.find('?');
  std::string verb(rest.substr(0, qm));
  if (verb.empty()) verb = "stat";
  std::string arg;
  if (qm != std::string_view::npos) {
    for (const auto param : split(rest.substr(qm + 1), '&')) {
      if (param.starts_with("q=")) arg = url_decode(param.substr(2));
    }
  }
  return arg.empty() ? verb : verb + " " + arg;
}

}  // namespace

Server::Server(Catalog& catalog, std::uint16_t port) : catalog_(catalog) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw IoError("serve: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    throw IoError("serve: cannot bind 127.0.0.1:" + std::to_string(port));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

Server::~Server() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::stop() {
  if (!stopping_.exchange(true) && listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
  }
}

void Server::serve_forever(ThreadPool& pool) {
  std::vector<std::future<void>> connections;
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // stop() shut the listener down (or it genuinely failed)
    }
    // Reap finished connections so a long-lived server's bookkeeping
    // stays bounded by its live connections, not its lifetime total.
    std::erase_if(connections, [](const std::future<void>& c) {
      return c.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    connections.push_back(pool.submit([this, fd] { handle_connection(fd); }));
  }
  for (auto& c : connections) c.wait();  // drain in-flight requests
}

void Server::handle_connection(int fd) {
  FdLineReader reader(fd);
  std::string line;
  if (!reader.getline(line)) {
    if (reader.overlong()) write_all(fd, overlong_response().header + "\n");
    ::close(fd);
    return;
  }
  if (line.starts_with("GET ")) {
    // One-shot HTTP/1.0: drain the request headers, answer, close.
    std::string header_line;
    while (reader.getline(header_line) && !header_line.empty()) {
    }
    const Response r =
        reader.overlong() ? overlong_response() : handle_request(catalog_, request_from_http(line));
    const std::string_view body = r.ok ? std::string_view(r.payload) : std::string_view(r.header);
    std::string http = r.ok ? "HTTP/1.0 200 OK\r\n" : "HTTP/1.0 400 Bad Request\r\n";
    http += r.ok && r.header.find("\"verb\":\"report\"") != std::string::npos
                ? "Content-Type: text/html; charset=utf-8\r\n"
                : "Content-Type: text/plain; charset=utf-8\r\n";
    http += "Content-Length: " + std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
    http += body;
    write_all(fd, http);
    ::close(fd);
    if (r.ok && r.header.find("\"verb\":\"shutdown\"") != std::string::npos) stop();
    return;
  }
  // ndjson session: one request per line until EOF or shutdown.
  for (;;) {
    if (!trim(line).empty()) {
      const Response r = handle_request(catalog_, line);
      write_all(fd, r.header + "\n" + r.payload);
      if (r.ok && r.header.find("\"verb\":\"shutdown\"") != std::string::npos) {
        ::close(fd);
        stop();
        return;
      }
    }
    if (!reader.getline(line)) {
      if (reader.overlong()) write_all(fd, overlong_response().header + "\n");
      break;
    }
  }
  ::close(fd);
}

}  // namespace st::corpus
