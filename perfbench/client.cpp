// pb_client: the serve_mix load generator. N TCP connections, each on
// its own thread, share one request stream in a closed loop: a
// connection sends the next request not yet sent once the last payload
// byte of its previous reply has arrived, and that interval is the
// request's latency. So the block ends when the stream drains, not when
// the slowest of N fixed shares of it does.
//
//   pb_client --port P --connections N --requests F --out R
//
// F holds one request line per line. R gets one line per request, in
// stream order, "<index> <latency_ns> <ok> <bytes> <crc32>", where
// latency_ns is -1 for a request whose connection dropped or that was
// never sent (a connection stops at its first drop); `stat` replies
// also carry their payload, whose cache counters change between
// replies. A last line "busy_ns <n>" gives the wall-clock from the
// first request to the last reply.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "support/cli.hpp"
#include "support/crc32.hpp"
#include "support/errors.hpp"
#include "requests.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Result {
  std::int64_t latency_ns = -1;
  bool ok = false;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  std::string stat_payload;
};

/// One connection: buffered reads of framed replies (header line, then
/// exactly `bytes` payload bytes).
class Connection {
 public:
  explicit Connection(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw st::IoError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      throw st::IoError("cannot connect to 127.0.0.1:" + std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request and reads its whole reply; false if the
  /// connection dropped or the reply is malformed.
  bool request(const std::string& line, Result& r) {
    const std::string out = line + "\n";
    const auto t0 = Clock::now();
    for (std::size_t off = 0; off < out.size();) {
      const auto n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    std::string header;
    if (!read_line(header)) return false;
    r.ok = header.starts_with("{\"ok\":true");
    const auto pos = header.find("\"bytes\":");
    if (r.ok && pos == std::string::npos) return false;
    r.bytes = r.ok ? std::stoull(header.substr(pos + 8)) : 0;
    st::Crc32 crc;
    const bool stat = line.starts_with("stat");
    for (std::uint64_t left = r.bytes; left > 0;) {
      if (pos_ == buf_.size() && !fill()) return false;
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(left, buf_.size() - pos_));
      crc.update(buf_.data() + pos_, take);
      if (stat) r.stat_payload.append(buf_, pos_, take);
      pos_ += take;
      left -= take;
    }
    r.crc = crc.value();
    r.latency_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    return true;
  }

 private:
  bool fill() {
    buf_.erase(0, pos_);
    pos_ = 0;
    char chunk[65536];
    for (;;) {
      const auto n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  }

  bool read_line(std::string& line) {
    for (;;) {
      const auto nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      if (!fill()) return false;
    }
  }

  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  st::CliParser cli;
  cli.add_flag("port", "server port on 127.0.0.1", std::nullopt);
  cli.add_flag("connections", "connections sharing the stream", "4");
  cli.add_flag("requests", "request lines, in stream order", std::nullopt);
  cli.add_flag("out", "per-request results", std::nullopt);
  try {
    cli.parse(argc, argv);
    if (!cli.has("port") || !cli.has("requests") || !cli.has("out")) {
      throw st::ParseError("usage: pb_client --port P --connections N --requests F --out R");
    }
    const auto lines = read_requests(cli.get("requests"));
    const auto port = static_cast<std::uint16_t>(cli.get_int("port"));
    const auto connections = cli.get_int("connections");
    if (connections < 1) throw st::ParseError("pb_client: --connections must be at least 1");
    std::vector<std::unique_ptr<Connection>> sockets;
    for (std::int64_t c = 0; c < connections; ++c) {
      sockets.push_back(std::make_unique<Connection>(port));
    }
    std::vector<Result> results(lines.size());
    std::atomic<std::size_t> next{0};
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> threads;  // joined on every exit path
      for (auto& socket : sockets) {
        threads.emplace_back([&] {
          for (std::size_t i = next++; i < lines.size(); i = next++) {
            if (!socket->request(lines[i], results[i])) {
              results[i].latency_ns = -1;
              break;
            }
          }
        });
      }
    }
    const auto busy =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    std::ofstream out(cli.get("out"), std::ios::trunc);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      out << i << ' ' << r.latency_ns << ' ' << (r.ok ? 1 : 0) << ' ' << r.bytes << ' ' << r.crc;
      if (!r.stat_payload.empty()) out << ' ' << r.stat_payload;  // ends in '\n'
      else out << '\n';
    }
    out << "busy_ns " << busy << "\n";
    if (!out.flush()) throw st::IoError("cannot write " + cli.get("out"));
  } catch (const st::Error& e) {
    std::cerr << "pb_client: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "pb_client: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
