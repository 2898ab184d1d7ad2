// Serve mode: the trace-query service in front of corpus::Catalog.
//
// Wire format (ndjson-framed request/response):
//   - a REQUEST is one line: `<verb> <query>` where <query> is the
//     canonical Query grammar (model/query.hpp) — lenient spellings
//     parse too, and the response echoes the canonical form;
//   - a RESPONSE is one JSON header line followed by exactly `bytes`
//     payload bytes (the artifact, verbatim — HTML, summary table,
//     diff listing...):
//       {"ok":true,"verb":"report","query":"fp~/p/scratch","bytes":123}
//       <123 bytes of payload>
//     errors reply instead of dying (keep-going as request policy):
//       {"ok":false,"error":"parse error: ... at offset 7","position":7}
//     and never carry a payload.
//
// Verbs:
//   ping                  liveness probe ("pong" payload)
//   describe <q>          parse + echo the canonical form (no compute)
//   query <q>             per-case summary table of the query's view —
//                         byte-identical to `trace_explorer --query <q>
//                         --render summary`
//   report <q>            the full HTML report — byte-identical to
//                         `trace_explorer --query <q> --render report`
//   diff <qa> :: <qb>     green/red/common partition of the two views'
//                         DFGs (deterministic text listing)
//   stat [<q>]            corpus + cache counters as one JSON line;
//                         with a query, counts the query's view
//   shutdown              end the session after replying "bye"
//
// serve_lines() is the transport-free core (one request line in, one
// framed response out) — the CI smoke drives it over stdio and cmp's
// payload bytes against the offline CLI. Server wraps the same
// handler in a localhost TCP accept loop; each connection speaks
// either raw ndjson or minimal HTTP/1.0 GET (/verb?q=<url-encoded>),
// detected per connection, with requests executed on the caller's
// ThreadPool.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "corpus/catalog.hpp"

namespace st {
class ThreadPool;
}

namespace st::corpus {

/// One handled request: `header` is the JSON line (no trailing
/// newline); `payload` is the verbatim artifact (empty on errors).
struct Response {
  bool ok = false;
  std::string header;
  std::string payload;
};

/// Parses and executes one request line against the catalog. Never
/// throws on request-shaped problems (bad verb, malformed query, data
/// errors) — those become ok=false replies, so one bad request cannot
/// take the service down. `shutdown` is signalled via the verb echoed
/// in the header; the loops below watch for it.
[[nodiscard]] Response handle_request(Catalog& catalog, std::string_view line);

/// The stdio/pipe transport: one request per input line until EOF or a
/// `shutdown` request. Responses are written as `header\n` + payload
/// (payload bytes verbatim, no extra framing), flushed per request.
void serve_lines(Catalog& catalog, std::istream& in, std::ostream& out);

/// Localhost TCP transport. Binds 127.0.0.1:`port` (0 = ephemeral;
/// port() reports the choice). serve_forever() accepts until stop() —
/// or a client's `shutdown` request — and runs each connection's
/// requests on `pool`. Connections speak ndjson by default; a first
/// line starting with "GET " switches the connection to one-shot
/// HTTP/1.0 (`GET /report?q=fp~%2Fp` — the query string is
/// percent-decoded, the reply is a proper HTTP response carrying the
/// payload only). A request line longer than 64 KiB gets an ok=false
/// reply (HTTP 400 on the HTTP path) and the connection is closed.
class Server {
 public:
  Server(Catalog& catalog, std::uint16_t port);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accept loop; returns after stop() (or a `shutdown` request).
  void serve_forever(ThreadPool& pool);

  /// Unblocks serve_forever from another thread. Idempotent.
  void stop();

 private:
  void handle_connection(int fd);

  Catalog& catalog_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
};

}  // namespace st::corpus
