// The request-stream file pb_client and pb_trace read: one request line
// per line, in stream order. Each connection takes the next request not
// yet sent once the reply to its previous one is in.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "support/errors.hpp"

/// The stream's request lines, in file order.
inline std::vector<std::string> read_requests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw st::IoError("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}
