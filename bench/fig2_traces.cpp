// FIG2 — regenerates the strace traces of Fig. 2.
//
// Prints the `ls` trace of rid 9042 (Fig. 2a) and the `ls -l` trace of
// rid 9157 (Fig. 2b) in strace's own output format, then demonstrates
// the simultaneous-multiprocessing case of Fig. 2c: an unfinished/
// resumed pair and its merge.
#include <iostream>
#include <string>

#include "iosim/commands.hpp"
#include "strace/parser.hpp"
#include "strace/writer.hpp"

int main() {
  using namespace st;

  const auto ca = iosim::make_ls_traces();
  const auto cb = iosim::make_ls_l_traces();

  std::cout << "=== Fig. 2a: trace file a_host1_9042.st (ls) ===\n"
            << strace::format_trace(ca.traces.front().records) << "\n";
  std::cout << "=== Fig. 2b: trace file b_host1_9157.st (ls -l) ===\n"
            << strace::format_trace(cb.traces.front().records) << "\n";

  std::cout << "=== Fig. 2c: unfinished/resumed records and their merge ===\n";
  const std::string unfinished =
      "77423  16:56:40.452431 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, "
      "<unfinished ...>";
  const std::string resumed =
      "77423  16:56:40.452660 <... read resumed> ..., 405) = 404 <0.000223>";
  std::cout << unfinished << "\n" << resumed << "\n";

  strace::ResumeMerger merger;
  std::string problem;
  (void)merger.feed(*strace::parse_line(unfinished), problem);
  const auto merged = merger.feed(*strace::parse_line(resumed), problem);
  std::cout << "merged -> " << strace::format_record(*merged) << "\n";
  std::cout << "         (start kept from the unfinished record, duration/"
               "transfer size from the resumed record)\n";
  return 0;
}
