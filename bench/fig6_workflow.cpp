// FIG6 — the st_inspector analysis workflow, step by step.
//
// The paper's Fig. 6 is a Python listing (steps 0-5 of the pipeline);
// this binary executes the equivalent C++ API calls and prints what
// each step produces, on the ls / ls -l event log:
//
//   0) event-log container          -> elog round trip
//   1) apply_fp_filter('/usr/lib')  -> EventLog::filter_fp / Query
//   2) mapping function f           -> Mapping (custom lambda, as in the listing)
//   3) DFG construction             -> dfg::build_serial
//   4) I/O statistics               -> IoStatistics::compute
//   5a) statistics-based coloring   -> StatisticsColoring + render
//   5b) partition-based coloring    -> PartitionEL + PartitionColoring
#include <iostream>
#include <sstream>

#include "dfg/builder.hpp"
#include "dfg/render.hpp"
#include "elog/v2_store.hpp"
#include "iosim/commands.hpp"
#include "support/strings.hpp"

int main() {
  using namespace st;
  // 0) The HDF5-like event-log container.
  const auto full_log = model::EventLog::merge(iosim::make_ls_traces().to_event_log(),
                                               iosim::make_ls_l_traces().to_event_log());
  std::ostringstream container(std::ios::binary);
  elog::write_event_log_v2(container, full_log);
  const std::size_t container_bytes = container.view().size();
  auto event_log = elog::read_event_log_v2(elog::MappedElog::from_buffer(
      std::make_shared<strace::TraceBuffer>(std::move(container).str())));
  std::cout << "0) event log: " << event_log.case_count() << " cases, "
            << event_log.total_events() << " events (" << container_bytes
            << " bytes in the container)\n";

  // 1) Filter the event log.
  event_log = event_log.filter_fp("/usr/lib");
  std::cout << "1) after apply_fp_filter('/usr/lib'): " << event_log.total_events()
            << " events\n";

  // 2) The mapping function of the listing: truncate the path to the
  //    top two directories and prepend the call name.
  const auto f = model::Mapping::custom("fig6", [](const model::Event& e) {
    return std::optional<model::Activity>(std::string(e.call) + "\n" + top_dirs(e.fp, 2));
  });
  std::cout << "2) mapping: " << f.name() << "\n";

  // 3) Construct the DFG.
  const auto dfg_graph = dfg::build_serial(event_log, f);
  std::cout << "3) DFG: " << dfg_graph.activities().size() << " activities, "
            << dfg_graph.edges().size() << " edges\n";

  // 4) Compute I/O statistics.
  const auto stats = dfg::IoStatistics::compute(event_log, f);
  std::cout << "4) statistics over " << stats.per_activity().size()
            << " activities, total I/O time " << stats.total_duration() << " us\n";

  // 5a) Statistics-based coloring.
  const dfg::StatisticsColoring blue(stats);
  std::cout << "5a) statistics-colored DFG:\n"
            << dfg::render_ascii(dfg_graph, &stats, &blue);

  // 5b) Partition-based coloring (ls vs ls -l).
  const auto [green_el, red_el] =
      event_log.partition([](const model::Case& c) { return c.id().cid == "a"; });
  const dfg::PartitionColoring partition(dfg::build_serial(green_el, f),
                                         dfg::build_serial(red_el, f));
  std::cout << "5b) partition-colored DFG:\n"
            << dfg::render_ascii(dfg_graph, &stats, &partition);
  return 0;
}
