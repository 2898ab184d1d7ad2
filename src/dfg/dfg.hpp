// The Directly-Follows-Graph (paper Sec. IV-A; Definition 4 of [13]).
//
// Nodes are activities plus the artificial start (●) and end (■)
// markers appended to every trace. An edge (a1, a2) exists iff a1
// immediately precedes a2 in some trace; its weight counts how many
// times that directly-follows relation was observed across the whole
// activity-log (traces weighted by their multiplicity).
//
// Dfg is an abelian monoid under merge() — the identity is the empty
// graph and weights add — which makes the parallel map-reduce
// construction (builder.hpp, refs [24][25]) correct by construction.
// Containers are ordered maps so iteration (and thus rendering) is
// deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "model/activity_log.hpp"

namespace st::dfg {

using model::Activity;

class Dfg {
 public:
  /// Reserved node names for the trace start/end markers.
  [[nodiscard]] static const Activity& start_node();
  [[nodiscard]] static const Activity& end_node();

  Dfg() = default;

  /// G[L_f(C)]: builds the graph from an activity log.
  [[nodiscard]] static Dfg build(const model::ActivityLog& log);

  /// Adds one trace observed `multiplicity` times.
  void add_trace(const model::ActivityTrace& trace, std::uint64_t multiplicity = 1);

  /// Monoid fold: adds all node/edge weights of `other` into *this.
  void merge(const Dfg& other);
  /// The same; takes `other` over whole when this graph is empty.
  void merge(Dfg&& other);

  /// Reconstructs a graph from its observable parts — the inverse of
  /// (nodes(), edges(), trace_count()), used by the shard partial
  /// codec. No validation: the codec's CRC guards the bytes.
  [[nodiscard]] static Dfg from_parts(std::map<Activity, std::uint64_t> nodes,
                                      std::map<std::pair<Activity, Activity>, std::uint64_t> edges,
                                      std::uint64_t trace_count);

  // -- queries ---------------------------------------------------------

  /// Activity nodes with their occurrence counts (start/end markers
  /// carry the number of traces).
  [[nodiscard]] const std::map<Activity, std::uint64_t>& nodes() const { return nodes_; }

  /// Directly-follows edges with observation counts.
  [[nodiscard]] const std::map<std::pair<Activity, Activity>, std::uint64_t>& edges() const {
    return edges_;
  }

  [[nodiscard]] bool has_node(const Activity& a) const { return nodes_.contains(a); }
  [[nodiscard]] bool has_edge(const Activity& from, const Activity& to) const {
    return edges_.contains({from, to});
  }
  [[nodiscard]] std::uint64_t node_count(const Activity& a) const;
  [[nodiscard]] std::uint64_t edge_count(const Activity& from, const Activity& to) const;

  /// Number of traces folded in (weight on the start marker).
  [[nodiscard]] std::uint64_t trace_count() const { return trace_count_; }

  /// Activities only (start/end markers excluded), ordered.
  [[nodiscard]] std::set<Activity> activities() const;

  [[nodiscard]] bool empty() const { return nodes_.empty() && trace_count_ == 0; }

  [[nodiscard]] bool operator==(const Dfg&) const = default;

 private:
  std::map<Activity, std::uint64_t> nodes_;
  std::map<std::pair<Activity, Activity>, std::uint64_t> edges_;
  std::uint64_t trace_count_ = 0;
};

}  // namespace st::dfg
