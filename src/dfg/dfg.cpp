#include "dfg/dfg.hpp"

#include <utility>

#include "model/mapped_case.hpp"

namespace st::dfg {

const Activity& Dfg::start_node() {
  static const Activity kStart(model::kStartActivity);  // ● BLACK CIRCLE
  return kStart;
}

const Activity& Dfg::end_node() {
  static const Activity kEnd(model::kEndActivity);  // ■ BLACK SQUARE
  return kEnd;
}

Dfg Dfg::build(const model::ActivityLog& log) {
  Dfg g;
  for (const auto& [trace, multiplicity] : log.variants()) {
    g.add_trace(trace, multiplicity);
  }
  return g;
}

void Dfg::add_trace(const model::ActivityTrace& trace, std::uint64_t multiplicity) {
  if (multiplicity == 0) return;
  trace_count_ += multiplicity;
  nodes_[start_node()] += multiplicity;
  nodes_[end_node()] += multiplicity;
  const Activity* prev = &start_node();
  for (const Activity& a : trace) {
    nodes_[a] += multiplicity;
    edges_[{*prev, a}] += multiplicity;
    prev = &a;
  }
  edges_[{*prev, end_node()}] += multiplicity;
}

void Dfg::merge(const Dfg& other) {
  for (const auto& [node, count] : other.nodes_) nodes_[node] += count;
  for (const auto& [edge, count] : other.edges_) edges_[edge] += count;
  trace_count_ += other.trace_count_;
}

void Dfg::merge(Dfg&& other) {
  if (empty()) {
    *this = std::move(other);
    return;
  }
  merge(other);
}

Dfg Dfg::from_parts(std::map<Activity, std::uint64_t> nodes,
                    std::map<std::pair<Activity, Activity>, std::uint64_t> edges,
                    std::uint64_t trace_count) {
  Dfg g;
  g.nodes_ = std::move(nodes);
  g.edges_ = std::move(edges);
  g.trace_count_ = trace_count;
  return g;
}

std::uint64_t Dfg::node_count(const Activity& a) const {
  const auto it = nodes_.find(a);
  return it == nodes_.end() ? 0 : it->second;
}

std::uint64_t Dfg::edge_count(const Activity& from, const Activity& to) const {
  const auto it = edges_.find({from, to});
  return it == edges_.end() ? 0 : it->second;
}

std::set<Activity> Dfg::activities() const {
  std::set<Activity> out;
  for (const auto& [node, count] : nodes_) {
    if (node != start_node() && node != end_node()) out.insert(node);
  }
  return out;
}

}  // namespace st::dfg
