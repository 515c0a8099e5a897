#include "graph/property_graph.h"

#include <stdexcept>

namespace provmark::graph {

Node& PropertyGraph::add_node(Id id, Label label, Properties props) {
  if (edge_index_.count(id) != 0 ||
      !node_index_.try_emplace(id, nodes_.size()).second) {
    throw std::invalid_argument("duplicate element id: " + id);
  }
  nodes_.push_back(Node{std::move(id), std::move(label), std::move(props)});
  return nodes_.back();
}

Edge& PropertyGraph::add_edge(Id id, Id src, Id tgt, Label label,
                              Properties props) {
  if (node_index_.count(id) != 0) {
    throw std::invalid_argument("duplicate element id: " + id);
  }
  auto [edge_it, inserted] = edge_index_.try_emplace(id, edges_.size());
  if (!inserted) throw std::invalid_argument("duplicate element id: " + id);
  bool has_src = node_index_.count(src) != 0;
  if (!has_src || node_index_.count(tgt) == 0) {
    edge_index_.erase(edge_it);
    throw std::invalid_argument(
        "edge " + id + ": missing " +
        (has_src ? "target node " + tgt : "source node " + src));
  }
  edges_.push_back(Edge{std::move(id), std::move(src), std::move(tgt),
                        std::move(label), std::move(props)});
  return edges_.back();
}

void PropertyGraph::set_property(const Id& element_id, const std::string& key,
                                 std::string value) {
  Properties* props = element_props(element_id);
  if (props == nullptr) {
    throw std::invalid_argument("no such element: " + element_id);
  }
  (*props)[key] = std::move(value);
}

const Node* PropertyGraph::find_node(const Id& id) const {
  auto it = node_index_.find(id);
  return it == node_index_.end() ? nullptr : &nodes_[it->second];
}

Node* PropertyGraph::find_node(const Id& id) {
  auto it = node_index_.find(id);
  return it == node_index_.end() ? nullptr : &nodes_[it->second];
}

const Edge* PropertyGraph::find_edge(const Id& id) const {
  auto it = edge_index_.find(id);
  return it == edge_index_.end() ? nullptr : &edges_[it->second];
}

Edge* PropertyGraph::find_edge(const Id& id) {
  auto it = edge_index_.find(id);
  return it == edge_index_.end() ? nullptr : &edges_[it->second];
}

std::optional<std::string> PropertyGraph::property(
    const Id& element_id, const std::string& key) const {
  const Properties* props = element_props(element_id);
  if (props == nullptr) return std::nullopt;
  auto it = props->find(key);
  if (it == props->end()) return std::nullopt;
  return it->second;
}

bool PropertyGraph::operator==(const PropertyGraph& other) const {
  return nodes_ == other.nodes_ && edges_ == other.edges_;
}

const Properties* PropertyGraph::element_props(const Id& id) const {
  if (const Node* n = find_node(id)) return &n->props;
  if (const Edge* e = find_edge(id)) return &e->props;
  return nullptr;
}

Properties* PropertyGraph::element_props(const Id& id) {
  if (Node* n = find_node(id)) return &n->props;
  if (Edge* e = find_edge(id)) return &e->props;
  return nullptr;
}

PropertyGraph with_id_prefix(const PropertyGraph& g, std::string_view prefix) {
  PropertyGraph out;
  for (const Node& n : g.nodes()) {
    out.add_node(std::string(prefix) + n.id, n.label, n.props);
  }
  for (const Edge& e : g.edges()) {
    out.add_edge(std::string(prefix) + e.id, std::string(prefix) + e.src,
                 std::string(prefix) + e.tgt, e.label, e.props);
  }
  return out;
}

}  // namespace provmark::graph
