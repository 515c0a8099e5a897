#include "graph/property_graph.h"

#include <algorithm>
#include <stdexcept>

namespace provmark::graph {

Node& PropertyGraph::add_node(Id id, Label label, Properties props) {
  NodeSlot slot;
  slot.pos = nodes_.size();
  if (edge_index_.count(id) != 0 ||
      !node_index_.try_emplace(id, std::move(slot)).second) {
    throw std::invalid_argument("duplicate element id: " + id);
  }
  node_dead_.push_back(0);
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
  auto src_it = node_index_.find(src);
  auto tgt_it = node_index_.find(tgt);
  if (src_it == node_index_.end() || tgt_it == node_index_.end()) {
    edge_index_.erase(edge_it);
    throw std::invalid_argument(
        "edge " + id + ": missing " +
        (src_it == node_index_.end() ? "source node " + src
                                     : "target node " + tgt));
  }
  src_it->second.incident.push_back(id);
  if (tgt_it != src_it) tgt_it->second.incident.push_back(id);
  ++src_it->second.out;
  ++tgt_it->second.in;
  edge_dead_.push_back(0);
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

bool PropertyGraph::remove_node(const Id& id) {
  auto it = node_index_.find(id);
  if (it == node_index_.end()) return false;
  // Remove incident edges first; the adjacency list makes this O(degree)
  // instead of an O(E) edge scan. Copy it because remove_edge mutates it.
  std::vector<Id> incident = it->second.incident;
  for (const Id& edge_id : incident) {
    remove_edge(edge_id);
  }
  // Tombstone instead of erasing: no element moves, so every index
  // position stays valid and no per-removal position-shift pass runs.
  // The next accessor call compacts the whole batch in one pass.
  node_dead_[it->second.pos] = 1;
  ++dead_nodes_;
  node_index_.erase(it);
  return true;
}

bool PropertyGraph::remove_edge(const Id& id) {
  auto it = edge_index_.find(id);
  if (it == edge_index_.end()) return false;
  std::size_t pos = it->second;
  const Edge& edge = edges_[pos];
  NodeSlot& src = node_index_.at(edge.src);
  NodeSlot& tgt = node_index_.at(edge.tgt);
  auto unlink = [&](NodeSlot& slot) {
    slot.incident.erase(
        std::find(slot.incident.begin(), slot.incident.end(), id));
  };
  unlink(src);
  if (&tgt != &src) unlink(tgt);
  --src.out;
  --tgt.in;
  edge_dead_[pos] = 1;
  ++dead_edges_;
  edge_index_.erase(it);
  return true;
}

void PropertyGraph::compact() const {
  if (dead_nodes_ == 0 && dead_edges_ == 0) return;
  // One stable sweep per vector: surviving elements slide down in
  // insertion order and their index entries are rewritten as they move.
  if (dead_edges_ > 0) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < edges_.size(); ++r) {
      if (edge_dead_[r]) continue;
      if (w != r) {
        edges_[w] = std::move(edges_[r]);
        edge_index_.find(edges_[w].id)->second = w;
      }
      ++w;
    }
    edges_.resize(w);
    edge_dead_.assign(w, 0);
    dead_edges_ = 0;
  }
  if (dead_nodes_ > 0) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < nodes_.size(); ++r) {
      if (node_dead_[r]) continue;
      if (w != r) {
        nodes_[w] = std::move(nodes_[r]);
        node_index_.find(nodes_[w].id)->second.pos = w;
      }
      ++w;
    }
    nodes_.resize(w);
    node_dead_.assign(w, 0);
    dead_nodes_ = 0;
  }
}

const Node* PropertyGraph::find_node(const Id& id) const {
  auto it = node_index_.find(id);
  return it == node_index_.end() ? nullptr : &nodes_[it->second.pos];
}

Node* PropertyGraph::find_node(const Id& id) {
  auto it = node_index_.find(id);
  return it == node_index_.end() ? nullptr : &nodes_[it->second.pos];
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

std::vector<Id> PropertyGraph::incident_edges(const Id& node_id) const {
  auto it = node_index_.find(node_id);
  if (it == node_index_.end()) return {};
  return it->second.incident;
}

std::size_t PropertyGraph::out_degree(const Id& node_id) const {
  auto it = node_index_.find(node_id);
  return it == node_index_.end() ? 0 : it->second.out;
}

std::size_t PropertyGraph::in_degree(const Id& node_id) const {
  auto it = node_index_.find(node_id);
  return it == node_index_.end() ? 0 : it->second.in;
}

bool PropertyGraph::operator==(const PropertyGraph& other) const {
  compact();
  other.compact();
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
