// Property graphs: the uniform representation at the heart of ProvMark.
//
// Following Section 3.3 of the paper, a property graph is
//   G = (V, E, src, tgt, lab, prop)
// where V and E are disjoint identifier sets, src/tgt map edges to their
// endpoint nodes, lab maps every node and edge to a label, and prop is a
// partial map from (node-or-edge, key) to a string value.
//
// All four pipeline stages (recording output, transformation,
// generalization, comparison) and both matcher problems operate on this
// type. Identifiers are strings because each recorder mints its own id
// scheme (audit event ids, Neo4j node ids, CamFlow "cf:id" values).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace provmark::graph {

using Id = std::string;
using Label = std::string;
/// Ordered key->value map; ordering makes serialization deterministic.
using Properties = std::map<std::string, std::string>;

struct Node {
  Id id;
  Label label;
  Properties props;

  bool operator==(const Node&) const = default;
};

struct Edge {
  Id id;
  Id src;  ///< source node id
  Id tgt;  ///< target node id
  Label label;
  Properties props;

  bool operator==(const Edge&) const = default;
};

/// A directed labelled multigraph with node/edge properties.
///
/// Invariants: node and edge ids are unique within their kind and disjoint
/// across kinds; every edge's src/tgt refers to an existing node. Mutators
/// enforce these and throw std::invalid_argument on violation.
class PropertyGraph {
 public:
  PropertyGraph() = default;

  // -- construction ---------------------------------------------------------

  /// Add a node; throws if the id is already used by any node or edge.
  Node& add_node(Id id, Label label, Properties props = {});

  /// Add an edge between existing nodes; throws if the edge id is taken or
  /// either endpoint is missing.
  Edge& add_edge(Id id, Id src, Id tgt, Label label, Properties props = {});

  /// Set (or overwrite) a property on an existing node or edge.
  void set_property(const Id& element_id, const std::string& key,
                    std::string value);

  // -- access ---------------------------------------------------------------

  /// Nodes/edges in insertion order.
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }

  const Node* find_node(const Id& id) const;
  const Edge* find_edge(const Id& id) const;
  Node* find_node(const Id& id);
  Edge* find_edge(const Id& id);

  bool has_element(const Id& id) const {
    return find_node(id) != nullptr || find_edge(id) != nullptr;
  }

  /// Property lookup on either a node or an edge; nullopt when undefined.
  std::optional<std::string> property(const Id& element_id,
                                      const std::string& key) const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edges_.size(); }
  /// Total elements, the size measure used when ranking similarity classes.
  std::size_t size() const { return node_count() + edge_count(); }
  bool empty() const { return nodes_.empty() && edges_.empty(); }

  /// Exact equality including ids (mostly for tests).
  bool operator==(const PropertyGraph& other) const;

 private:
  const Properties* element_props(const Id& id) const;
  Properties* element_props(const Id& id);

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  // Index from id to position in nodes_/edges_. Hashed, because nothing
  // iterates these maps: iteration order comes from nodes_/edges_.
  std::unordered_map<Id, std::size_t> node_index_;
  std::unordered_map<Id, std::size_t> edge_index_;
};

/// A renaming applied to every node/edge id (used to namespace trials).
PropertyGraph with_id_prefix(const PropertyGraph& g, std::string_view prefix);

}  // namespace provmark::graph
