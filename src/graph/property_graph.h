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

  /// Remove a node and all incident edges. Returns false if absent.
  bool remove_node(const Id& id);

  /// Remove an edge. Returns false if absent.
  bool remove_edge(const Id& id);

  // -- access ---------------------------------------------------------------

  /// Live nodes/edges in insertion order. Removal tombstones elements and
  /// these accessors compact lazily, so a burst of k removals costs one
  /// O(V+E) compaction instead of k position-shift passes; with no
  /// pending removals they are plain O(1) reads (and therefore safe for
  /// concurrent readers — see compact_now()).
  ///
  /// Pointer invalidation: element pointers/references survive a
  /// remove_* of *other* elements (tombstones move nothing), but the
  /// deferred compaction — triggered by the *next* accessor call, even
  /// a const one like nodes() — slides survivors down and invalidates
  /// them then. Treat any call after a removal as invalidating, exactly
  /// as under the old erase-at-remove behaviour.
  const std::vector<Node>& nodes() const {
    compact();
    return nodes_;
  }
  const std::vector<Edge>& edges() const {
    compact();
    return edges_;
  }

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

  std::size_t node_count() const { return nodes_.size() - dead_nodes_; }
  std::size_t edge_count() const { return edges_.size() - dead_edges_; }
  /// Total elements, the size measure used when ranking similarity classes.
  std::size_t size() const { return node_count() + edge_count(); }
  bool empty() const { return node_count() == 0 && edge_count() == 0; }

  /// Flush pending removals now. Mutators and the accessors above do
  /// this automatically; call it explicitly before sharing the graph
  /// with concurrent readers, because lazy compaction inside a const
  /// accessor is not thread-safe while removals are pending.
  void compact_now() const { compact(); }

  /// Ids of edges whose source or target is `node_id`, in edge insertion
  /// order (self-loops appear once). O(degree): served from the
  /// incrementally maintained adjacency, not an edge scan.
  std::vector<Id> incident_edges(const Id& node_id) const;

  /// In/out degree of a node. O(1).
  std::size_t out_degree(const Id& node_id) const;
  std::size_t in_degree(const Id& node_id) const;

  /// Exact equality including ids (mostly for tests).
  bool operator==(const PropertyGraph& other) const;

 private:
  const Properties* element_props(const Id& id) const;
  Properties* element_props(const Id& id);
  /// Erase tombstoned elements, restoring the dense insertion-order
  /// vectors and their position indices in one pass. No-op (a pure read)
  /// when nothing is pending.
  void compact() const;

  // Storage is logically const-stable: removal tombstones an element and
  // the next access compacts, which rearranges representation but never
  // observable state — hence mutable members behind const accessors.
  mutable std::vector<Node> nodes_;
  mutable std::vector<Edge> edges_;
  // Index from id to position in nodes_/edges_. Positions stay valid
  // while tombstones are pending: nothing moves until compact(). Each
  // node's entry also holds its incremental adjacency, maintained by
  // add_edge/remove_edge: incident edge ids in insertion order
  // (self-loops once) plus degree counters. Hashed, because nothing
  // iterates these maps: iteration order comes from nodes_/edges_.
  struct NodeSlot {
    std::size_t pos = 0;
    std::vector<Id> incident;
    std::size_t in = 0;
    std::size_t out = 0;
  };
  mutable std::unordered_map<Id, NodeSlot> node_index_;
  mutable std::unordered_map<Id, std::size_t> edge_index_;
  // Tombstone flags parallel to nodes_/edges_, plus pending counts.
  mutable std::vector<char> node_dead_;
  mutable std::vector<char> edge_dead_;
  mutable std::size_t dead_nodes_ = 0;
  mutable std::size_t dead_edges_ = 0;
};

/// A renaming applied to every node/edge id (used to namespace trials).
PropertyGraph with_id_prefix(const PropertyGraph& g, std::string_view prefix);

}  // namespace provmark::graph
