// Neo4j-export format and an in-memory Neo4j-like store emulation.
//
// OPUS persists its Provenance Versioning Model graph in a Neo4j database;
// ProvMark's transformation stage for OPUS runs queries against that
// database to extract nodes and relationships. Here the database is
// emulated: recorder output is a Neo4j export document
//
//   { "nodes":        [ {"id": "...", "labels": ["..."],
//                        "properties": {...}}, ... ],
//     "relationships":[ {"id": "...", "start": "...", "end": "...",
//                        "type": "...", "properties": {...}}, ... ] }
//
// and `Neo4jStore` reproduces the *cost profile* the paper reports for
// OPUS transformation (one-time database/JVM startup plus per-query work,
// §5.1): opening a store builds label and property indices from scratch,
// and export queries walk those indices. The work performed is genuine
// (index construction over the stored data, repeated `startup_rounds`
// times to model JVM warm-up and page-cache population); no sleeps are
// involved. EXPERIMENTS.md discusses the calibration.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory_resource>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_view.h"
#include "graph/property_graph.h"

namespace provmark::formats {

/// Serialize a graph as a Neo4j export document, each element's
/// properties in key order with the last value of a repeated key winning.
std::string to_neo4j_json(const graph::GraphView& view);

/// to_neo4j_json(view_of(g)).
std::string to_neo4j_json(const graph::PropertyGraph& g);

/// Read a Neo4j export document into a view over `text`. Throws
/// std::runtime_error on malformed records and std::invalid_argument on
/// missing endpoints or an id clash. When `relationships` is given it is
/// set to whether the document has a `relationships` key (with `nodes`,
/// which a read requires, what detect_format takes for an export). The
/// view's lists and the reader's scratch draw from `memory`.
graph::GraphView neo4j_json_view(
    std::string_view text, bool* relationships = nullptr,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

/// neo4j_json_view(text), materialized.
graph::PropertyGraph from_neo4j_json(std::string_view text);

/// In-memory emulation of a Neo4j store with the OPUS access pattern.
class Neo4jStore {
 public:
  struct Options {
    /// Rounds of redundant index rebuilding performed at open() to model
    /// JVM startup + cold page cache. The default was calibrated so the
    /// OPUS transformation stage dominates its pipeline like Figure 6.
    int startup_rounds = 400;
  };

  Neo4jStore() : options_(Options{}) {}
  explicit Neo4jStore(Options options) : options_(options) {}

  /// Load a Neo4j export document into the store and build indices
  /// (the expensive step). The store reads the document in place: it
  /// must outlive the store and any view taken from it.
  void open(std::string_view export_json);

  /// open() for a document already read by neo4j_json_view. The store
  /// takes the view over, its memory resource included, and orders it in
  /// that resource; only the modeled indices are heap maps.
  void open(graph::GraphView export_view);

  /// Cypher-lite: `MATCH (n) RETURN n` — all nodes in label-index order
  /// (labels ascending, ids ascending within a label).
  std::vector<graph::Node> match_all_nodes() const;

  /// Cypher-lite: `MATCH ()-[r]->() RETURN r` — all relationships.
  std::vector<graph::Edge> match_all_relationships() const;

  /// Nodes carrying a given label (uses the label index).
  std::vector<graph::Node> match_nodes_by_label(
      const std::string& label) const;

  /// The stored graph as a view over the export document: nodes in
  /// match_all_nodes() order, relationships in match_all_relationships()
  /// order. No string is copied.
  const graph::GraphView& view() const& { return view_; }
  /// Moves the view out, for a caller that outlives the store.
  graph::GraphView view() && { return std::move(view_); }

  /// Full reconstruction of the stored graph through the query interface.
  graph::PropertyGraph export_graph() const;

  std::size_t node_count() const { return view_.nodes.size(); }
  std::size_t relationship_count() const { return view_.edges.size(); }

 private:
  void build_indices();

  Options options_;
  graph::GraphView view_;
  // Transparent comparators: looking a label or key up by view creates
  // no string, exactly as the lookups by std::string these maps were
  // calibrated with.
  std::map<std::string, std::vector<graph::Id>, std::less<>> label_index_;
  std::map<std::string, std::vector<graph::Id>, std::less<>>
      property_key_index_;
  std::uint64_t index_checksum_ = 0;  // forces the index work to be kept
};

}  // namespace provmark::formats
