// A reusable interned snapshot of one matching operand.
//
// PR 1 moved the matcher's inner loop onto graph::CompactGraph, but every
// best_isomorphism / best_subgraph_embedding / similar call still rebuilt
// the snapshot (and re-interned every string) for both operands. The
// pipeline poses O(trials²) matcher calls over the *same* trial graphs —
// similarity classification alone compares each new trial against every
// class representative, every retry round — so the interning work was
// repeated per call.
//
// InternedGraph lifts the snapshot across those call boundaries: intern a
// trial once, against a SymbolTable shared by the whole pipeline run, and
// pass the result to any number of matcher calls. Two InternedGraphs are
// only comparable when built against the same SymbolTable (symbols are
// table-relative); the matcher entry points check this.
//
// The pipeline builds each trial's InternedGraph straight from the
// GraphView its reader made of the native document; the PropertyGraph
// constructor routes a string graph (a generalized graph, a test's
// graph) through the same builder.
//
// The builder also computes what the similarity search would otherwise
// recompute on every call: the label histograms, 2-round WL colours and
// colour-class sizes.
//
// Matching results are independent of interning order: the engine only
// ever compares symbols for equality and hashes them via the cached
// per-string FNV-1a hash, so a trial interned first or twentieth matches
// bit-identically (the legacy-equivalence test keeps this honest).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/compact.h"
#include "graph/graph_view.h"
#include "graph/property_graph.h"

namespace provmark::matcher {

/// An edge group: all edges sharing (src, tgt, label) are structurally
/// interchangeable; only their property costs differ.
struct EdgeGroup {
  std::uint32_t src;  ///< node index
  std::uint32_t tgt;
  graph::Symbol label;
  /// True for exactly one group per (src,tgt) pair, so pair-level checks
  /// run once even when the pair has several labels.
  bool pair_representative;
  std::vector<std::uint32_t> edges;  ///< edge indices, insertion order
};

/// CompactGraph plus the group-level adjacency the search operates on.
/// Lifetimes follow CompactGraph: the SymbolTable and the storage the
/// view's ids point into (native document and view arena, or the source
/// PropertyGraph) must outlive this object.
struct InternedGraph {
  graph::CompactGraph g;
  std::vector<EdgeGroup> groups;
  /// (src<<32|tgt) -> group indices for that node pair (one per label).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
      groups_by_pair;
  /// Per node: groups whose src or tgt is that node.
  std::vector<std::vector<std::uint32_t>> groups_of_node;

  /// (label, count) over nodes and over edges, sorted by label symbol:
  /// two graphs can only be similar when both histograms are equal.
  std::vector<std::pair<graph::Symbol, std::uint32_t>> node_label_counts;
  std::vector<std::pair<graph::Symbol, std::uint32_t>> edge_label_counts;
  /// Per node: its colour after two WL rounds, and how many nodes of this
  /// graph share that colour.
  std::vector<std::uint64_t> wl2;
  std::vector<std::uint32_t> colour_class_size;

  InternedGraph(const graph::GraphView& view, graph::SymbolTable& symbols);
  /// Through view_of(graph); `graph` must outlive this object unmutated.
  InternedGraph(const graph::PropertyGraph& graph,
                graph::SymbolTable& symbols);

  /// graph::structural_digest of the graph: one more WL round over wl2.
  std::uint64_t structural_digest() const;

  static std::uint64_t pair_key(std::uint32_t s, std::uint32_t t) {
    return (static_cast<std::uint64_t>(s) << 32) | t;
  }

  const std::vector<std::uint32_t>* pair_groups(std::uint32_t s,
                                                std::uint32_t t) const {
    auto it = groups_by_pair.find(pair_key(s, t));
    return it == groups_by_pair.end() ? nullptr : &it->second;
  }

  /// Edge list of the (s,t,label) group, or nullptr when absent.
  const std::vector<std::uint32_t>* group_edges(std::uint32_t s,
                                                std::uint32_t t,
                                                graph::Symbol label) const;
};

}  // namespace provmark::matcher
