// A reusable interned snapshot of one matching operand.
//
// The pipeline poses O(trials²) matcher calls over the *same* trial
// graphs: similarity classification compares each new trial against every
// class representative, every retry round. So a trial is interned once,
// against a SymbolTable shared by the whole pipeline run, and the
// InternedGraph goes to any number of matcher calls. Two InternedGraphs are
// only comparable when built against the same SymbolTable (symbols are
// table-relative); the matcher entry points check this.
//
// What is interned when, and why: the matcher reads properties only
// for costed searches, and the pipeline poses those for few trials. The
// GraphView constructor therefore interns the structure only: ids,
// labels, CSR adjacency, label buckets, edge groups, label histograms,
// 2-round WL colours and colour-class sizes, everything similar() and
// the structural digest read. Properties follow in an explicit
// g.intern_properties() step, which the pipeline runs for exactly the
// trials a generalization reads (a class's chosen pair, two of
// CamFlow's sixteen trials per variant). A costed search (OneSided or
// Symmetric) on an operand whose properties are not interned throws
// std::logic_error; a CostModel::None search never reads them. The
// PropertyGraph constructor does both steps, so a string graph (a test's
// graph) is always fully interned. A generalized graph is neither: it is
// a trial's InternedGraph copied with some properties dropped.
//
// Every table here is flat: edge groups keep their edges in one array,
// and the per-node and per-pair group lists are CSR arrays, so building
// a snapshot makes a few vectors, not one per group or node.
//
// Memory: every table, the CompactGraph's included, draws from the
// memory resource of the view it was built from, and so does the
// build's scratch. On the pipeline's path that is the read trial's
// region, owned by core::TrialSet with the trial's document and view:
// interning a trial, its properties later included, makes no heap
// allocation of its own, and the snapshot dies with its region. An
// operand built from a PropertyGraph uses the heap. A copy (the
// generalized graph generalize_pair makes) goes to the heap and
// outlives the region; its id views still need the trial's document.
//
// Matching results are independent of interning order: the engine only
// ever compares symbols for equality and hashes them via the cached
// per-string FNV-1a hash, so a trial interned first or twentieth matches
// bit-identically (the legacy-equivalence test keeps this honest).
#pragma once

#include <cstdint>
#include <memory_resource>
#include <span>
#include <utility>
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
  /// The group's edges are InternedGraph::grouped_edges[first, first +
  /// count), ascending.
  std::uint32_t first;
  std::uint32_t count;
};

/// CompactGraph plus the group-level adjacency the search operates on.
/// Lifetimes follow CompactGraph: the SymbolTable, the storage the
/// view's ids point into (native document and view arena, or the source
/// PropertyGraph) and the memory resource the tables draw from must
/// outlive this object.
struct InternedGraph {
  graph::CompactGraph g;
  /// Groups numbered by first appearance in edge order.
  std::pmr::vector<EdgeGroup> groups;
  std::pmr::vector<std::uint32_t> grouped_edges;
  /// Per source node s: its groups, sorted by (tgt, label), are
  /// src_groups[src_group_offsets[s] .. src_group_offsets[s+1]).
  std::pmr::vector<std::uint32_t> src_group_offsets;
  std::pmr::vector<std::uint32_t> src_groups;
  /// Per node v: the groups whose src or tgt is v, ascending, are
  /// node_groups[node_group_offsets[v] .. node_group_offsets[v+1]).
  std::pmr::vector<std::uint32_t> node_group_offsets;
  std::pmr::vector<std::uint32_t> node_groups;

  /// (label, count) over nodes and over edges, sorted by label symbol:
  /// two graphs can only be similar when both histograms are equal.
  std::pmr::vector<std::pair<graph::Symbol, std::uint32_t>> node_label_counts;
  std::pmr::vector<std::pair<graph::Symbol, std::uint32_t>> edge_label_counts;
  /// Per node: its colour after two WL rounds, and how many nodes of this
  /// graph share that colour.
  std::pmr::vector<std::uint64_t> wl2;
  std::pmr::vector<std::uint32_t> colour_class_size;

  /// The structure of `view`, without properties, in the view's memory
  /// resource.
  InternedGraph(const graph::GraphView& view, graph::SymbolTable& symbols);
  /// Structure and properties, through view_of(graph); `graph` must
  /// outlive this object unmutated.
  InternedGraph(const graph::PropertyGraph& graph,
                graph::SymbolTable& symbols);

  /// graph::structural_digest of the graph: one more WL round over wl2,
  /// its scratch drawn from `scratch`.
  std::uint64_t structural_digest(
      std::pmr::memory_resource* scratch =
          std::pmr::get_default_resource()) const;

  std::span<const std::uint32_t> edges_of(const EdgeGroup& group) const {
    return {grouped_edges.data() + group.first, group.count};
  }

  std::span<const std::uint32_t> groups_of_node(std::uint32_t v) const {
    return {node_groups.data() + node_group_offsets[v],
            node_groups.data() + node_group_offsets[v + 1]};
  }

  /// Groups of the (s,t) node pair, one per label, sorted by label.
  std::span<const std::uint32_t> pair_groups(std::uint32_t s,
                                             std::uint32_t t) const;

  /// Edge list of the (s,t,label) group; empty when absent.
  std::span<const std::uint32_t> group_edges(std::uint32_t s,
                                             std::uint32_t t,
                                             graph::Symbol label) const;

 private:
  InternedGraph(const graph::GraphView& view, graph::SymbolTable& symbols,
                bool with_properties);
};

}  // namespace provmark::matcher
