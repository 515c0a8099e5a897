// Interned, cache-friendly form of one trial graph.
//
// The matcher's inner loop compares labels, degrees and property sets
// millions of times; doing that through string-keyed std::maps dominates
// the generalization and comparison stages (Figures 5-10). This layer
// interns every label, property key and property value into a dense
// uint32 Symbol via a SymbolTable shared between the graphs being
// matched, and builds a CompactGraph from a graph::GraphView:
//
//   * node/edge labels as Symbols,
//   * CSR in/out adjacency with O(1) degree lookup,
//   * label-bucketed node lists for candidate generation, as one flat
//     array sorted by (label, node),
//   * element ids as string views, for naming elements in results,
//   * on request, per-element properties as (key,value) Symbol pairs
//     sorted by key, in one flat array with per-element offsets, so a
//     property-mismatch count is a linear merge with no allocation.
//
// build() interns the structure; properties are a separate step,
// intern_properties(), because most trials are only ever compared for
// shape (similarity classification ignores properties) and interning
// their properties would cost as much as the rest of the graph. The
// pipeline hands build() the view a reader made of a native document;
// graph::view_of(PropertyGraph) routes a string graph (a test's graph)
// through it, and resolve_graph() goes back to strings. A CompactGraph is
// read-only once built (apart from that one property step). Its labels
// and properties live in the SymbolTable, which must outlive it. Its id
// views point where the GraphView's ids point (the native document, the
// view's arena, or a PropertyGraph's strings), so that storage must
// outlive it too; the GraphView object itself may go once the properties
// are interned.
//
// Its arrays draw from the view's memory resource. On the pipeline's
// path that is the read trial's region (core/trials.h): the TrialSet
// that owns the region owns the trial's document, view and graph, and
// drops them together, so a trial's compact graph costs no heap
// allocation of its own. A copy goes to the heap and outlives the
// region; only its id views still need the document.
#pragma once

#include <cstdint>
#include <deque>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph_view.h"
#include "graph/property_graph.h"

namespace provmark::graph {

/// Dense id of an interned string. Symbols are only comparable when they
/// come from the same SymbolTable.
using Symbol = std::uint32_t;
inline constexpr Symbol kNoSymbol = 0xFFFFFFFFu;

// -- hashing ------------------------------------------------------------------
// The digest/WL hash combiners, shared by graph::wl_colours and the
// compact WL refinement so both produce bit-identical colours.

inline std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b) {
  a ^= b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2);
  return a;
}

/// Order-independent (summing) combiner; add() the element hashes in any
/// order and read value().
class UnorderedHashSum {
 public:
  void add(std::uint64_t h) { sum_ += h * 0x100000001B3ULL + 1; }
  std::uint64_t value() const { return sum_; }

 private:
  std::uint64_t sum_ = 0x12345678ULL;
};

// -- symbol table -------------------------------------------------------------

/// Interns strings to dense Symbols. Each symbol also caches the FNV-1a
/// hash of its string so WL refinement never touches the characters; the
/// same hash places the symbol in the table's index.
class SymbolTable {
 public:
  /// Get-or-create the symbol for `s`.
  Symbol intern(std::string_view s);

  /// Lookup without creating; kNoSymbol when `s` was never interned.
  Symbol lookup(std::string_view s) const;

  const std::string& resolve(Symbol id) const { return strings_[id]; }

  /// util::stable_hash of the interned string.
  std::uint64_t hash(Symbol id) const { return hashes_[id]; }

  std::size_t size() const { return strings_.size(); }

 private:
  /// The index slot holding `s` (whose hash is `h`), or the empty slot
  /// where it would go.
  std::size_t find_slot(std::string_view s, std::uint64_t h) const;

  // deque keeps resolve()'s references stable as the table grows.
  std::deque<std::string> strings_;
  std::vector<std::uint64_t> hashes_;
  /// Open addressing over symbols (kNoSymbol = empty), power-of-two
  /// size, kept at most half full.
  std::vector<Symbol> index_ = std::vector<Symbol>(64, kNoSymbol);
};

/// One interned property: (key, value) symbols.
using CompactProp = std::pair<Symbol, Symbol>;

/// An element's properties: (key,value) symbols sorted by key (keys are
/// unique per element, mirroring graph::Properties), viewed in place in
/// the graph's flat property array.
using CompactProps = std::span<const CompactProp>;

/// Count of (key,value) pairs in `a` with no equal pair in `b` — the
/// matcher's one-sided property-mismatch cost, as a linear merge.
int one_sided_mismatch(CompactProps a, CompactProps b);

/// one_sided_mismatch(a,b) + one_sided_mismatch(b,a) in a single merge.
int symmetric_mismatch(CompactProps a, CompactProps b);

/// Value symbol for `key` in sorted props, or kNoSymbol.
Symbol find_prop(CompactProps props, Symbol key);

// -- compact graph ------------------------------------------------------------

/// The properties of `props` as strings.
Properties resolve_props(CompactProps props, const SymbolTable& symbols);

/// Frozen integer form of a graph. Node/edge indices follow the view's
/// order (a PropertyGraph's insertion order).
///
/// Memory: every array draws from one memory resource, the view's
/// (build()): a trial read on the pipeline's path keeps its compact
/// graph, properties interned later included, in the trial's region,
/// which core::TrialSet owns; a graph built from view_of(PropertyGraph)
/// uses the heap. A copy goes to the heap (std::pmr copies take the
/// default resource), so a copied graph outlives the region; a moved one
/// still draws from it.
struct CompactGraph {
  CompactGraph() = default;
  /// An empty graph whose arrays draw from `memory`.
  explicit CompactGraph(std::pmr::memory_resource* memory);

  const SymbolTable* symbols = nullptr;

  /// Element ids by index, viewing the GraphView's id strings.
  std::pmr::vector<std::string_view> node_id;
  std::pmr::vector<std::string_view> edge_id;

  // Nodes, indexed 0..node_count-1 in view order.
  std::pmr::vector<Symbol> node_label;

  // Edges, indexed 0..edge_count-1 in view order.
  std::pmr::vector<std::uint32_t> edge_src;
  std::pmr::vector<std::uint32_t> edge_tgt;
  std::pmr::vector<Symbol> edge_label;

  // CSR adjacency: edge indices incident to each node, by direction.
  std::pmr::vector<std::uint32_t> out_offsets;  ///< size node_count+1
  std::pmr::vector<std::uint32_t> out_edges;  ///< edge ids, grouped by source
  std::pmr::vector<std::uint32_t> in_offsets;   ///< size node_count+1
  std::pmr::vector<std::uint32_t> in_edges;   ///< edge ids, grouped by target

  /// Label buckets: bucket k holds the nodes labelled bucket_label[k],
  /// bucket_nodes[bucket_offsets[k] .. bucket_offsets[k+1]), ascending.
  /// bucket_label is ascending, one entry per distinct node label.
  std::pmr::vector<Symbol> bucket_label;
  std::pmr::vector<std::uint32_t> bucket_offsets;  ///< size buckets+1
  std::pmr::vector<std::uint32_t> bucket_nodes;

  /// Interned properties, empty until intern_properties(): node v's are
  /// props[prop_offsets[v] .. prop_offsets[v+1]), edge e's are at
  /// prop_offsets[node_count+e] .. prop_offsets[node_count+e+1].
  std::pmr::vector<CompactProp> props;
  std::pmr::vector<std::uint32_t> prop_offsets;  ///< size node+edge count+1

  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(node_label.size());
  }
  std::uint32_t edge_count() const {
    return static_cast<std::uint32_t>(edge_label.size());
  }
  std::uint32_t out_degree(std::uint32_t v) const {
    return out_offsets[v + 1] - out_offsets[v];
  }
  std::uint32_t in_degree(std::uint32_t v) const {
    return in_offsets[v + 1] - in_offsets[v];
  }

  /// Nodes labelled `label`, ascending; empty when there are none.
  std::span<const std::uint32_t> label_bucket(Symbol label) const;

  /// Whether intern_properties() has run.
  bool has_properties() const { return !prop_offsets.empty(); }
  /// An element's properties; only valid when has_properties().
  CompactProps node_props(std::uint32_t v) const {
    return element_props(v);
  }
  CompactProps edge_props(std::uint32_t e) const {
    return element_props(node_count() + e);
  }

  /// Intern `view`'s structure into `symbols` (shared across the graphs
  /// of one matching problem so their Symbols are comparable): ids,
  /// labels, endpoints, CSR adjacency and label buckets, but no
  /// properties. The graph and its build scratch draw from the view's
  /// memory resource.
  static CompactGraph build(const GraphView& view, SymbolTable& symbols);

  /// Intern the properties of `view`, the view this graph was built
  /// from, into `symbols`; a no-op when they already are. A property key
  /// repeated on one element keeps its last value. The properties draw
  /// from the graph's own memory resource.
  void intern_properties(const GraphView& view, SymbolTable& symbols);

 private:
  CompactProps element_props(std::uint32_t k) const {
    return {props.data() + prop_offsets[k],
            props.data() + prop_offsets[k + 1]};
  }
};

/// `g` as strings, elements in index order; `g` must have properties.
PropertyGraph resolve_graph(const CompactGraph& g);

/// Weisfeiler-Leman refinement colours after `rounds` iterations, indexed
/// by node. Bit-identical to graph::wl_colours on the same graph.
std::vector<std::uint64_t> compact_wl_colours(const CompactGraph& g,
                                              int rounds);

/// `rounds` more WL rounds over colours already refined k times, giving
/// the colours after k + rounds in `colour`; `scratch` holds as many
/// colours and is overwritten.
void wl_refine(const CompactGraph& g, std::span<std::uint64_t> colour,
               std::span<std::uint64_t> scratch, int rounds);

/// WL rounds behind the structural digest.
inline constexpr int kDigestWlRounds = 3;

/// graph::structural_digest, from the graph's colours after
/// kDigestWlRounds rounds.
std::uint64_t structural_digest(const CompactGraph& g,
                                std::span<const std::uint64_t> colour);

}  // namespace provmark::graph
