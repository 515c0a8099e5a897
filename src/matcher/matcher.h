// Optimal (sub)graph matching over property graphs.
//
// The paper reduces its two core analyses to problems it ships to the
// clingo ASP solver:
//
//  * Listing 3 — *graph similarity*: an invertible mapping between two
//    graphs preserving structure and labels (properties ignored). Used to
//    partition recording trials into similarity classes, and — extended
//    with a property-mismatch objective — to generalize two similar trials
//    by discarding transient properties.
//
//  * Listing 4 — *approximate subgraph isomorphism*: an injective mapping
//    from the background graph into the foreground graph preserving
//    structure and labels, minimizing the number of background properties
//    with no matching foreground property. The unmatched foreground
//    remainder is the benchmark result.
//
// This module is a drop-in replacement for the ASP reduction: a dedicated
// branch-and-bound search with the same semantics and one search order,
// WL-colour scarcity. Candidate pruning uses label/degree signatures and
// (for the bijective problem) Weisfeiler-Leman colour classes; candidates
// are tried cheapest-first, the most constrained pattern node goes next
// (ties towards the rarer target colour class), and optimization prunes
// on the accumulated property-mismatch cost plus an admissible estimate
// of the unassigned remainder. The search is exhaustive, so the optimum
// does not depend on the order; the order only decides how soon it is
// found and proven. Pruning and bounding are always on. A call is one
// single-threaded search; the pipeline's parallelism is across calls
// (trials, digest buckets, cells), never inside one. The tests check the
// search against two independent references, the exhaustive brute_force
// oracle and the string-keyed matcher::legacy engine
// (matcher_compact_equivalence_test, matcher_matcher_property_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/property_graph.h"

namespace provmark::matcher {

struct InternedGraph;  // matcher/interned.h: a reusable interned operand

/// A solution: node and edge correspondences from G1 into G2 plus its cost.
/// Correspondences are by element index, which is a PropertyGraph's
/// insertion order and CompactGraph order alike: G1's node i is matched
/// to G2's node node_index[i], and likewise for edges.
struct Matching {
  std::vector<std::uint32_t> node_index;
  std::vector<std::uint32_t> edge_index;
  /// Property-mismatch cost of this matching (see CostModel).
  int cost = 0;
};

/// How property mismatches are counted.
enum class CostModel {
  /// Ignore properties entirely (pure Listing 3 similarity).
  None,
  /// Count properties of G1 elements with no equal (key,value) on the
  /// matched G2 element (pure Listing 4: cost lines of the ASP program).
  OneSided,
  /// OneSided in both directions; used when generalizing two similar
  /// trials, where a mismatch on either side marks a transient property.
  Symmetric,
};

struct SearchOptions {
  CostModel cost_model = CostModel::OneSided;
  /// Stop as soon as any structurally valid matching is found (the cost is
  /// still reported for that matching, but not optimized).
  bool first_solution_only = false;
  /// Abort after this many search steps; 0 = unlimited. A hit stops the
  /// search after exactly step_budget + 1 steps (counted on the caller's
  /// Stats, including any steps it already held) with `budget_exhausted`
  /// set, and returns the best matching found so far, unproven, or
  /// std::nullopt if none was. Guards against the worst-case exponential
  /// behaviour the paper accepts as a risk (§5.4).
  std::size_t step_budget = 0;
};

/// Compat, empty: provbench pipeline_bench.cpp:437,462; ROADMAP item 9.
struct SearchConfig {};

/// Search statistics, used by tests and the pipeline's step counters.
struct Stats {
  std::size_t steps = 0;            ///< node-assignment attempts
  std::size_t solutions_found = 0;  ///< complete matchings encountered
  bool budget_exhausted = false;
};

/// Find an *invertible* (bijective) matching G1 <-> G2 preserving node/edge
/// labels and edge endpoints — the paper's Listing 3. With a cost model,
/// returns the matching minimizing the property-mismatch cost.
/// Returns std::nullopt when the graphs are not similar.
std::optional<Matching> best_isomorphism(const graph::PropertyGraph& g1,
                                         const graph::PropertyGraph& g2,
                                         const SearchOptions& options = {},
                                         Stats* stats = nullptr);

/// Find an *injective* matching of G1 into G2 preserving labels and
/// structure, minimizing one-sided property cost — the paper's Listing 4.
/// Returns std::nullopt when G1 is not (label-preservingly) embeddable.
std::optional<Matching> best_subgraph_embedding(
    const graph::PropertyGraph& g1, const graph::PropertyGraph& g2,
    const SearchOptions& options = {}, Stats* stats = nullptr);

/// Pure similarity test (paper §3.4): do the graphs have the same shape,
/// ignoring properties?
bool similar(const graph::PropertyGraph& g1, const graph::PropertyGraph& g2);

// -- interned entry points ----------------------------------------------------
// Zero-interning variants over pre-built snapshots (matcher/interned.h).
// Both operands must have been interned against the *same* SymbolTable
// (std::invalid_argument otherwise). The pipeline interns each trial
// graph exactly once and reuses the snapshot for every similarity check,
// generalization, and comparison it participates in; the PropertyGraph
// overloads above are one-shot conveniences that intern on the fly.

std::optional<Matching> best_isomorphism(const InternedGraph& g1,
                                         const InternedGraph& g2,
                                         const SearchOptions& options = {},
                                         Stats* stats = nullptr);

std::optional<Matching> best_subgraph_embedding(
    const InternedGraph& g1, const InternedGraph& g2,
    const SearchOptions& options = {}, Stats* stats = nullptr);

bool similar(const InternedGraph& g1, const InternedGraph& g2);

}  // namespace provmark::matcher
