// Stage 4 — Comparison (§3.5): match the generalized background graph to
// a subgraph of the generalized foreground graph and subtract it. The
// unmatched foreground remainder — plus dummy placeholder nodes for
// matched endpoints of surviving edges — is the benchmark result.
#pragma once

#include <optional>

#include "graph/property_graph.h"
#include "matcher/matcher.h"

namespace provmark::core {

struct CompareOptions {
  bool candidate_pruning = true;
  bool cost_bounding = true;
  /// Parallel-search knobs forwarded into the matcher call. The
  /// pipeline overlays its own PipelineOptions::matcher config here.
  matcher::SearchConfig search;
};

struct CompareResult {
  /// The benchmark result graph. Empty (no nodes, no edges) means the
  /// foreground and background are similar: the target activity was not
  /// recorded.
  graph::PropertyGraph benchmark;
  /// Nodes of `benchmark` that are dummies: pre-existing (matched)
  /// endpoints retained to keep the result a complete graph, shown green
  /// or gray in the paper's figures.
  std::vector<graph::Id> dummy_nodes;
  /// Property-mismatch cost of the optimal embedding.
  int embedding_cost = 0;
  /// True when no structure-preserving embedding of the background into
  /// the foreground exists (monotonicity violated — a garbled recording
  /// or a recorder bug; the paper's §3.4 "leads to failure" case).
  bool embedding_failed = false;
  /// Search statistics of the embedding (parallel workers pre-merged by
  /// the matcher, so callers may sum these across stages verbatim).
  matcher::Stats search_stats;
};

/// Subtract `background` from `foreground` via optimal approximate
/// subgraph isomorphism (Listing 4 semantics).
CompareResult compare_graphs(const graph::PropertyGraph& background,
                             const graph::PropertyGraph& foreground,
                             const CompareOptions& options = {});

/// Same over pre-interned snapshots (both against one SymbolTable); the
/// pipeline interns each generalized graph once and reuses the snapshot
/// here rather than re-interning inside the matcher call.
CompareResult compare_graphs(const matcher::InternedGraph& background,
                             const matcher::InternedGraph& foreground,
                             const CompareOptions& options = {});

}  // namespace provmark::core
