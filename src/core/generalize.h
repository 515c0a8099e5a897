// Stage 3 — Generalization (§3.4): from several recorded trials of the
// same program, produce one representative graph with transient
// properties removed.
//
// Procedure (following the paper exactly):
//  1. Partition the trial graphs into similarity classes (graph
//     isomorphism ignoring properties — Listing 3 semantics).
//  2. Discard classes of size one: such runs are failed/garbled
//     recordings (truncated SPADE output, CamFlow interference).
//  3. From the smallest surviving class, take two representative graphs.
//     (The paper notes picking the two largest also works but choosing a
//     mixed pair does not; `PickStrategy` exposes both for the ablation
//     test.)
//  4. Find the property-mismatch-minimizing isomorphism between the two
//     representatives and keep only properties equal under it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/property_graph.h"
#include "matcher/matcher.h"

namespace provmark::matcher {
class SimilarityMemo;
}
namespace provmark::runtime {
class ThreadPool;
}

namespace provmark::core {

enum class PickStrategy { SmallestClass, LargestClass };

struct GeneralizeOptions {
  PickStrategy pick = PickStrategy::SmallestClass;
  /// Passed through to the matcher (ablation knobs).
  bool candidate_pruning = true;
  bool cost_bounding = true;
  /// Parallel-search knobs forwarded into the generalization
  /// isomorphism. The pipeline overlays its own PipelineOptions::matcher
  /// config here.
  matcher::SearchConfig search;
};

struct GeneralizeResult {
  graph::PropertyGraph graph;  ///< the generalized representative
  std::size_t classes = 0;     ///< similarity classes found
  std::size_t discarded = 0;   ///< trials discarded as inconsistent
  int transient_properties = 0;  ///< properties removed as volatile
  /// Statistics of the generalizing isomorphism search (parallel
  /// workers pre-merged by the matcher; summable across stages).
  matcher::Stats search_stats;
};

/// Partition trial graphs into similarity classes; returns indices into
/// `trials` grouped by class, largest class first.
std::vector<std::vector<std::size_t>> similarity_classes(
    const std::vector<graph::PropertyGraph>& trials);

/// Same, with the trials' WL structural digests precomputed by the caller
/// (graph::structural_digest per trial). The pipeline computes each
/// digest once when a trial is transformed, so retry rounds never re-hash
/// old trials; the exact matcher only runs inside equal-digest buckets.
std::vector<std::vector<std::size_t>> similarity_classes(
    const std::vector<graph::PropertyGraph>& trials,
    const std::vector<std::uint64_t>& digests);

/// Generalize two similar graphs: keep exactly the properties preserved
/// by the optimal (cost-minimizing) isomorphism. Returns std::nullopt if
/// the graphs are not similar.
std::optional<graph::PropertyGraph> generalize_pair(
    const graph::PropertyGraph& a, const graph::PropertyGraph& b,
    const GeneralizeOptions& options = {});

/// The full stage: partition, discard singletons, pick a representative
/// pair, generalize. Returns std::nullopt when no class has >= 2 members
/// (the paper's recording stage would run more trials in that case).
std::optional<GeneralizeResult> generalize_trials(
    const std::vector<graph::PropertyGraph>& trials,
    const GeneralizeOptions& options = {});

/// Same, with precomputed digests (see similarity_classes overload).
std::optional<GeneralizeResult> generalize_trials(
    const std::vector<graph::PropertyGraph>& trials,
    const std::vector<std::uint64_t>& digests,
    const GeneralizeOptions& options = {});

// -- interned entry points ----------------------------------------------------
// The pipeline's zero-re-interning path: trials arrive as InternedGraph
// snapshots (each trial interned exactly once, all against one shared
// SymbolTable), digests precomputed. The optional `memo` caches
// similar() verdicts across calls (and across the pipeline's retry
// rounds); the optional `pool` fans independent digest buckets out over
// worker threads — each bucket's greedy classification stays sequential,
// so the classes (and everything downstream) are bit-identical to the
// serial run at any thread count.

std::vector<std::vector<std::size_t>> similarity_classes(
    const std::vector<const matcher::InternedGraph*>& trials,
    const std::vector<std::uint64_t>& digests,
    matcher::SimilarityMemo* memo = nullptr,
    runtime::ThreadPool* pool = nullptr);

/// Generalize two similar interned trials (see generalize_pair above);
/// reads properties back through the snapshots' source graphs. `stats`,
/// when supplied, receives the isomorphism search statistics.
std::optional<graph::PropertyGraph> generalize_pair(
    const matcher::InternedGraph& a, const matcher::InternedGraph& b,
    const GeneralizeOptions& options = {}, matcher::Stats* stats = nullptr);

std::optional<GeneralizeResult> generalize_trials(
    const std::vector<const matcher::InternedGraph*>& trials,
    const std::vector<std::uint64_t>& digests,
    const GeneralizeOptions& options = {},
    matcher::SimilarityMemo* memo = nullptr,
    runtime::ThreadPool* pool = nullptr);

}  // namespace provmark::core
