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
//     mixed pair does not.)
//  4. Find the property-mismatch-minimizing isomorphism between the two
//     representatives and keep only properties equal under it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/property_graph.h"
#include "matcher/interned.h"
#include "matcher/matcher.h"

namespace provmark::matcher {
class SimilarityMemo;
}
namespace provmark::runtime {
class ThreadPool;
}

namespace provmark::core {

/// Compat, unread: provbench pipeline_bench.cpp:436-437; ROADMAP item 9.
struct GeneralizeOptions {
  /// Compat, unread: provbench pipeline_bench.cpp:437; ROADMAP item 9.
  matcher::SearchConfig search;
};

struct GeneralizeResult {
  /// The generalized representative: the first trial of the pair copied
  /// with only the kept properties. Its ids view that trial's document
  /// and view, so it is valid only while the trials are.
  matcher::InternedGraph interned;
  graph::PropertyGraph graph;  ///< `interned` resolved to strings
  std::size_t classes = 0;     ///< similarity classes found
  std::size_t discarded = 0;   ///< trials discarded as inconsistent
  int transient_properties = 0;  ///< properties removed as volatile
  /// Statistics of the generalizing isomorphism search (summable
  /// across stages).
  matcher::Stats search_stats;
};

// Trials arrive as InternedGraph snapshots (each trial interned exactly
// once, all against one shared SymbolTable), digests precomputed
// (graph::structural_digest per trial, computed once when the trial is
// read). Classification is serial and incremental: a SimilarityClasses
// grows with its trials, so a retry round compares only the trials it
// added and no pair is ever posed twice.
//
// Classification reads only structure, so trials may be interned without
// their properties; generalizing a pair reads the properties of exactly
// those two trials. The stage therefore comes in two pieces,
// SimilarityClasses with choose_pair (steps 1-3) and generalize_chosen
// (step 4), with room between them to intern the chosen pair's
// properties; generalize_trials runs both on fully interned trials. The
// comparison reads the result's `interned` graph; `graph` holds the same
// graph as strings.

/// Similarity classes of a growing list of trials. Trials are bucketed by
/// structural digest (equal digests are necessary for similarity); inside
/// a bucket each trial joins the first class whose representative (its
/// first member) it is similar to, or starts a new class. A trial's
/// class depends only on the trials before it, so classifying the trials
/// in batches gives the classes of one pass over all of them.
class SimilarityClasses {
 public:
  /// Classify the trials not classified yet, in trial order. `trials`
  /// and `digests` must extend the lists of earlier calls.
  void add(const std::vector<const matcher::InternedGraph*>& trials,
           const std::vector<std::uint64_t>& digests);

  /// The classes as trial indices, largest class first; classes of equal
  /// size keep ascending digest order, then order of creation.
  std::vector<std::vector<std::size_t>> sorted() const;

  /// matcher::similar calls made so far.
  std::uint64_t comparisons() const { return comparisons_; }

 private:
  std::map<std::uint64_t, std::vector<std::vector<std::size_t>>> buckets_;
  std::size_t classified_ = 0;
  std::uint64_t comparisons_ = 0;
};

/// Steps 1-3 of the stage: how many similarity classes the trials form,
/// how many trials singleton classes discard, and the pair to generalize.
struct TrialClasses {
  std::size_t classes = 0;
  std::size_t discarded = 0;
  /// Indices into the trials of the pair to generalize: the first two
  /// members of the surviving class with the smallest representative
  /// graph. Absent when no class has two members.
  std::optional<std::pair<std::size_t, std::size_t>> pair;
};

/// Choose the pair to generalize among the classified `trials`. Reads
/// structure only: the trials need not have their properties interned.
TrialClasses choose_pair(
    const SimilarityClasses& classes,
    const std::vector<const matcher::InternedGraph*>& trials);

/// Generalize two similar trials: keep exactly the properties preserved
/// by the optimal (cost-minimizing) isomorphism, whose properties must be
/// interned (std::logic_error otherwise). Returns `a` with only the kept
/// properties, or std::nullopt if the graphs are not similar. `stats`,
/// when supplied, receives the isomorphism search statistics.
std::optional<matcher::InternedGraph> generalize_pair(
    const matcher::InternedGraph& a, const matcher::InternedGraph& b,
    matcher::Stats* stats = nullptr);

/// Step 4: generalize the pair `classes` chose among `trials`, whose
/// properties must be interned. Returns std::nullopt when there is no
/// pair.
std::optional<GeneralizeResult> generalize_chosen(
    const TrialClasses& classes,
    const std::vector<const matcher::InternedGraph*>& trials);

/// The full stage on fully interned trials: classify them, choose_pair,
/// then generalize_chosen. Returns std::nullopt when no class has >= 2
/// members (the paper's recording stage would run more trials in that
/// case).
std::optional<GeneralizeResult> generalize_trials(
    const std::vector<const matcher::InternedGraph*>& trials,
    const std::vector<std::uint64_t>& digests,
    // Compat, unread: provbench pipeline_bench.cpp:446-447; ROADMAP item 9.
    const GeneralizeOptions& = {}, matcher::SimilarityMemo* = nullptr,
    runtime::ThreadPool* = nullptr);

}  // namespace provmark::core
