// The trial path shared by run_benchmark and run_nondeterministic_benchmark:
// stage (1) records a range of trials of both program variants on the
// pool, stage (2) reads them and interns and digests their structure,
// and stage (3), TrialSet::generalize, classifies the new trials
// serially and interns the properties of only the trials a
// generalization reads. Internal to core/.
//
// Memory: each readable trial has a region of its own (util/region.h).
// The read task creates it and reads the document into it; the TrialSet
// keeps it at a stable address, and the trial's view, its interned
// graph (properties interned later included) and the scratch of reading
// and interning all draw from it. An unparseable trial's region is
// dropped with it. The TrialSet owns every region, so views and interned
// graphs live exactly as long as their TrialSet; a generalized graph is
// a heap copy, but its ids still view the trial's document.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/program.h"
#include "core/generalize.h"
#include "core/pipeline.h"
#include "graph/graph_view.h"
#include "matcher/interned.h"
#include "util/region.h"

namespace provmark::core {

/// One variant's trials, carried across retry rounds: every native
/// document recorded (garbled ones too), per readable trial its region,
/// its view of the document, its interned graph (structure interned
/// exactly once, against the run-wide symbol table; properties only once
/// a generalization reads them) and its WL structural digest, and the
/// similarity classes of the trials classified so far.
/// std::deque keeps documents and views at stable addresses: views point
/// into documents, interned graphs' ids point into both, and a trial's
/// properties are interned from its view. The regions are declared
/// before the views and interned graphs that draw from them, so those
/// are destroyed first.
struct TrialSet {
  std::deque<std::string> documents;
  std::vector<std::unique_ptr<util::Region>> regions;
  std::deque<graph::GraphView> views;
  std::deque<matcher::InternedGraph> interned;
  std::vector<std::uint64_t> digests;
  SimilarityClasses classes;

  /// Intern the properties of readable trial `i`, once, into the trial's
  /// region: later calls for the same trial do nothing. Serial only:
  /// neither `symbols` nor the region is thread-safe.
  void intern_properties(std::size_t i, graph::SymbolTable& symbols) {
    interned[i].g.intern_properties(views[i], symbols);
  }

  std::vector<const matcher::InternedGraph*> pointers() const {
    std::vector<const matcher::InternedGraph*> out;
    out.reserve(interned.size());
    for (const matcher::InternedGraph& g : interned) out.push_back(&g);
    return out;
  }

  /// Stage (3), serial: classify the trials read since the last call,
  /// choose the pair, intern its properties against `symbols` and
  /// generalize it. std::nullopt when no two trials are similar.
  std::optional<GeneralizeResult> generalize(graph::SymbolTable& symbols);
};

/// Stage (1): records trials [first, first + count) of both variants of
/// `program` with `recorder` on `pool`, appending their native documents
/// to `background` and `foreground` (each of which must hold exactly
/// `first` documents). Seeds come from trial_seed(options.seed, ...), and
/// each trial waits as PipelineOptions::simulated_recording_latency
/// describes. Returns the reason of the first new foreground trial whose
/// behaviour check failed, or "" when all passed.
std::string record_trials(const bench_suite::BenchmarkProgram& program,
                          systems::Recorder& recorder,
                          const PipelineOptions& options, int first,
                          int count, TrialSet& background,
                          TrialSet& foreground, runtime::ThreadPool& pool);

/// Stage (2): reads the documents of trials [first, first + count) of both
/// variants on `pool`, each into a new region of its own, then interns
/// the structure of each readable one into that region against
/// `symbols` and digests it, in trial order. Returns how many were
/// unparseable (garbled output, excluded before similarity
/// classification; their regions are dropped).
int read_trials(int first, int count, const TransformOptions& transform,
                graph::SymbolTable& symbols, TrialSet& background,
                TrialSet& foreground, runtime::ThreadPool& pool);

}  // namespace provmark::core
