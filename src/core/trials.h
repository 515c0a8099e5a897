// The trial path shared by run_benchmark and run_nondeterministic_benchmark:
// stage (1) records a range of trials of both program variants on the
// pool, stage (2) reads, interns and digests them. Internal to core/.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "graph/graph_view.h"
#include "matcher/interned.h"

namespace provmark::core {

/// One variant's trials, carried across retry rounds: every native
/// document recorded (garbled ones too), and per readable trial its view
/// of the document, its interned graph (built exactly once, against the
/// run-wide symbol table) and its WL structural digest. std::deque keeps
/// documents and views at stable addresses: views point into documents,
/// and interned graphs' ids point into both.
struct TrialSet {
  std::deque<std::string> documents;
  std::deque<graph::GraphView> views;
  std::deque<matcher::InternedGraph> interned;
  std::vector<std::uint64_t> digests;

  std::vector<const matcher::InternedGraph*> pointers() const {
    std::vector<const matcher::InternedGraph*> out;
    out.reserve(interned.size());
    for (const matcher::InternedGraph& g : interned) out.push_back(&g);
    return out;
  }
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
/// variants on `pool`, then interns each readable one against `symbols`
/// and digests it, in trial order. Returns how many were unparseable
/// (garbled output, excluded before similarity classification).
int read_trials(int first, int count, const TransformOptions& transform,
                graph::SymbolTable& symbols, TrialSet& background,
                TrialSet& foreground, runtime::ThreadPool& pool);

}  // namespace provmark::core
