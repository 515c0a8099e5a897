#include "core/trials.h"

#include <chrono>
#include <optional>
#include <set>
#include <thread>

#include "bench_suite/executor.h"
#include "runtime/thread_pool.h"

namespace provmark::core {

std::string record_trials(const bench_suite::BenchmarkProgram& program,
                          systems::Recorder& recorder,
                          const PipelineOptions& options, int first,
                          int count, TrialSet& background,
                          TrialSet& foreground, runtime::ThreadPool& pool) {
  const std::set<std::string> extra_audit_rules =
      recorder.extra_audit_rules();
  const os::Layer layer = recorder.layer();

  // Resolve the recording-latency sentinel: a negative scalar asks for
  // the recorder's calibrated default (Figures 5-7 profile; the recorder
  // resolves it, so configuration like SPADE's storage backend is
  // honoured); zero keeps trials instantaneous; positive overrides.
  double recording_latency = options.simulated_recording_latency;
  if (recording_latency < 0) {
    recording_latency = recorder.recording_latency();
  }

  // All new trials of both variants fan out together: background tasks
  // [0, count), foreground tasks [count, 2*count). Each task is
  // self-contained (own seed, own recorder trial context), writing its
  // native document into an index-addressed slot.
  const std::size_t tasks = static_cast<std::size_t>(count) * 2;
  background.documents.resize(first + count);
  foreground.documents.resize(first + count);
  std::vector<std::string> fg_failures(count);
  pool.parallel_for(tasks, [&](std::size_t t) {
    bool is_foreground = t >= static_cast<std::size_t>(count);
    int i = static_cast<int>(is_foreground ? t - count : t);
    std::uint64_t seed =
        trial_seed(options.seed, program.name, is_foreground, first + i);
    if (recording_latency > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(recording_latency));
    }
    bench_suite::ExecutionResult run = bench_suite::execute_program(
        program, is_foreground, seed, extra_audit_rules, layer);
    if (is_foreground && !run.behaviour_ok) {
      fg_failures[i] = run.failure_reason;
    }
    systems::TrialContext trial{seed ^ 0xC0FFEEULL};
    (is_foreground ? foreground : background).documents[first + i] =
        recorder.record(run.trace, trial);
  });
  for (const std::string& failure : fg_failures) {
    if (!failure.empty()) return failure;
  }
  return "";
}

int read_trials(int first, int count, const TransformOptions& transform,
                graph::SymbolTable& symbols, TrialSet& background,
                TrialSet& foreground, runtime::ThreadPool& pool) {
  // Reading each document into a view is per-trial pure work and runs on
  // the pool, each task in the region it creates for its trial;
  // interning the structure (with the digest and the matcher's per-graph
  // invariants) is a short serial tail, since the symbol table is shared
  // by the whole run so every later matcher call can compare any pair.
  // Properties wait until a generalization reads them.
  const std::size_t tasks = static_cast<std::size_t>(count) * 2;
  std::vector<std::unique_ptr<util::Region>> regions(tasks);
  std::vector<std::optional<graph::GraphView>> parsed(tasks);
  pool.parallel_for(tasks, [&](std::size_t t) {
    bool is_foreground = t >= static_cast<std::size_t>(count);
    const TrialSet& set = is_foreground ? foreground : background;
    regions[t] = std::make_unique<util::Region>();
    try {
      parsed[t].emplace(read_native(
          set.documents[first + (is_foreground ? t - count : t)], transform,
          regions[t]->resource()));
    } catch (const std::exception&) {
      // Garbled (truncated) output: the trial is a failed run and is
      // excluded before similarity classification.
      regions[t].reset();
    }
  });
  int unparseable = 0;
  for (std::size_t t = 0; t < tasks; ++t) {
    if (!parsed[t].has_value()) {
      ++unparseable;
      continue;
    }
    TrialSet& set =
        t < static_cast<std::size_t>(count) ? background : foreground;
    util::Region& region = *set.regions.emplace_back(std::move(regions[t]));
    set.views.push_back(std::move(*parsed[t]));
    parsed[t].reset();
    set.interned.emplace_back(set.views.back(), symbols);
    set.digests.push_back(
        set.interned.back().structural_digest(region.resource()));
  }
  return unparseable;
}

std::optional<GeneralizeResult> TrialSet::generalize(
    graph::SymbolTable& symbols) {
  const std::vector<const matcher::InternedGraph*> trials = pointers();
  classes.add(trials, digests);
  const TrialClasses chosen = choose_pair(classes, trials);
  if (chosen.pair.has_value()) {
    intern_properties(chosen.pair->first, symbols);
    intern_properties(chosen.pair->second, symbols);
  }
  return generalize_chosen(chosen, trials);
}

}  // namespace provmark::core
