// Nondeterministic target activity — a prototype of the paper's main
// future-work item (§5.4, §6).
//
// With a nondeterministic (e.g. concurrent) target, the foreground
// program has several possible provenance structures, one per schedule.
// The paper sketches the needed machinery: "perform some kind of
// fingerprinting or graph structure summarization to group the different
// possible graphs according to schedule" and "run larger numbers of
// trials". This module implements exactly that:
//
//  1. Record many foreground trials; each trial's schedule is chosen by
//     the (simulated) scheduler.
//  2. Group the transformed trial graphs by structural fingerprint
//     (isomorphism-invariant digest) — the schedule classes.
//  3. Generalize each class with >= 2 members independently, and compare
//     each against the (deterministic) background generalization.
//
// The result is one benchmark graph *per observed schedule*, plus
// coverage bookkeeping. Completeness (did we see every schedule?) is
// undecidable in general — the caller sees how many classes were observed
// and how many trials supported each, and can run more trials.
#pragma once

#include <cstdint>
#include <vector>

#include "bench_suite/program.h"
#include "core/pipeline.h"

namespace provmark::core {

struct ScheduleResult {
  /// Isomorphism-invariant fingerprint of the schedule's foreground
  /// structure (equal across trials of the same schedule).
  std::uint64_t fingerprint = 0;
  /// Foreground trials observed with this schedule.
  int support = 0;
  /// The per-schedule benchmark result (Ok / Empty / Failed as usual).
  /// `trials_run` is the schedule's support. The counters and timings
  /// cover the work this result depends on: `trials_unparseable`,
  /// recording and transformation are the whole run's; generalization
  /// is the background's plus the foreground classification plus this
  /// schedule's own; comparison is this schedule's; `matcher_steps` sums
  /// the background generalization, this schedule's generalization and
  /// its comparison, and `transient_properties` the properties those two
  /// generalizations strip. `trials_discarded` counts the background's
  /// singletons (a foreground singleton is an unsupported schedule).
  /// `threads_used` is the pool width.
  BenchmarkResult result;
};

struct NondetBenchmarkResult {
  std::vector<ScheduleResult> schedules;  ///< sorted by support, desc
  int trials_run = 0;
  /// Schedules seen only once: not benchmarkable (could equally be
  /// garbled runs), reported for the completeness discussion.
  int unsupported_schedules = 0;
};

/// Run the nondeterministic pipeline. `options.trials` is the foreground
/// trial count (default: 8x the per-system default, since trials spread
/// over schedules). Trials are recorded and read on run_benchmark's path
/// over `options.pool`; the schedules are identical at any pool width.
/// All trials run in one round: run_benchmark's retry rounds and `cancel`
/// do not apply.
NondetBenchmarkResult run_nondeterministic_benchmark(
    const bench_suite::BenchmarkProgram& program,
    const PipelineOptions& options = {});

}  // namespace provmark::core
