#include "core/nondet.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "bench_suite/executor.h"
#include "core/compare.h"
#include "core/generalize.h"
#include "core/transform.h"
#include "graph/algorithms.h"
#include "util/stopwatch.h"

namespace provmark::core {

NondetBenchmarkResult run_nondeterministic_benchmark(
    const bench_suite::BenchmarkProgram& program,
    const PipelineOptions& options) {
  NondetBenchmarkResult out;

  std::shared_ptr<systems::Recorder> recorder = options.recorder;
  if (!recorder) recorder = systems::make_recorder(options.system);

  int trials = options.trials > 0
                   ? options.trials
                   : 8 * default_trials(recorder->name());
  out.trials_run = trials;

  // Record background (deterministic) and foreground (one schedule per
  // trial) runs.
  const std::set<std::string> extra_audit_rules =
      recorder->extra_audit_rules();
  auto record = [&](bool foreground, int index) {
    const std::uint64_t seed =
        trial_seed(options.seed, program.name, foreground, index);
    bench_suite::ExecutionResult run = bench_suite::execute_program(
        program, foreground, seed, extra_audit_rules, recorder->layer());
    systems::TrialContext trial{seed ^ 0xC0FFEEULL};
    return recorder->record(run.trace, trial);
  };

  std::vector<graph::PropertyGraph> bg_graphs;
  std::vector<graph::PropertyGraph> fg_graphs;
  for (int i = 0; i < trials; ++i) {
    for (bool foreground : {false, true}) {
      try {
        graph::PropertyGraph g = transform_native(
            record(foreground, i), options.transform);
        (foreground ? fg_graphs : bg_graphs).push_back(std::move(g));
      } catch (const std::exception&) {
        // Garbled trial: drop it.
      }
    }
  }

  // The background is deterministic: generalize it once.
  std::optional<GeneralizeResult> bg_general =
      generalize_trials(bg_graphs, options.generalize);
  if (!bg_general.has_value()) return out;

  // Group foreground trials into schedule classes by structural
  // fingerprint, then confirm with the exact matcher (via
  // similarity_classes, which does digest-bucketing + exact check).
  std::vector<std::vector<std::size_t>> classes =
      similarity_classes(fg_graphs);

  for (const std::vector<std::size_t>& cls : classes) {
    if (cls.size() < 2) {
      ++out.unsupported_schedules;
      continue;
    }
    // Generalize this schedule's trials only.
    std::vector<graph::PropertyGraph> members;
    members.reserve(cls.size());
    for (std::size_t index : cls) members.push_back(fg_graphs[index]);
    std::optional<GeneralizeResult> fg_general =
        generalize_trials(members, options.generalize);
    if (!fg_general.has_value()) continue;  // unreachable: all similar

    ScheduleResult schedule;
    schedule.fingerprint = graph::structural_digest(fg_general->graph);
    schedule.support = static_cast<int>(cls.size());
    schedule.result.system = recorder->name();
    schedule.result.benchmark = program.name;
    schedule.result.generalized_background = bg_general->graph;
    schedule.result.generalized_foreground = fg_general->graph;
    schedule.result.trials_run = static_cast<int>(cls.size());

    CompareResult compared = compare_graphs(
        bg_general->graph, fg_general->graph, options.compare);
    if (compared.embedding_failed) {
      schedule.result.status = BenchmarkStatus::Failed;
      schedule.result.failure_reason =
          "background does not embed into this schedule's foreground";
    } else {
      schedule.result.result = std::move(compared.benchmark);
      schedule.result.dummy_nodes = std::move(compared.dummy_nodes);
      schedule.result.status = schedule.result.result.empty()
                                   ? BenchmarkStatus::Empty
                                   : BenchmarkStatus::Ok;
    }
    out.schedules.push_back(std::move(schedule));
  }

  std::sort(out.schedules.begin(), out.schedules.end(),
            [](const ScheduleResult& a, const ScheduleResult& b) {
              return a.support > b.support;
            });
  return out;
}

}  // namespace provmark::core
