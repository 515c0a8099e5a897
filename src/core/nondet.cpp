#include "core/nondet.h"

#include <algorithm>
#include <optional>

#include "core/trials.h"
#include "runtime/thread_pool.h"

namespace provmark::core {

NondetBenchmarkResult run_nondeterministic_benchmark(
    const bench_suite::BenchmarkProgram& program,
    const PipelineOptions& options) {
  NondetBenchmarkResult out;

  runtime::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : runtime::default_pool();

  std::shared_ptr<systems::Recorder> recorder = options.recorder;
  if (!recorder) recorder = systems::make_recorder(options.system);

  int trials = options.trials > 0
                   ? options.trials
                   : 8 * default_trials(recorder->name());
  out.trials_run = trials;

  // The matcher strategy overlays both matcher-bound stages, as in
  // run_benchmark.
  GeneralizeOptions generalize_options = options.generalize;
  generalize_options.search = options.matcher;
  CompareOptions compare_options = options.compare;
  compare_options.search = options.matcher;

  // Record background (deterministic) and foreground (one schedule per
  // trial) runs on run_benchmark's trial path, in one round. Garbled
  // trials are dropped; nondet reports schedules, not the behaviour
  // check.
  graph::SymbolTable symbols;
  TrialSet bg_trials, fg_trials;
  record_trials(program, *recorder, options, 0, trials, bg_trials, fg_trials,
                pool);
  read_trials(0, trials, options.transform, symbols, bg_trials, fg_trials,
              pool);

  // The background is deterministic: generalize it once.
  std::optional<GeneralizeResult> bg_general =
      generalize_trials(bg_trials.pointers(), bg_trials.digests,
                        generalize_options, nullptr, &pool);
  if (!bg_general.has_value()) return out;
  matcher::InternedGraph bg_interned(bg_general->graph, symbols);

  // Group foreground trials into schedule classes: digest buckets
  // confirmed with the exact matcher.
  std::vector<const matcher::InternedGraph*> fg = fg_trials.pointers();
  std::vector<std::vector<std::size_t>> classes =
      similarity_classes(fg, fg_trials.digests, nullptr, &pool);

  for (const std::vector<std::size_t>& cls : classes) {
    if (cls.size() < 2) {
      ++out.unsupported_schedules;
      continue;
    }
    // Generalize this schedule from its first two trials, the pair
    // generalize_trials would pick from a single class.
    std::optional<graph::PropertyGraph> fg_general =
        generalize_pair(*fg[cls[0]], *fg[cls[1]], generalize_options);
    if (!fg_general.has_value()) continue;  // unreachable: all similar

    matcher::InternedGraph fg_interned(*fg_general, symbols);
    ScheduleResult schedule;
    schedule.fingerprint = fg_interned.structural_digest();
    schedule.support = static_cast<int>(cls.size());
    schedule.result.system = recorder->name();
    schedule.result.benchmark = program.name;
    schedule.result.generalized_background = bg_general->graph;
    schedule.result.generalized_foreground = *fg_general;
    schedule.result.trials_run = static_cast<int>(cls.size());

    CompareResult compared =
        compare_graphs(bg_interned, fg_interned, compare_options);
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
