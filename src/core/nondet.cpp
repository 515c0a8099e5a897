#include "core/nondet.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/trials.h"
#include "runtime/thread_pool.h"
#include "util/stopwatch.h"

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

  // Record background (deterministic) and foreground (one schedule per
  // trial) runs on run_benchmark's trial path, in one round. Garbled
  // trials are dropped; nondet reports schedules, not the behaviour
  // check.
  StageTimings shared;
  graph::SymbolTable symbols;
  TrialSet bg_trials, fg_trials;
  util::Stopwatch watch;
  record_trials(program, *recorder, options, 0, trials, bg_trials, fg_trials,
                pool);
  shared.recording = watch.elapsed_seconds();
  watch.reset();
  const int unparseable = read_trials(0, trials, options.transform, symbols,
                                      bg_trials, fg_trials, pool);
  shared.transformation = watch.elapsed_seconds();

  // The background is deterministic: generalize it once, as
  // run_benchmark does. Classification reads structure only; a pair's
  // properties are interned before it is generalized, here and for every
  // schedule below.
  watch.reset();
  std::optional<GeneralizeResult> bg_general = bg_trials.generalize(symbols);
  if (!bg_general.has_value()) return out;

  // Group foreground trials into schedule classes: digest buckets
  // confirmed with the exact matcher.
  std::vector<const matcher::InternedGraph*> fg = fg_trials.pointers();
  fg_trials.classes.add(fg, fg_trials.digests);
  const std::vector<std::vector<std::size_t>> classes =
      fg_trials.classes.sorted();
  shared.generalization = watch.elapsed_seconds();

  for (const std::vector<std::size_t>& cls : classes) {
    if (cls.size() < 2) {
      ++out.unsupported_schedules;
      continue;
    }
    // Generalize this schedule from its first two trials, the pair
    // choose_pair would choose from a single class.
    watch.reset();
    fg_trials.intern_properties(cls[0], symbols);
    fg_trials.intern_properties(cls[1], symbols);
    const TrialClasses chosen{.classes = classes.size(),
                              .pair = std::pair{cls[0], cls[1]}};
    std::optional<GeneralizeResult> fg_general =
        generalize_chosen(chosen, fg);
    if (!fg_general.has_value()) continue;  // unreachable: all similar
    const double generalization = watch.elapsed_seconds();

    ScheduleResult schedule;
    schedule.fingerprint = fg_trials.digests[cls[0]];
    schedule.support = static_cast<int>(cls.size());
    BenchmarkResult& result = schedule.result;
    result.system = recorder->name();
    result.benchmark = program.name;
    result.generalized_background = bg_general->graph;
    result.generalized_foreground = std::move(fg_general->graph);
    result.trials_run = static_cast<int>(cls.size());
    result.trials_unparseable = unparseable;
    result.trials_discarded = static_cast<int>(bg_general->discarded);
    result.transient_properties =
        bg_general->transient_properties + fg_general->transient_properties;
    result.threads_used = pool.thread_count();

    watch.reset();
    CompareResult compared =
        compare_graphs(bg_general->interned, fg_general->interned);
    result.timings = shared;
    result.timings.generalization += generalization;
    result.timings.comparison = watch.elapsed_seconds();
    result.matcher_steps = bg_general->search_stats.steps +
                           fg_general->search_stats.steps +
                           compared.search_stats.steps;
    if (compared.embedding_failed) {
      result.status = BenchmarkStatus::Failed;
      result.failure_reason =
          "background does not embed into this schedule's foreground";
    } else {
      result.result = std::move(compared.benchmark);
      result.dummy_nodes = std::move(compared.dummy_nodes);
      result.status = result.result.empty() ? BenchmarkStatus::Empty
                                            : BenchmarkStatus::Ok;
    }
    out.schedules.push_back(std::move(schedule));
  }

  // Stable: schedules of equal support keep the order they were found in.
  std::stable_sort(out.schedules.begin(), out.schedules.end(),
                   [](const ScheduleResult& a, const ScheduleResult& b) {
                     return a.support > b.support;
                   });
  return out;
}

}  // namespace provmark::core
