#include "core/pipeline.h"

#include <optional>
#include <set>

#include "core/trials.h"
#include "matcher/interned.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace provmark::core {

/// If generalization cannot find two consistent runs, retry with twice
/// the trials, up to this many rounds (the paper "runs a larger number
/// of trials" in that case).
constexpr int kMaxRetryRounds = 3;

const char* status_name(BenchmarkStatus status) {
  switch (status) {
    case BenchmarkStatus::Ok: return "ok";
    case BenchmarkStatus::Empty: return "empty";
    case BenchmarkStatus::Failed: return "failed";
  }
  return "?";
}

int default_trials(const std::string& system) {
  if (system == "opus") return 2;   // any two runs are usually consistent
  if (system == "spade") return 6;  // headroom for truncated flushes
  // CamFlow needs the most headroom: interference plus deferred frees
  // fragment the trials into many similarity classes. The paper's own
  // batch run already uses 11 trials for CamFlow (appendix A.6.3); 16
  // keeps the clean class populated even for close-heavy benchmarks.
  if (system == "camflow") return 16;
  if (system == "spade-camflow") return 16;
  // The simulated auditd and BPF tracers have no truncation/interference
  // noise: two trials establish the similarity class.
  if (system == "audit") return 2;
  if (system == "ebpf") return 2;
  return 4;
}

std::vector<graph::Id> BenchmarkResult::disconnected_nodes() const {
  std::set<graph::Id> dummies(dummy_nodes.begin(), dummy_nodes.end());
  std::set<graph::Id> touched;
  for (const graph::Edge& e : result.edges()) {
    touched.insert(e.src);
    touched.insert(e.tgt);
  }
  std::vector<graph::Id> out;
  for (const graph::Node& n : result.nodes()) {
    if (touched.count(n.id) == 0 && dummies.count(n.id) == 0) {
      out.push_back(n.id);
    }
  }
  return out;
}

// The seed of one recording trial — see the header contract: a pure
// function of (run seed, program, variant, trial index), so execution
// order, thread identity and process identity never enter. This is what
// makes the parallel fan-out bit-identical to the serial loop it
// replaced, and what lets the shard planner recompute any matrix slice
// in isolation.
std::uint64_t trial_seed(std::uint64_t run_seed,
                         const std::string& program_name, bool foreground,
                         int trial_index) {
  return util::Rng(run_seed ^ util::stable_hash(program_name))
      .fork(static_cast<std::uint64_t>(trial_index) * 2 +
            (foreground ? 1 : 0))
      .next_u64();
}

BenchmarkResult run_benchmark(const bench_suite::BenchmarkProgram& program,
                              const PipelineOptions& options) {
  BenchmarkResult result;
  result.benchmark = program.name;

  runtime::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : runtime::default_pool();
  result.threads_used = pool.thread_count();

  std::shared_ptr<systems::Recorder> recorder = options.recorder;
  if (!recorder) {
    recorder = systems::make_recorder(options.system);
  }
  result.system = recorder->name();

  int trials = options.trials > 0 ? options.trials
                                  : default_trials(recorder->name());

  // Run-wide state persisting across retry rounds: each trial is
  // recorded, parsed, hashed, interned and classified exactly once (its
  // properties interned only if a generalization reads them), so a retry
  // only pays for the matcher calls its new trials introduce.
  graph::SymbolTable symbols;
  TrialSet bg_trials, fg_trials;
  int trials_recorded = 0;  // per variant
  int unparseable = 0;
  std::optional<GeneralizeResult> bg_general, fg_general;
  std::optional<CompareResult> compared;
  std::string behaviour_error;

  // Stage-boundary cancellation (PipelineOptions::cancel): checked
  // between stages so a cancelled run stops within one stage's worth of
  // work without ever interrupting a matcher or Datalog inner loop.
  auto cancelled = [&options, &result]() {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      result.status = BenchmarkStatus::Failed;
      result.failure_reason = "cancelled";
      return true;
    }
    return false;
  };
  if (cancelled()) return result;

  // Retry loop: when generalization cannot find two consistent runs, or
  // the background does not embed into the foreground (inconsistently
  // chosen representative classes — the §3.4 failure mode), run more
  // trials, as the paper's recording subsystem does.
  for (int round = 0; round <= kMaxRetryRounds; ++round) {
    int already = trials_recorded;
    int want = round == 0 ? trials : already;  // double on each retry

    // -- (1) recording ------------------------------------------------------
    util::Stopwatch watch;
    std::string failure = record_trials(program, *recorder, options, already,
                                        want, bg_trials, fg_trials, pool);
    if (behaviour_error.empty()) behaviour_error = std::move(failure);
    trials_recorded += want;
    result.timings.recording += watch.elapsed_seconds();
    if (cancelled()) return result;

    // -- (2) transformation (new trials only) -------------------------------
    watch.reset();
    unparseable += read_trials(already, want, options.transform, symbols,
                               bg_trials, fg_trials, pool);
    result.timings.transformation += watch.elapsed_seconds();
    if (cancelled()) return result;

    // -- (3) generalization -------------------------------------------------
    watch.reset();
    bg_general = bg_trials.generalize(symbols);
    fg_general = fg_trials.generalize(symbols);
    result.timings.generalization += watch.elapsed_seconds();
    if (bg_general.has_value()) {
      result.matcher_steps += bg_general->search_stats.steps;
    }
    if (fg_general.has_value()) {
      result.matcher_steps += fg_general->search_stats.steps;
    }
    result.trials_unparseable = unparseable;

    result.trials_run = trials_recorded;
    if (cancelled()) return result;
    if (!bg_general.has_value() || !fg_general.has_value()) continue;

    // -- (4) comparison -----------------------------------------------------
    watch.reset();
    compared = compare_graphs(bg_general->interned, fg_general->interned);
    result.timings.comparison += watch.elapsed_seconds();
    result.matcher_steps += compared->search_stats.steps;
    if (!compared->embedding_failed) break;
    if (cancelled()) return result;
  }

  result.similarity_cache_lookups =
      bg_trials.classes.comparisons() + fg_trials.classes.comparisons();

  if (!behaviour_error.empty()) {
    result.status = BenchmarkStatus::Failed;
    result.failure_reason = "target behaviour check failed: " +
                            behaviour_error;
    // Failure-case benchmarks mark ops expect_failure instead; reaching
    // this means the benchmark itself is broken. Continue anyway so the
    // caller can inspect partial results.
  }

  if (!bg_general.has_value() || !fg_general.has_value()) {
    result.status = BenchmarkStatus::Failed;
    result.failure_reason = "no two consistent recordings after retries";
    return result;
  }

  result.generalized_background = std::move(bg_general->graph);
  result.generalized_foreground = std::move(fg_general->graph);
  result.trials_discarded = static_cast<int>(bg_general->discarded +
                                             fg_general->discarded);
  result.transient_properties =
      bg_general->transient_properties + fg_general->transient_properties;

  if (!compared.has_value() || compared->embedding_failed) {
    result.status = BenchmarkStatus::Failed;
    result.failure_reason =
        "background graph does not embed into foreground graph";
    return result;
  }
  result.result = std::move(compared->benchmark);
  result.dummy_nodes = std::move(compared->dummy_nodes);
  if (result.failure_reason.empty()) {
    result.status = result.result.empty() ? BenchmarkStatus::Empty
                                          : BenchmarkStatus::Ok;
  }
  return result;
}

}  // namespace provmark::core
