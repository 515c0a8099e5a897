#include "core/pipeline.h"

#include <chrono>
#include <deque>
#include <optional>
#include <set>
#include <thread>

#include "bench_suite/executor.h"
#include "graph/graph_view.h"
#include "matcher/interned.h"
#include "matcher/memo.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace provmark::core {

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

namespace {

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

}  // namespace

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
  const std::set<std::string> extra_audit_rules =
      recorder->extra_audit_rules();
  const os::Layer layer = recorder->layer();

  // Resolve the recording-latency sentinel once: a negative scalar asks
  // for the recorder's calibrated default (Figures 5-7 profile; the
  // recorder resolves it, so configuration like SPADE's storage backend
  // is honoured); zero keeps trials instantaneous; positive overrides.
  double recording_latency = options.simulated_recording_latency;
  if (recording_latency < 0) {
    recording_latency = recorder->recording_latency();
  }

  // The run-wide matcher strategy: the pipeline-level config is the
  // single source of truth for both matcher-bound stages.
  GeneralizeOptions generalize_options = options.generalize;
  generalize_options.search = options.matcher;
  CompareOptions compare_options = options.compare;
  compare_options.search = options.matcher;

  // Run-wide state persisting across retry rounds: each trial is
  // recorded, parsed, hashed and interned exactly once; the memo carries
  // similar() verdicts from round to round, so a retry only pays for the
  // matcher calls its new trials introduce.
  graph::SymbolTable symbols;
  TrialSet bg_trials, fg_trials;
  matcher::SimilarityMemo memo;
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
  for (int round = 0; round <= options.max_retry_rounds; ++round) {
    int already = trials_recorded;
    int want = round == 0 ? trials : already;  // double on each retry
    const std::size_t tasks = static_cast<std::size_t>(want) * 2;

    // -- (1) recording ------------------------------------------------------
    // All new trials of both variants fan out together: background tasks
    // [0, want), foreground tasks [want, 2*want). Each task is
    // self-contained (own seed, own recorder trial context), writing its
    // native document into an index-addressed slot.
    util::Stopwatch watch;
    bg_trials.documents.resize(already + want);
    fg_trials.documents.resize(already + want);
    std::vector<std::string> fg_failures(want);
    pool.parallel_for(tasks, [&](std::size_t t) {
      bool foreground = t >= static_cast<std::size_t>(want);
      int i = static_cast<int>(foreground ? t - want : t);
      std::uint64_t seed =
          trial_seed(options.seed, program.name, foreground, already + i);
      if (recording_latency > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(recording_latency));
      }
      bench_suite::ExecutionResult run = bench_suite::execute_program(
          program, foreground, seed, extra_audit_rules, layer);
      if (foreground && !run.behaviour_ok) {
        fg_failures[i] = run.failure_reason;
      }
      systems::TrialContext trial{seed ^ 0xC0FFEEULL};
      (foreground ? fg_trials : bg_trials).documents[already + i] =
          recorder->record(run.trace, trial);
    });
    if (behaviour_error.empty()) {
      for (const std::string& failure : fg_failures) {
        if (!failure.empty()) {
          behaviour_error = failure;
          break;
        }
      }
    }
    trials_recorded += want;
    result.timings.recording += watch.elapsed_seconds();
    if (cancelled()) return result;

    // -- (2) transformation (new trials only) -------------------------------
    // Reading each document into a view is per-trial pure work and runs
    // on the pool; interning (with the digest and the matcher's per-graph
    // invariants) is a short serial tail, since the symbol table is shared
    // by the whole run so every later matcher call can compare any pair.
    watch.reset();
    std::vector<std::optional<graph::GraphView>> parsed(tasks);
    pool.parallel_for(tasks, [&](std::size_t t) {
      bool foreground = t >= static_cast<std::size_t>(want);
      const TrialSet& set = foreground ? fg_trials : bg_trials;
      try {
        parsed[t] = read_native(
            set.documents[already + (foreground ? t - want : t)],
            options.transform);
      } catch (const std::exception&) {
        // Garbled (truncated) output: the trial is a failed run and is
        // excluded before similarity classification.
      }
    });
    for (std::size_t t = 0; t < tasks; ++t) {
      if (!parsed[t].has_value()) {
        ++unparseable;
        continue;
      }
      TrialSet& set =
          t < static_cast<std::size_t>(want) ? bg_trials : fg_trials;
      set.views.push_back(std::move(*parsed[t]));
      set.interned.emplace_back(set.views.back(), symbols);
      set.digests.push_back(set.interned.back().structural_digest());
    }
    result.timings.transformation += watch.elapsed_seconds();
    if (cancelled()) return result;

    // -- (3) generalization -------------------------------------------------
    // The two variants are independent generalization problems; they run
    // concurrently, and each fans its similarity buckets out over the
    // pool (nested parallel_for runs inline on whichever worker got the
    // variant). Sharing one memo is safe and deterministic: entries are
    // per concrete snapshot pair, so equal-digest buckets on the two
    // sides never read each other's verdicts.
    watch.reset();
    std::vector<const matcher::InternedGraph*> bg_ptrs = bg_trials.pointers();
    std::vector<const matcher::InternedGraph*> fg_ptrs = fg_trials.pointers();
    pool.parallel_for(2, [&](std::size_t side) {
      if (side == 0) {
        bg_general = generalize_trials(bg_ptrs, bg_trials.digests,
                                       generalize_options, &memo, &pool);
      } else {
        fg_general = generalize_trials(fg_ptrs, fg_trials.digests,
                                       generalize_options, &memo, &pool);
      }
    });
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
    matcher::InternedGraph bg_interned(bg_general->graph, symbols);
    matcher::InternedGraph fg_interned(fg_general->graph, symbols);
    compared = compare_graphs(bg_interned, fg_interned, compare_options);
    result.timings.comparison += watch.elapsed_seconds();
    result.matcher_steps += compared->search_stats.steps;
    if (!compared->embedding_failed) break;
    if (cancelled()) return result;
  }

  result.similarity_cache_hits = memo.hits();
  result.similarity_cache_lookups = memo.lookups();

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

  result.generalized_background = bg_general->graph;
  result.generalized_foreground = fg_general->graph;
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
