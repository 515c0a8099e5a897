// The ProvMark pipeline (Figure 3): recording -> transformation ->
// generalization -> comparison, orchestrated per (benchmark, system) with
// per-stage wall-clock timing for the Figures 5-10 reproductions.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_suite/program.h"
#include "core/compare.h"
#include "core/generalize.h"
#include "core/transform.h"
#include "graph/property_graph.h"
#include "systems/recorder.h"

namespace provmark::runtime {
class ThreadPool;
}

namespace provmark::core {

struct PipelineOptions {
  /// Provenance system to benchmark, any name systems::make_recorder
  /// takes: "spade" | "opus" | "camflow" | "spade-camflow" | "audit" |
  /// "ebpf". Ignored when `recorder` is supplied.
  std::string system = "spade";
  /// Custom (e.g. reconfigured) recorder instance; overrides `system`.
  std::shared_ptr<systems::Recorder> recorder;
  /// Trials per program variant; 0 = per-system default (OPUS runs are
  /// stable so 2 suffice; SPADE and CamFlow need more, §3.2).
  int trials = 0;
  std::uint64_t seed = 42;
  /// Thread pool for the parallel phases, trial recording and reading;
  /// classification and generalization run serially on the calling
  /// thread. nullptr = the process-wide runtime::default_pool(). Results
  /// are bit-identical at any thread count: every trial derives its
  /// randomness from (seed, trial index), never from scheduling.
  runtime::ThreadPool* pool = nullptr;
  /// Simulated wall-clock wait per recording trial, in seconds. The real
  /// recorders spend most of each trial *waiting* — daemon start/stop,
  /// audit flush, Neo4j commit — which dominates Figures 5-7; the
  /// simulated recorders run instantaneously. Setting this restores the
  /// paper's recording-bound cost profile (trials overlap on the pool,
  /// so it also exercises the parallel runtime the way production
  /// recording does). Affects timings only, never results.
  ///   0   (the default): no simulated latency — tests stay instantaneous
  ///   > 0: this many seconds per trial, overriding the per-system table
  ///   < 0: the system's calibrated default from
  ///        systems::calibrated_recording_latency(), which scales each
  ///        recorder to the Figures 5-7 recording-time profile
  double simulated_recording_latency = 0;
  TransformOptions transform;
  /// Compat, unread: provbench pipeline_bench.cpp:436; ROADMAP item 9.
  GeneralizeOptions generalize;
  /// Compat, unread: provbench pipeline_bench.cpp:461; ROADMAP item 9.
  CompareOptions compare;
  /// Cooperative cancellation for long-lived hosts (the streaming
  /// service's graceful shutdown): when non-null and set, run_benchmark
  /// stops at the next stage boundary and returns a Failed result with
  /// failure_reason "cancelled". A cancelled run is abandoned work, not
  /// an error state — the serve layer leaves the triggering event
  /// journaled and un-applied, so the next recovery replays it in full.
  /// Checks sit between stages, never inside the matcher or Datalog
  /// inner loops, so cancellation can lag by one stage.
  const std::atomic<bool>* cancel = nullptr;
  /// Compat, unread: provbench pipeline_bench.cpp:437,462; ROADMAP item 9.
  matcher::SearchConfig matcher;
};

/// Seconds spent in each subsystem (the bar segments of Figures 5-10).
struct StageTimings {
  double recording = 0;
  double transformation = 0;
  double generalization = 0;
  double comparison = 0;

  double processing_total() const {
    return transformation + generalization + comparison;
  }
};

enum class BenchmarkStatus {
  /// Non-empty benchmark result: the target activity was recorded.
  Ok,
  /// Foreground and background generalized to similar graphs: the target
  /// activity is invisible to this recorder.
  Empty,
  /// The pipeline could not produce a result (no consistent runs, or the
  /// background did not embed into the foreground).
  Failed,
};

const char* status_name(BenchmarkStatus status);

struct BenchmarkResult {
  std::string system;
  std::string benchmark;
  BenchmarkStatus status = BenchmarkStatus::Failed;
  std::string failure_reason;

  graph::PropertyGraph result;  ///< the target-activity subgraph
  std::vector<graph::Id> dummy_nodes;
  graph::PropertyGraph generalized_foreground;
  graph::PropertyGraph generalized_background;

  StageTimings timings;
  int trials_run = 0;        ///< per variant, including retries
  int trials_discarded = 0;  ///< singleton similarity classes (both variants)
  int trials_unparseable = 0;  ///< garbled recorder output (excluded early)
  int transient_properties = 0;  ///< stripped during generalization
  int threads_used = 1;  ///< pool width the run executed on

  /// Compat, always 0: provbench pipeline_bench.cpp:546; ROADMAP item 9.
  std::uint64_t similarity_cache_hits = 0;
  /// Compat name (provbench pipeline_bench.cpp:547; ROADMAP item 9): the
  /// matcher::similar calls that similarity classification made, over
  /// both variants and all retry rounds. No pair is posed twice.
  std::uint64_t similarity_cache_lookups = 0;

  /// Branch-and-bound assignment attempts across the generalization
  /// isomorphisms and comparison embeddings of all retry rounds: a
  /// plain sum over stage results.
  std::uint64_t matcher_steps = 0;

  /// Nodes in `result` that are neither dummies nor edge endpoints —
  /// disconnected structure such as SPADE's vfork child (note DV).
  std::vector<graph::Id> disconnected_nodes() const;
};

/// Default trials per system (SPADE and CamFlow need headroom for
/// discarded runs; OPUS is stable).
int default_trials(const std::string& system);

/// The deterministic seed of one recording trial: a pure function of
/// (run seed, benchmark program name, variant, trial index). Execution
/// order, thread identity and process identity never enter, which is
/// the slice API the sharded batch subsystem builds on — any contiguous
/// or strided slice of the (program × system × trials) matrix can be
/// recomputed in isolation, on any host, and lands on exactly the bytes
/// the full single-process sweep would have produced.
std::uint64_t trial_seed(std::uint64_t run_seed,
                         const std::string& program_name, bool foreground,
                         int trial_index);

/// Run the full pipeline for one benchmark program on one system.
BenchmarkResult run_benchmark(const bench_suite::BenchmarkProgram& program,
                              const PipelineOptions& options = {});

}  // namespace provmark::core
