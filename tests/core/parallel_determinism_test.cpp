// Determinism under concurrency: the pipeline's parallel fan-out (trial
// recording and reading; classification and generalization are serial)
// must produce results bit-identical to the serial run at any thread
// count — every trial derives its randomness from (seed, trial index),
// never from scheduling. These tests pin that contract at 1, 4 and 8
// threads, across the noisy recorders (SPADE truncation, CamFlow
// interference) where a scheduling leak would actually change results.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "runtime/thread_pool.h"
#include "systems/spade.h"

namespace provmark::core {
namespace {

BenchmarkResult run_with_threads(const std::string& system,
                                 const std::string& benchmark, int threads,
                                 std::uint64_t seed, int trials = 0) {
  runtime::ThreadPool pool(threads);
  PipelineOptions options;
  options.system = system;
  options.seed = seed;
  options.trials = trials;
  options.pool = &pool;
  return run_benchmark(bench_suite::benchmark_by_name(benchmark), options);
}

/// Full result identity, timings excluded (wall clocks legitimately
/// differ across pool widths).
void expect_identical(const BenchmarkResult& a, const BenchmarkResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.status, b.status) << context;
  EXPECT_EQ(a.failure_reason, b.failure_reason) << context;
  EXPECT_TRUE(a.result == b.result) << context;
  EXPECT_TRUE(a.generalized_foreground == b.generalized_foreground)
      << context;
  EXPECT_TRUE(a.generalized_background == b.generalized_background)
      << context;
  EXPECT_EQ(a.dummy_nodes, b.dummy_nodes) << context;
  EXPECT_EQ(a.trials_run, b.trials_run) << context;
  EXPECT_EQ(a.trials_discarded, b.trials_discarded) << context;
  EXPECT_EQ(a.trials_unparseable, b.trials_unparseable) << context;
  EXPECT_EQ(a.transient_properties, b.transient_properties) << context;
  EXPECT_EQ(a.similarity_cache_lookups, b.similarity_cache_lookups)
      << context;
  EXPECT_EQ(a.similarity_cache_hits, b.similarity_cache_hits) << context;
}

TEST(ParallelDeterminism, CamflowSixteenTrialsIdenticalAt148Threads) {
  // The trial-heaviest configuration: 16 trials per variant, structural
  // interference noise, trials fanned out over the pool.
  BenchmarkResult serial = run_with_threads("camflow", "open", 1, 42);
  for (int threads : {4, 8}) {
    BenchmarkResult parallel =
        run_with_threads("camflow", "open", threads, 42);
    expect_identical(serial, parallel,
                     "camflow threads=" + std::to_string(threads));
  }
}

TEST(ParallelDeterminism, CamflowSweepOverThePoolIdenticalAt148Threads) {
  // The batch shape: six programs swept over the pool while each
  // pipeline's own trial fan-out shares the same workers (a nested
  // parallel_for runs inline), with a simulated recording wait per trial
  // so trials overlap the way real recorder waits do.
  std::vector<bench_suite::BenchmarkProgram> programs;
  for (const char* name : {"open", "execve", "fork", "setuid", "rename"}) {
    programs.push_back(bench_suite::benchmark_by_name(name));
  }
  programs.push_back(bench_suite::scale_benchmark(2));
  auto sweep = [&](int threads) {
    runtime::ThreadPool pool(threads);
    PipelineOptions options;
    options.system = "camflow";
    options.trials = 16;
    options.seed = 42;
    options.pool = &pool;
    options.simulated_recording_latency = 0.001;
    return pool.parallel_map<BenchmarkResult>(
        programs, [&](const bench_suite::BenchmarkProgram& program,
                      std::size_t) { return run_benchmark(program, options); });
  };
  const std::vector<BenchmarkResult> serial = sweep(1);
  for (int threads : {4, 8}) {
    const std::vector<BenchmarkResult> parallel = sweep(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_identical(serial[i], parallel[i],
                       programs[i].name + " threads=" +
                           std::to_string(threads));
    }
  }
}

TEST(ParallelDeterminism, SpadeTruncationNoiseIdenticalAt148Threads) {
  // SPADE's truncated flushes make some trials unparseable; the
  // unparseable count and the retry behaviour must not depend on which
  // thread hit the garbled trial.
  BenchmarkResult serial = run_with_threads("spade", "rename", 1, 7);
  for (int threads : {4, 8}) {
    BenchmarkResult parallel =
        run_with_threads("spade", "rename", threads, 7);
    expect_identical(serial, parallel,
                     "spade threads=" + std::to_string(threads));
  }
}

TEST(ParallelDeterminism, SeedDrivesResultsNotScheduling) {
  // Re-running the same (seed, threads) pair reproduces the result
  // exactly, while a different seed reshuffles the recorder-minted
  // transients (element ids differ even when the structure agrees) —
  // i.e. variation comes from the seed, never from scheduling.
  BenchmarkResult a = run_with_threads("camflow", "open", 4, 1);
  BenchmarkResult a_again = run_with_threads("camflow", "open", 4, 1);
  expect_identical(a, a_again, "same seed, same threads");
  BenchmarkResult b = run_with_threads("camflow", "open", 4, 2);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.result.node_count(), b.result.node_count())
      << "structure is seed-independent for a stable benchmark";
  EXPECT_EQ(a.result.edge_count(), b.result.edge_count());
}

TEST(ParallelDeterminism, HeavyRetryWorkloadIdenticalAcrossThreads) {
  // Aggressive truncation forces retry rounds (doubling trials), the
  // path where cross-round trial reuse and incremental classification
  // meet the pool.
  auto run = [](int threads) {
    runtime::ThreadPool pool(threads);
    systems::SpadeConfig config;
    config.truncation_probability = 0.5;
    PipelineOptions options;
    options.recorder = std::make_shared<systems::SpadeRecorder>(config);
    options.seed = 8;
    options.trials = 8;
    options.pool = &pool;
    return run_benchmark(bench_suite::benchmark_by_name("open"), options);
  };
  BenchmarkResult serial = run(1);
  EXPECT_EQ(serial.status, BenchmarkStatus::Ok);
  for (int threads : {4, 8}) {
    expect_identical(serial, run(threads),
                     "retry threads=" + std::to_string(threads));
  }
}

TEST(ParallelDeterminism, CacheCountersExposedAndConsistent) {
  // similarity_cache_lookups counts the similar() calls classification
  // made; similarity_cache_hits is a compat field and stays 0, since no
  // pair is ever posed twice.
  BenchmarkResult result = run_with_threads("camflow", "open", 4, 42);
  EXPECT_GT(result.similarity_cache_lookups, 0u);
  EXPECT_EQ(result.similarity_cache_hits, 0u);
  EXPECT_EQ(result.threads_used, 4);
}

TEST(ParallelDeterminism, RetryRoundsClassifyOnlyNewTrials) {
  // A retry round classifies only the trials it added, so no pair is
  // posed twice: this run (32 trials per variant after three retries)
  // makes 8 similar() calls. Classifying every trial again each round
  // would make 14, 6 of them repeats of pairs an earlier round solved.
  runtime::ThreadPool pool(4);
  systems::SpadeConfig config;
  config.truncation_probability = 0.7;
  PipelineOptions options;
  options.recorder = std::make_shared<systems::SpadeRecorder>(config);
  options.seed = 8;
  options.trials = 4;
  options.pool = &pool;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("open"), options);
  EXPECT_EQ(result.status, BenchmarkStatus::Ok);
  ASSERT_GT(result.trials_run, 4) << "workload must have retried";
  EXPECT_EQ(result.similarity_cache_hits, 0u);
  EXPECT_EQ(result.similarity_cache_lookups, 8u);
}

}  // namespace
}  // namespace provmark::core
