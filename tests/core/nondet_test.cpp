#include "core/nondet.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "bench_suite/executor.h"
#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "graph/algorithms.h"
#include "runtime/thread_pool.h"

namespace provmark::core {
namespace {

TEST(NondetProgram, SchedulesVaryPerSeed) {
  bench_suite::BenchmarkProgram program =
      bench_suite::nondeterministic_benchmark(3);
  // Over several seeds the link ops run in different orders, so the
  // number of successful links varies.
  std::set<int> successful_links;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    bench_suite::ExecutionResult run =
        bench_suite::execute_program(program, true, seed);
    EXPECT_TRUE(run.behaviour_ok) << run.failure_reason;
    int links_ok = 0;
    for (const os::LibcEvent& e : run.trace.libc) {
      if (e.function == "link" && e.ret == 0) ++links_ok;
    }
    successful_links.insert(links_ok);
  }
  EXPECT_GT(successful_links.size(), 1u);
}

TEST(NondetProgram, BackgroundIsDeterministic) {
  bench_suite::BenchmarkProgram program =
      bench_suite::nondeterministic_benchmark(3);
  // Background runs exclude the targets entirely; shuffling must not
  // apply to them.
  auto a = bench_suite::execute_program(program, false, 1);
  auto b = bench_suite::execute_program(program, false, 2);
  EXPECT_EQ(a.trace.libc.size(), b.trace.libc.size());
}

TEST(Nondet, GroupsSchedulesAndBenchmarksEach) {
  bench_suite::BenchmarkProgram program =
      bench_suite::nondeterministic_benchmark(3);
  PipelineOptions options;
  options.system = "spade";
  options.seed = 5;
  options.trials = 40;  // spread across schedules
  NondetBenchmarkResult result =
      run_nondeterministic_benchmark(program, options);
  // Several schedule classes observed, each with its own benchmark.
  ASSERT_GE(result.schedules.size(), 2u);
  std::set<std::uint64_t> fingerprints;
  for (const ScheduleResult& schedule : result.schedules) {
    EXPECT_GE(schedule.support, 2);
    EXPECT_EQ(schedule.result.status, BenchmarkStatus::Ok);
    EXPECT_FALSE(schedule.result.result.empty());
    fingerprints.insert(schedule.fingerprint);
  }
  // Fingerprints identify schedules uniquely.
  EXPECT_EQ(fingerprints.size(), result.schedules.size());
  // Schedules are ordered by support.
  for (std::size_t i = 1; i < result.schedules.size(); ++i) {
    EXPECT_GE(result.schedules[i - 1].support,
              result.schedules[i].support);
  }
}

TEST(Nondet, ScheduleResultsDifferStructurally) {
  bench_suite::BenchmarkProgram program =
      bench_suite::nondeterministic_benchmark(3);
  PipelineOptions options;
  options.system = "spade";
  options.seed = 6;
  options.trials = 40;
  NondetBenchmarkResult result =
      run_nondeterministic_benchmark(program, options);
  ASSERT_GE(result.schedules.size(), 2u);
  // Different schedules capture different numbers of successful links:
  // the benchmark result sizes differ.
  std::set<std::size_t> sizes;
  for (const ScheduleResult& schedule : result.schedules) {
    sizes.insert(schedule.result.result.size());
  }
  EXPECT_GT(sizes.size(), 1u);
}

TEST(Nondet, DeterministicProgramYieldsOneSchedule) {
  PipelineOptions options;
  options.system = "opus";
  options.seed = 7;
  options.trials = 6;
  NondetBenchmarkResult result = run_nondeterministic_benchmark(
      bench_suite::benchmark_by_name("open"), options);
  ASSERT_EQ(result.schedules.size(), 1u);
  EXPECT_EQ(result.schedules[0].support, 6);
  EXPECT_EQ(result.schedules[0].result.status, BenchmarkStatus::Ok);
}

// A deterministic program has one schedule, and run_benchmark would
// generalize the same two trials of each variant and compare the same
// graphs: the schedule's result carries the counters run_benchmark
// reports for the same trials, and its stage timings are measured.
TEST(Nondet, OneScheduleCarriesRunBenchmarksCounters) {
  for (const char* system : {"spade", "opus", "audit"}) {
    runtime::ThreadPool pool(3);
    PipelineOptions options;
    options.system = system;
    options.seed = 7;
    options.trials = 8;
    options.pool = &pool;
    options.transform.neo4j_startup_rounds = 1;
    const bench_suite::BenchmarkProgram& program =
        bench_suite::benchmark_by_name("close");
    NondetBenchmarkResult nondet =
        run_nondeterministic_benchmark(program, options);
    BenchmarkResult run = run_benchmark(program, options);
    ASSERT_EQ(nondet.schedules.size(), 1u) << system;
    ASSERT_EQ(run.trials_run, 8) << system;
    const BenchmarkResult& got = nondet.schedules[0].result;
    EXPECT_EQ(got.status, run.status) << system;
    EXPECT_TRUE(got.result == run.result) << system;
    EXPECT_EQ(got.threads_used, 3) << system;
    EXPECT_EQ(got.trials_unparseable, run.trials_unparseable) << system;
    EXPECT_EQ(got.matcher_steps, run.matcher_steps) << system;
    EXPECT_GT(got.matcher_steps, 0u) << system;
    EXPECT_EQ(got.transient_properties, run.transient_properties) << system;
    EXPECT_GT(got.transient_properties, 0) << system;
    EXPECT_EQ(nondet.unsupported_schedules, 0) << system;
    EXPECT_EQ(got.trials_discarded, run.trials_discarded) << system;
    EXPECT_GT(got.timings.recording, 0.0) << system;
    EXPECT_GT(got.timings.transformation, 0.0) << system;
    EXPECT_GT(got.timings.generalization, 0.0) << system;
    EXPECT_GT(got.timings.comparison, 0.0) << system;
  }
}

struct GoldenSchedule {
  std::uint64_t fingerprint;
  int support;
  const char* status;
  const char* summary;
  int transient_properties;
  int trials_discarded;
};

struct GoldenRun {
  const char* system;
  int unsupported_schedules;
  std::vector<GoldenSchedule> schedules;
};

// bench_ext_nondeterminism's configuration: the 3-thread chain at seed 31
// with 48 foreground trials. The values are the schedules the
// nondeterministic pipeline reports for it, with each schedule's
// transient-property and discarded-trial counters; any change to how
// trials are recorded, read, grouped, generalized or compared shows here.
TEST(Nondet, GoldenSchedulesOfTheExtensionBench) {
  const std::vector<GoldenRun> golden = {
      {"spade", 0,
       {{0x85b41a3bfd289258ULL, 21, "ok",
         "2 nodes, 1 edges, 1 components, 6 properties", 56, 0},
        {0x832191ece789aa40ULL, 10, "ok",
         "3 nodes, 4 edges, 1 components, 13 properties", 62, 0},
        {0x59112a17306045ddULL, 9, "ok",
         "4 nodes, 7 edges, 1 components, 20 properties", 68, 0}}},
      {"opus", 0,
       {{0xe2a49c5ea9c5c798ULL, 20, "ok",
         "9 nodes, 10 edges, 1 components, 26 properties", 33, 0},
        {0xe561e50ec58037adULL, 13, "ok",
         "9 nodes, 10 edges, 1 components, 25 properties", 33, 0},
        {0x623b0446f4487cfaULL, 10, "ok",
         "8 nodes, 9 edges, 1 components, 21 properties", 33, 0},
        {0x05e385ccfeab373bULL, 5, "ok",
         "10 nodes, 11 edges, 1 components, 31 properties", 31, 0}}},
      {"camflow", 2,
       {{0xff834290c74dadefULL, 19, "ok",
         "3 nodes, 3 edges, 1 components, 7 properties", 30, 1},
        {0x6285901d16d90383ULL, 9, "ok",
         "5 nodes, 7 edges, 1 components, 13 properties", 32, 1},
        {0xefaccdb668183956ULL, 6, "ok",
         "4 nodes, 5 edges, 1 components, 10 properties", 31, 1},
        {0xbd7d95301d58cd88ULL, 5, "ok",
         "6 nodes, 6 edges, 2 components, 13 properties", 34, 1},
        {0xe5c7823a0efaf2d4ULL, 5, "ok",
         "5 nodes, 4 edges, 2 components, 10 properties", 33, 1},
        {0x2874ba9b8e9d6affULL, 2, "ok",
         "5 nodes, 6 edges, 1 components, 12 properties", 32, 1}}},
  };
  for (const GoldenRun& run : golden) {
    PipelineOptions options;
    options.system = run.system;
    options.seed = 31;
    options.trials = 48;
    NondetBenchmarkResult result = run_nondeterministic_benchmark(
        bench_suite::nondeterministic_benchmark(3), options);
    EXPECT_EQ(result.trials_run, 48) << run.system;
    EXPECT_EQ(result.unsupported_schedules, run.unsupported_schedules)
        << run.system;
    ASSERT_EQ(result.schedules.size(), run.schedules.size()) << run.system;
    for (std::size_t i = 0; i < run.schedules.size(); ++i) {
      const ScheduleResult& got = result.schedules[i];
      const GoldenSchedule& want = run.schedules[i];
      std::string context = std::string(run.system) + " schedule " +
                            std::to_string(i);
      EXPECT_EQ(got.fingerprint, want.fingerprint) << context;
      EXPECT_EQ(got.support, want.support) << context;
      EXPECT_STREQ(status_name(got.result.status), want.status) << context;
      EXPECT_EQ(graph::structure_summary(got.result.result), want.summary)
          << context;
      EXPECT_EQ(got.result.transient_properties, want.transient_properties)
          << context;
      EXPECT_EQ(got.result.trials_discarded, want.trials_discarded)
          << context;
    }
  }
}

NondetBenchmarkResult run_on(const std::string& system, int pool_threads) {
  runtime::ThreadPool pool(pool_threads);
  PipelineOptions options;
  options.system = system;
  options.seed = 5;
  options.trials = 40;
  options.pool = &pool;
  return run_nondeterministic_benchmark(
      bench_suite::nondeterministic_benchmark(3), options);
}

// Trials derive their randomness from (seed, trial index), never from
// scheduling, so the pool width may not change a schedule.
TEST(Nondet, SchedulesAreIndependentOfPoolWidth) {
  for (const char* system : {"spade", "camflow"}) {
    NondetBenchmarkResult serial = run_on(system, 1);
    ASSERT_FALSE(serial.schedules.empty()) << system;
    const std::string context = std::string(system) + " pool 4";
    NondetBenchmarkResult parallel = run_on(system, 4);
    EXPECT_EQ(parallel.trials_run, serial.trials_run) << context;
    EXPECT_EQ(parallel.unsupported_schedules,
              serial.unsupported_schedules)
        << context;
    ASSERT_EQ(parallel.schedules.size(), serial.schedules.size())
        << context;
    for (std::size_t i = 0; i < serial.schedules.size(); ++i) {
      const ScheduleResult& a = serial.schedules[i];
      const ScheduleResult& b = parallel.schedules[i];
      EXPECT_EQ(a.fingerprint, b.fingerprint) << context;
      EXPECT_EQ(a.support, b.support) << context;
      EXPECT_EQ(a.result.status, b.result.status) << context;
      EXPECT_EQ(a.result.failure_reason, b.result.failure_reason)
          << context;
      EXPECT_TRUE(a.result.result == b.result.result) << context;
      EXPECT_EQ(a.result.dummy_nodes, b.result.dummy_nodes) << context;
      EXPECT_TRUE(a.result.generalized_foreground ==
                  b.result.generalized_foreground)
          << context;
      EXPECT_TRUE(a.result.generalized_background ==
                  b.result.generalized_background)
          << context;
    }
  }
}

}  // namespace
}  // namespace provmark::core
