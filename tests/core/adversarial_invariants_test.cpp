// The cross-layer differential harness over generated adversarial
// workloads. Table 1 pins the pipeline on 54 hand-written programs; this
// suite drives it with seeded random programs (hostile identifiers,
// socket/mmap/thread churn, expected-failure probes) and asserts the
// invariants that every layer promises regardless of workload shape:
//
//   * every recorder produces a native document the transformation
//     stage accepts, for all six shipped recorders;
//   * the textual program format and the Datalog fact format round-trip
//     to fixpoints;
//   * serial and parallel pipeline pools give bit-identical results;
//   * a 2-shard batch sweep over generated programs merges to the exact
//     bytes of the single-process sweep.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_suite/executor.h"
#include "bench_suite/generator.h"
#include "bench_suite/program_text.h"
#include "core/pipeline.h"
#include "core/shard.h"
#include "core/transform.h"
#include "datalog/fact_io.h"
#include "runtime/thread_pool.h"
#include "systems/recorder.h"

namespace provmark::core {
namespace {

namespace fs = std::filesystem;

const char* const kAllSystems[] = {"spade",         "opus",  "camflow",
                                   "spade-camflow", "audit", "ebpf"};

bench_suite::BenchmarkProgram program_for_seed(std::uint64_t seed) {
  bench_suite::GeneratorOptions options;
  options.seed = seed;
  options.scale = 8 + static_cast<int>(seed % 12);
  return bench_suite::generate_program(options);
}

// -- invariant 1: every recorder's output is accepted, for 100 programs -----

class AdversarialAcceptanceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdversarialAcceptanceTest, AllSixRecordersProduceAcceptedGraphs) {
  bench_suite::BenchmarkProgram program = program_for_seed(GetParam());

  // The program itself must behave deterministically...
  bench_suite::ExecutionResult plain =
      bench_suite::execute_program(program, true, GetParam());
  ASSERT_TRUE(plain.behaviour_ok) << plain.failure_reason;

  // ...and round-trip through the textual format to a fixpoint.
  std::string text = bench_suite::format_program(program);
  EXPECT_EQ(bench_suite::format_program(bench_suite::parse_program(text)),
            text);

  TransformOptions transform;
  transform.neo4j_startup_rounds = 2;  // correctness, not cost profile
  for (const char* system : kAllSystems) {
    std::unique_ptr<systems::Recorder> recorder =
        systems::make_recorder(system);
    // Re-execute with the recorder's own audit rules installed, exactly
    // as the pipeline's recording stage does.
    bench_suite::ExecutionResult run = bench_suite::execute_program(
        program, true, GetParam(), recorder->extra_audit_rules());
    ASSERT_TRUE(run.behaviour_ok) << system << ": " << run.failure_reason;

    // SPADE (and the hybrid) garble a fraction of trials by design —
    // truncated flushes, §3.2 — and the pipeline's recording stage
    // excludes those via trials_unparseable. Mirror it: walk trial
    // seeds until an accepted trial appears (deterministic for a fixed
    // program seed), and fixpoint-check every trial that does parse.
    bool accepted = false;
    for (std::uint64_t attempt = 0; attempt < 12 && !accepted; ++attempt) {
      systems::TrialContext trial{GetParam() + 1000 * attempt};
      std::string native = recorder->record(run.trace, trial);
      ASSERT_FALSE(native.empty()) << system;

      graph::PropertyGraph g;
      try {
        g = transform_native(native, transform);
      } catch (const std::runtime_error&) {
        continue;  // a garbled trial; the pipeline discards these too
      }
      accepted = true;
      EXPECT_GT(g.node_count(), 0u) << system;

      // The uniform representation must round-trip: graph -> facts ->
      // graph -> facts reaches a fixpoint even with hostile
      // identifiers in paths and property values. (Insertion order is
      // not preserved — the writer sorts by id — so byte equality of
      // the serialized form is the invariant, not operator==.)
      std::string facts = datalog::to_datalog(g, "g1");
      graph::PropertyGraph reparsed =
          datalog::single_graph_from_datalog(facts, "g1");
      EXPECT_EQ(datalog::to_datalog(reparsed, "g1"), facts) << system;
      EXPECT_EQ(reparsed.node_count(), g.node_count()) << system;
      EXPECT_EQ(reparsed.edge_count(), g.edge_count()) << system;
    }
    EXPECT_TRUE(accepted)
        << system << " produced no accepted trial in 12 attempts";
  }
}

INSTANTIATE_TEST_SUITE_P(HundredPrograms, AdversarialAcceptanceTest,
                         ::testing::Range<std::uint64_t>(1, 101));

// -- invariant 2: the full pipeline accepts generated workloads -------------

TEST(AdversarialPipeline, AllSystemsCompleteOnGeneratedPrograms) {
  for (std::uint64_t seed : {3u, 14u, 27u}) {
    bench_suite::BenchmarkProgram program = program_for_seed(seed);
    for (const char* system : kAllSystems) {
      PipelineOptions options;
      options.system = system;
      options.seed = 42 + seed;
      options.transform.neo4j_startup_rounds = 2;
      BenchmarkResult result = run_benchmark(program, options);
      EXPECT_NE(result.status, BenchmarkStatus::Failed)
          << system << " on " << program.name << ": "
          << result.failure_reason;
    }
  }
}

// -- invariant 3: serial/parallel bit-identity ------------------------------

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
}

BenchmarkResult run_generated(const std::string& system, std::uint64_t seed,
                              int pool_threads) {
  runtime::ThreadPool pool(pool_threads);
  PipelineOptions options;
  options.system = system;
  options.seed = 42;
  options.pool = &pool;
  options.transform.neo4j_startup_rounds = 2;
  return run_benchmark(program_for_seed(seed), options);
}

TEST(AdversarialParallelism, PipelinePoolWidthNeverChangesResults) {
  // The noisy recorders (CamFlow interference) and the new record-heavy
  // recorders (audit: one vertex per record) on generated workloads:
  // pool width 1 vs 4 must be bit-identical.
  for (const char* system : {"camflow", "audit", "ebpf"}) {
    BenchmarkResult serial = run_generated(system, 5, 1);
    BenchmarkResult parallel = run_generated(system, 5, 4);
    expect_identical(serial, parallel, std::string(system) + " pool=4");
  }
}

// -- invariant 4: sharded sweeps over generated programs merge exactly ------

/// A scratch directory wiped on construction and destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("provmark_adversarial_test_" + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(AdversarialShard, TwoShardMergeIsByteIdenticalToSingleProcess) {
  // Generated programs are name-addressable ("gen<seed>x<scale>"), so
  // the sharded batch layer can sweep them like Table 1 rows. A 2-shard
  // run over the two new recorders must merge to the exact bytes the
  // single process writes — including the per-cell .dot/.datalog stores
  // ("rg") whose content exercises hostile identifiers end to end.
  const std::vector<std::string> systems = {"audit", "ebpf"};
  const std::vector<std::string> benchmarks = {"gen1x10", "gen2x10",
                                               "gen3x10"};
  ShardPlan plan = plan_batch(systems, benchmarks, 2, 42, "rg",
                              /*deterministic_timings=*/true);

  CellRunOptions cell_options;
  cell_options.seed = 42;
  cell_options.deterministic_timings = true;

  TempDir tmp("merge");
  const std::string single_dir = tmp.str() + "/single";
  fs::create_directories(single_dir);
  write_batch_outputs(single_dir, run_batch_cells(plan.cells, cell_options),
                      "rg");

  std::vector<std::string> shard_dirs;
  for (int k = 0; k < 2; ++k) {
    ShardSpec spec = plan.shard(k);
    ASSERT_FALSE(spec.cells.empty());
    write_shard_dir(tmp.str() + "/sweep", spec,
                    run_batch_cells(spec.cells, cell_options));
    shard_dirs.push_back(shard_dir_path(tmp.str() + "/sweep", k));
  }

  std::string result_type;
  std::vector<BenchmarkResult> merged =
      read_shard_results(shard_dirs, &result_type);
  EXPECT_EQ(result_type, "rg");
  const std::string merged_dir = tmp.str() + "/merged";
  fs::create_directories(merged_dir);
  write_batch_outputs(merged_dir, merged, "rg");

  // Byte-compare every artifact the single-process sweep wrote.
  std::size_t compared = 0;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(single_dir)) {
    if (!entry.is_regular_file()) continue;
    fs::path rel = fs::relative(entry.path(), single_dir);
    EXPECT_EQ(slurp(merged_dir / rel), slurp(entry.path())) << rel;
    ++compared;
  }
  EXPECT_GT(compared, 2u) << "time.log, validation table, stores";

  // And nothing extra appeared on the merged side.
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(merged_dir)) {
    if (!entry.is_regular_file()) continue;
    fs::path rel = fs::relative(entry.path(), merged_dir);
    EXPECT_TRUE(fs::exists(single_dir / rel)) << rel;
  }
}

}  // namespace
}  // namespace provmark::core
