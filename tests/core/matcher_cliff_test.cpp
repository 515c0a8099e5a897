// Regression gate for the matcher's exponential cliff on generated
// programs. Audit-style graphs at generator scale >= 20 drove the old
// PropertyCost candidate order into search trees too large to finish
// (`run audit gen7x32` ran for minutes); the WL-scarcity order proves
// every optimum in a few hundred steps. The bound below is on search
// steps, which are deterministic, not on wall-clock time.
#include <gtest/gtest.h>

#include <string>

#include "bench_suite/program.h"
#include "core/pipeline.h"

namespace provmark::core {
namespace {

/// Worst per-cell matcher_steps measured over these cells is 255; the
/// bound leaves headroom without admitting an exponential blow-up.
constexpr std::uint64_t kMaxCellSteps = 1000;

TEST(MatcherCliff, GeneratedProgramsFinishInBoundedSteps) {
  std::uint64_t worst = 0;
  std::string worst_cell;
  for (const char* system : {"audit", "opus"}) {
    for (int scale : {24, 32, 64}) {
      for (int seed = 1; seed <= 20; ++seed) {
        const std::string name =
            "gen" + std::to_string(seed) + "x" + std::to_string(scale);
        PipelineOptions options;
        options.system = system;
        // Modeled costs off: no simulated recorder wait, one Neo4j
        // startup round (the benchmark's cell configuration).
        options.simulated_recording_latency = 0;
        options.transform.neo4j_startup_rounds = 1;
        BenchmarkResult result =
            run_benchmark(bench_suite::benchmark_by_name(name), options);
        const std::string cell = std::string(system) + " " + name;
        EXPECT_NE(result.status, BenchmarkStatus::Failed)
            << cell << ": " << result.failure_reason;
        EXPECT_LE(result.matcher_steps, kMaxCellSteps) << cell;
        if (result.matcher_steps > worst) {
          worst = result.matcher_steps;
          worst_cell = cell;
        }
      }
    }
  }
  RecordProperty("worst_cell", worst_cell);
  RecordProperty("worst_steps", std::to_string(worst));
}

}  // namespace
}  // namespace provmark::core
