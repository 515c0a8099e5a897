// Pin of the pipeline's bookkeeping counters.
//
// The provbench digests cover a cell's status, result graph and dummy
// nodes. This test pins what they leave out: how many trials a cell ran,
// discarded and could not parse, how many properties generalization
// removed, how many matcher steps the run took and how many similar()
// calls classification made (the hits column is a compat field, always
// 0). A change to how trials are interned, classified or generalized
// that moves any of these numbers fails here, naming the cell. Cells
// are the 54 Table-1 programs on all six recorders plus the generated
// programs gen1..20 on audit x12, opus x16 and camflow x32, at seed 42.
//
// On a mismatch the test prints the whole computed table; a deliberate
// change of these counters replaces pipeline_counters.tsv with it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "runtime/thread_pool.h"

namespace provmark::core {
namespace {

struct Cell {
  std::string system;
  std::string program;
};

std::vector<Cell> counter_cells() {
  std::vector<Cell> cells;
  for (const bench_suite::BenchmarkProgram& program :
       bench_suite::table_benchmarks()) {
    for (const char* system :
         {"spade", "opus", "camflow", "spade-camflow", "audit", "ebpf"}) {
      cells.push_back({system, program.name});
    }
  }
  const std::pair<const char*, int> generated[] = {
      {"audit", 12}, {"opus", 16}, {"camflow", 32}};
  for (const auto& [system, scale] : generated) {
    for (int g = 1; g <= 20; ++g) {
      cells.push_back({system, "gen" + std::to_string(g) + "x" +
                                   std::to_string(scale)});
    }
  }
  return cells;
}

/// `<system>\t<program>\t<status>\t<trials_run>\t<trials_discarded>\t
/// <trials_unparseable>\t<transient_properties>\t<matcher_steps>\t
/// <similarity_cache_hits>\t<similarity_cache_lookups>`.
std::string counter_row(const Cell& cell) {
  runtime::ThreadPool pool(1);
  PipelineOptions options;
  options.system = cell.system;
  options.seed = 42;
  options.pool = &pool;
  options.transform.neo4j_startup_rounds = 1;
  const BenchmarkResult r =
      run_benchmark(bench_suite::benchmark_by_name(cell.program), options);
  std::ostringstream row;
  row << cell.system << '\t' << cell.program << '\t' << status_name(r.status)
      << '\t' << r.trials_run << '\t' << r.trials_discarded << '\t'
      << r.trials_unparseable << '\t' << r.transient_properties << '\t'
      << r.matcher_steps << '\t' << r.similarity_cache_hits << '\t'
      << r.similarity_cache_lookups;
  return row.str();
}

std::vector<std::string> committed_rows() {
  const std::filesystem::path table =
      std::filesystem::path(__FILE__).parent_path() / "pipeline_counters.tsv";
  std::ifstream in(table);
  EXPECT_TRUE(in.good()) << "cannot read " << table;
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

TEST(PipelineCounters, EveryCellsCountersMatchTheCommittedTable) {
  const std::vector<Cell> cells = counter_cells();
  ASSERT_EQ(cells.size(), 384u);
  // Cells fan out over the default pool; each runs on its own one-thread
  // pool, so the counters are those of a serial run.
  const std::vector<std::string> actual =
      runtime::default_pool().parallel_map<std::string>(
          cells,
          [](const Cell& cell, std::size_t) { return counter_row(cell); });
  const std::vector<std::string> expected = committed_rows();
  EXPECT_EQ(expected.size(), cells.size());
  for (std::size_t i = 0; i < cells.size() && i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << cells[i].system << " " << cells[i].program;
  }
  if (actual != expected) {
    std::ostringstream table;
    for (const std::string& row : actual) table << row << '\n';
    ADD_FAILURE() << "computed table:\n" << table.str();
  }
}

}  // namespace
}  // namespace provmark::core
