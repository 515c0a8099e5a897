// Byte-for-byte pin of every native document the recorders write.
//
// For each benchmark cell — the 54 Table-1 programs on all six
// recorders, plus the generated programs gen1..20 on audit x12, opus x16
// and camflow x32 — the pipeline's round-0 trials at the default seed 42
// are recorded exactly as run_benchmark records them, and the FNV-1a hash
// of their documents (background trials, then foreground trials, each in
// trial order) must equal the row committed in native_golden.tsv. Any
// change on the kernel -> recorder -> writer path that moves one byte of
// one document fails here, naming the cell.
//
// On a mismatch the test prints the whole computed table; a deliberate
// change of recorder output replaces native_golden.tsv with it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_suite/executor.h"
#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "runtime/thread_pool.h"
#include "systems/recorder.h"

namespace provmark::core {
namespace {

constexpr std::uint64_t kSeed = 42;

struct Cell {
  std::string system;
  std::string program;
};

std::vector<Cell> golden_cells() {
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

/// FNV-1a over `bytes`, continuing from `hash`.
std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// `<system>\t<program>\t<trials per variant>\t<hash>`: the cell's
/// round-0 documents, each followed by a NUL byte, hashed in order.
std::string golden_row(const Cell& cell) {
  const bench_suite::BenchmarkProgram& program =
      bench_suite::benchmark_by_name(cell.program);
  std::unique_ptr<systems::Recorder> recorder =
      systems::make_recorder(cell.system);
  const int trials = default_trials(recorder->name());
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (bool foreground : {false, true}) {
    for (int i = 0; i < trials; ++i) {
      const std::uint64_t seed =
          trial_seed(kSeed, program.name, foreground, i);
      bench_suite::ExecutionResult run = bench_suite::execute_program(
          program, foreground, seed, recorder->extra_audit_rules());
      const std::string doc = recorder->record(
          run.trace, systems::TrialContext{seed ^ 0xC0FFEEULL});
      hash = fnv1a(hash, doc);
      hash = fnv1a(hash, std::string_view("\0", 1));
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return cell.system + '\t' + cell.program + '\t' + std::to_string(trials) +
         '\t' + hex;
}

std::vector<std::string> committed_rows() {
  const std::filesystem::path table =
      std::filesystem::path(__FILE__).parent_path() / "native_golden.tsv";
  std::ifstream in(table);
  EXPECT_TRUE(in.good()) << "cannot read " << table;
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

TEST(NativeGolden, EveryCellsRoundZeroDocumentsAreByteIdentical) {
  const std::vector<Cell> cells = golden_cells();
  ASSERT_EQ(cells.size(), 384u);
  const std::vector<std::string> actual =
      runtime::default_pool().parallel_map<std::string>(
          cells,
          [](const Cell& cell, std::size_t) { return golden_row(cell); });
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
