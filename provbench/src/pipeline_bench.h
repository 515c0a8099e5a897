// The two pipeline workloads: table1_sweep (all 54 Table-1 programs on
// all 6 recorders, recording- and transformation-bound) and gen_matcher
// (20 generated programs on audit/opus/camflow, bound by the matcher).
// Both run every cell through core::run_benchmark on a fixed pool width
// with modeled costs off, and check every result graph byte for byte
// against a committed digest.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/pipeline.h"

namespace provbench {

namespace core = provmark::core;
namespace graph = provmark::graph;
namespace runtime = provmark::runtime;

/// Pool width of both pipeline workloads (cells run concurrently on it).
inline constexpr int kPipelineWidth = 4;

/// A gen_matcher cell still running after this long is on the matcher
/// cliff: the run stops and names the cell instead of timing it.
inline constexpr double kCellCapSeconds = 10.0;

struct Cell {
  std::string system;
  std::string program;
  std::string key() const { return system + "/" + program; }
};

/// The workload's cells in dispatch order. The cell set is fixed; the
/// seed selects the pipeline run seed (see pipeline_seed).
std::vector<Cell> workload_cells(const std::string& workload);

/// The pipeline run seeds whose result digests are committed.
const std::vector<std::uint64_t>& pipeline_seed_pool();

/// The run seed the benchmark seed selects: 42 + (seed - 42) mod 8, so
/// the default seed 42 runs the repository's default pipeline seed.
std::uint64_t pipeline_seed(std::uint64_t bench_seed);

/// run_benchmark options of every benchmark cell: default matcher
/// config, simulated recording latency 0, one Neo4j startup round.
core::PipelineOptions cell_options(const Cell& cell, std::uint64_t seed,
                                   runtime::ThreadPool* pool);

/// Byte digest (16 hex digits, FNV-1a) of a cell's output: its status,
/// the result graph as Datalog facts and its dummy nodes.
std::string result_digest(core::BenchmarkStatus status,
                          const graph::PropertyGraph& result,
                          const std::vector<graph::Id>& dummy_nodes);

/// Committed digests: (pipeline seed, cell key) -> digest.
using ExpectedDigests = std::map<std::pair<std::uint64_t, std::string>,
                                 std::string>;
ExpectedDigests load_expected(const std::filesystem::path& path);

/// Recompute every cell of both pipeline workloads at every pool seed
/// and write the digest table (run once when the program's output
/// changes on purpose).
void write_expected(const std::filesystem::path& path);

/// The untraced run: set up (median of cold warm-up sweeps), then sweep
/// repeatedly for `seconds`, checking every cell's digest.
RunResult run_pipeline(const std::string& workload, std::uint64_t seed,
                       double seconds, const ExpectedDigests& expected);

/// The pipeline half of a traced run over `cells`: drives round 0 of
/// every cell through the stage entry points under spans, checks each
/// cell that needed no retry against the committed digest, and fills
/// the pipeline per-layer metrics. Spans go to `spans_path`.
void trace_pipeline(const std::vector<Cell>& cells, std::uint64_t seed,
                    double seconds, const ExpectedDigests& expected,
                    const std::filesystem::path& spans_path,
                    RunResult& out);

}  // namespace provbench
