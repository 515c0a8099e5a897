// Sharded batch sweeps: deterministic partition, per-shard artifacts,
// exact merge.
//
// `provmark batch` runs the paper's full benchmark × system matrix
// (appendix A.6.4). A single process saturates at one machine; this
// module partitions that matrix into independent shards so the sweep can
// fan out across worker processes (or cluster jobs) and be recombined
// *exactly* — the merged `time.log`, validation table and `.datalog`
// stores are byte-identical to what one process would have written.
//
// The design leans on the same invariant that made the in-process
// runtime deterministic: every trial's randomness is a pure function of
// (run seed, benchmark name, variant, trial index) — see `trial_seed` in
// core/pipeline.h — so a matrix cell computes the same result whichever
// process, shard layout, or execution order hosts it. The planner only
// has to partition *positions*; correctness of the recombination is then
// a pure serialization problem, solved by cell records that round-trip a
// BenchmarkResult exactly (graphs in insertion order, timings at full
// double precision).
//
// Sharding protocol:
//   1. plan_batch() numbers the (system, benchmark) cells in the exact
//      order the single-process sweep runs them; shard k takes cells
//      with index ≡ k (mod shard_count) — round-robin, so systems with
//      expensive trial counts spread evenly.
//   2. each worker runs its ShardSpec's cells (run_batch_cells) and
//      writes an artifact directory: per-cell records, its slice of
//      time.log / validation table / result stores, and a manifest whose
//      final "complete" line doubles as the resume marker.
//   3. merge (read_shard_results + write_batch_outputs) validates the
//      manifests cover the matrix exactly once, reorders the cells into
//      matrix order, and re-renders the combined artifacts through the
//      same writers the single-process path uses.
//
// Wall-clock stage timings are inherently nondeterministic, so byte
// identity of time.log is asserted under deterministic_timings() — a
// per-cell pure-hash stand-in the CLI enables with
// --deterministic-timings — which also proves the merge routes each
// cell's payload to the right row. Everything else (validation tables,
// graphs, stores) is deterministic under real timings too.
//
// Crash safety (docs/robustness.md): every artifact write goes through
// write-to-`<path>.tmp.<pid>` → fsync → rename, so no reader ever sees
// a half-written file under its final name; a whole shard directory is
// staged under `shard-K.staging.<pid>` and published with one
// directory rename, so duplicate attempts (retries, straggler
// re-dispatch) race benignly — the first complete publish wins. The
// manifest records an FNV-1a content hash and size for every artifact
// it covers; shard_complete (the resume check) and read_shard_results
// (the merge) re-verify those hashes, so a torn or tampered file is
// detected and the shard re-run instead of merged. Merge failures are
// split into ShardRetryableError (this shard is incomplete/torn —
// re-run it) and plain std::runtime_error (structurally mixed sweeps
// that no re-run can fix).
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace provmark::core {

/// A merge/read failure that re-running one shard fixes: its artifacts
/// are missing, incomplete, or fail content-hash verification (torn or
/// tampered files). Cluster scripts branch on this — `provmark merge`
/// exits 3 for it, 1 for fatal (structural) mismatches.
class ShardRetryableError : public std::runtime_error {
 public:
  ShardRetryableError(int shard_id, std::string dir,
                      const std::string& what)
      : std::runtime_error(what), shard_id(shard_id), dir(std::move(dir)) {}

  int shard_id;     ///< shard to re-run, or -1 when unknown
  std::string dir;  ///< offending artifact dir, or "" when missing
};

/// The intended content of one published artifact: FNV-1a hash + size
/// of the bytes the writer meant to produce. Recorded in the shard
/// manifest and re-verified against the on-disk bytes by resume and
/// merge — a crashed or torn write can never pass.
struct ArtifactDigest {
  std::uint64_t hash = 0;
  std::uint64_t size = 0;

  bool operator==(const ArtifactDigest&) const = default;
};

/// Relative artifact name → digest, in deterministic (map) order.
using ArtifactDigests = std::map<std::string, ArtifactDigest>;

/// One cell of the batch matrix: the single-process sweep runs cells in
/// ascending `index` order (systems outer, Table-1 benchmarks inner).
struct BatchCell {
  std::size_t index = 0;
  std::string system;
  std::string benchmark;

  bool operator==(const BatchCell&) const = default;
};

/// The work assigned to one shard: every field a worker needs to run its
/// cells in isolation (and re-run them bit-identically at any time).
///
/// Everything that can change the produced *bytes* is part of the spec
/// and therefore of the resume/merge fingerprint: seed, result type,
/// timing mode, and the whole matrix (count + hash — so shards of two
/// different sweeps can never merge, even when their per-shard cell
/// lists are individually plausible). Thread counts are deliberately
/// excluded: results are bit-identical at any pipeline or matcher
/// worker count.
struct ShardSpec {
  int shard_id = 0;
  int shard_count = 1;
  std::uint64_t seed = 42;
  std::string result_type = "rb";  ///< rb | rg | rh
  bool deterministic_timings = false;
  std::size_t matrix_cells = 0;   ///< total cells in the sweep matrix
  std::uint64_t matrix_hash = 0;  ///< hash of every (index, cell) triple
  std::vector<BatchCell> cells;   ///< this shard's slice, ascending index

  bool operator==(const ShardSpec&) const = default;
};

/// The full deterministic plan for one sweep.
struct ShardPlan {
  int shard_count = 1;
  std::uint64_t seed = 42;
  std::string result_type = "rb";
  bool deterministic_timings = false;
  std::uint64_t matrix_hash = 0;
  std::vector<BatchCell> cells;  ///< the whole matrix, ascending index

  /// Shard k's spec: cells with index % shard_count == k.
  ShardSpec shard(int shard_id) const;
};

/// Plan a sweep of `benchmarks` × `systems` over `shard_count` shards.
/// Cell order matches the single-process batch loop exactly: for each
/// system (in list order), every benchmark (in list order). Throws
/// std::invalid_argument when shard_count < 1 or the matrix is empty.
ShardPlan plan_batch(const std::vector<std::string>& systems,
                     const std::vector<std::string>& benchmarks,
                     int shard_count, std::uint64_t seed,
                     const std::string& result_type,
                     bool deterministic_timings);

/// The Table-1 benchmark names in sweep order (the batch default).
std::vector<std::string> table_benchmark_names();

/// Pipeline configuration shared by every cell of a sweep (the per-cell
/// system/benchmark comes from the cell itself).
struct CellRunOptions {
  std::uint64_t seed = 42;
  runtime::ThreadPool* pool = nullptr;  ///< nullptr = default pool
  matcher::SearchConfig matcher;
  /// See PipelineOptions::simulated_recording_latency (0 = off, > 0 =
  /// per-trial seconds, < 0 = the per-system calibrated table).
  double simulated_recording_latency = 0;
  /// Replace measured stage timings with deterministic_timings() so
  /// time.log is byte-reproducible (the shard identity gates run with
  /// this on).
  bool deterministic_timings = false;
};

/// Run a set of cells (benchmarks resolved by Table-1 name) across the
/// pool, results in cell order. Used by the single-process batch path,
/// shard workers, and the shard benchmark — one executor, so sharded and
/// unsharded sweeps cannot drift.
std::vector<BenchmarkResult> run_batch_cells(
    const std::vector<BatchCell>& cells, const CellRunOptions& options);

/// Pure-hash stand-in stage timings for one cell: stable across runs and
/// processes, distinct across (seed, system, benchmark, stage) — byte
/// identity of a merged time.log under these proves the merge routed
/// every cell's record to the right row.
StageTimings deterministic_timings(std::uint64_t seed,
                                   const std::string& system,
                                   const std::string& benchmark);

/// The appendix A.6.4 time.log line for one result (with trailing
/// newline): system,benchmark,recording,transformation,generalization,
/// comparison.
std::string time_log_row(const BenchmarkResult& result);

/// Write the batch artifacts for `results` (assumed matrix order) into
/// `dir`: time.log rows (appended), validation.txt (the Table-2 style
/// validation table, truncated), and for rg/rh the per-cell .dot and
/// .datalog stores, plus index.html for rh. Shared verbatim by the
/// single-process batch, each shard (over its own slice), and the merge
/// step — the byte-identity guarantee lives here. Every file is
/// published atomically (tmp + fsync + rename). When `digests` is
/// non-null (the shard-publish path), each file's intended content
/// digest is recorded there *before* the bytes hit disk, and the
/// fault-injection tear hook is applied — so an injected torn write
/// produces exactly the detectable state a real crash would.
void write_batch_outputs(const std::string& dir,
                         const std::vector<BenchmarkResult>& results,
                         const std::string& result_type,
                         ArtifactDigests* digests = nullptr);

// -- shard artifact directories ----------------------------------------------

/// Serialize one cell's BenchmarkResult as a self-contained record
/// (quoted/escaped strings, graphs in insertion order, timings at full
/// double precision — the exact fields the batch writers consume).
std::string encode_cell_record(std::size_t cell_index,
                               const BenchmarkResult& result);

/// Inverse of encode_cell_record; throws std::runtime_error on malformed
/// input. `cell_index` receives the recorded matrix position.
BenchmarkResult decode_cell_record(const std::string& text,
                                   std::size_t* cell_index);

/// Write and atomically publish shard `spec`'s artifact directory as
/// `<output_dir>/shard-<id>/`: cell-<index>.result records, the shard's
/// own time.log/validation.txt/stores slice, and shard.manifest (with a
/// content digest per artifact; written last — its final "complete"
/// line is the resume marker). Everything is staged under
/// `shard-<id>.staging.<pid>` and published with a single directory
/// rename, so concurrent duplicate attempts are benign: the first
/// complete publish wins, later ones discard their staging and return
/// the winner's directory. A stale incomplete occupant of the final
/// path is replaced. Returns the shard directory path.
std::string write_shard_dir(const std::string& output_dir,
                            const ShardSpec& spec,
                            const std::vector<BenchmarkResult>& results);

/// Path of shard `shard_id`'s directory under `output_dir`.
std::string shard_dir_path(const std::string& output_dir, int shard_id);

/// Remove orphaned crash leftovers under `output_dir`: staging
/// directories (`shard-K.staging.<pid>`) and atomic-write temporaries
/// (`*.tmp.<pid>`) whose owning process is no longer alive. A SIGKILL'd
/// or signal-forwarded worker can leave both behind; they are dead
/// weight — staging is only ever published by the process that created
/// it. Leftovers of *live* pids are left alone (a concurrent attempt
/// may still publish them). Returns how many entries were removed.
/// The orchestrator calls this once at startup, before spawning
/// workers.
std::size_t remove_orphaned_staging(const std::string& output_dir);

/// Parse a shard.manifest document. With `complete == nullptr` the
/// manifest must be whole — header through the trailing "complete"
/// marker line (newline included) — and std::runtime_error is thrown
/// otherwise, so truncation at *any* byte offset is rejected. With a
/// non-null `complete`, structural truncation still throws but a
/// missing tail only reports `*complete = false`. `digests`, when
/// non-null, receives the per-artifact content digests.
ShardSpec parse_shard_manifest(const std::string& text,
                               bool* complete = nullptr,
                               ArtifactDigests* digests = nullptr);

/// True when `dir` holds a complete, intact artifact directory for
/// exactly `spec`: manifest present, fingerprint matches, "complete"
/// marker written, and every artifact's on-disk bytes match the digest
/// the manifest recorded — the resume check. Torn, truncated, or
/// tampered shards read as incomplete and are re-run.
bool shard_complete(const std::string& dir, const ShardSpec& spec);

/// Load and validate shard artifact directories (in any order): the
/// manifests must agree on (shard_count, seed, result_type, timing
/// mode), cover every shard id exactly once, jointly cover the cell
/// matrix exactly once, and every artifact must pass digest
/// verification. Returns all cell results in matrix order, ready for
/// write_batch_outputs. Per-shard damage (missing/incomplete/torn
/// artifacts, missing shards) throws ShardRetryableError naming the
/// shard to re-run; structural conflicts (mixed sweep fingerprints,
/// duplicate shards, impossible coverage) throw std::runtime_error.
std::vector<BenchmarkResult> read_shard_results(
    const std::vector<std::string>& dirs, std::string* result_type = nullptr);

}  // namespace provmark::core
