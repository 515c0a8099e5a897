#include "core/shard.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench_suite/program.h"
#include "core/report.h"
#include "datalog/escape.h"
#include "datalog/fact_io.h"
#include "runtime/thread_pool.h"
#include "util/atomic_io.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::core {

namespace {

constexpr const char* kCellHeader = "provmark-cell v1";
constexpr const char* kManifestHeader = "provmark-shard v3";
constexpr const char* kManifestName = "shard.manifest";

// -- record syntax ------------------------------------------------------------
// Line-based, space-separated tokens; string fields are quoted with the
// Datalog escape table (escape.h), so ids/labels/values containing
// spaces, quotes or newlines round-trip exactly.

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) datalog::append_escaped(out, c);
  out += '"';
}

/// Tokenize one record line: bare tokens split on spaces, quoted tokens
/// unescaped. Throws on unterminated quotes.
std::vector<std::string> record_tokens(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ') {
      ++i;
      continue;
    }
    std::string token;
    if (line[i] == '"') {
      ++i;
      bool closed = false;
      while (i < line.size()) {
        char c = line[i++];
        if (c == '"') {
          closed = true;
          break;
        }
        if (c == '\\') {
          if (i >= line.size()) break;
          token += datalog::decode_escape(line[i++]);
        } else {
          token += c;
        }
      }
      if (!closed) {
        throw std::runtime_error("shard record: unterminated string in: " +
                                 line);
      }
    } else {
      while (i < line.size() && line[i] != ' ') token += line[i++];
    }
    out.push_back(std::move(token));
  }
  return out;
}

/// Sequential line reader with a one-line failure context.
class RecordReader {
 public:
  explicit RecordReader(const std::string& text) : in_(text) {}

  bool next(std::vector<std::string>* tokens) {
    std::string line;
    while (std::getline(in_, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      *tokens = record_tokens(line);
      return true;
    }
    return false;
  }

  std::vector<std::string> expect(const std::string& keyword,
                                  std::size_t min_tokens) {
    std::vector<std::string> tokens;
    if (!next(&tokens) || tokens.empty() || tokens[0] != keyword ||
        tokens.size() < min_tokens) {
      throw std::runtime_error("shard record: expected '" + keyword +
                               "' line");
    }
    return tokens;
  }

 private:
  std::istringstream in_;
};

std::size_t parse_size(const std::string& s) {
  return static_cast<std::size_t>(std::strtoull(s.c_str(), nullptr, 10));
}

std::uint64_t parse_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

/// %.17g round-trips every IEEE double, so merged artifacts reprint the
/// exact %.6f bytes the producing process would have written.
void append_double(std::string& out, double value) {
  out += util::format("%.17g", value);
}

BenchmarkStatus parse_status(const std::string& name) {
  if (name == "ok") return BenchmarkStatus::Ok;
  if (name == "empty") return BenchmarkStatus::Empty;
  if (name == "failed") return BenchmarkStatus::Failed;
  throw std::runtime_error("shard record: unknown status " + name);
}

void encode_graph(std::string& out, const char* tag,
                  const graph::PropertyGraph& g) {
  out += util::format("graph %s %zu %zu\n", tag, g.node_count(),
                      g.edge_count());
  // Insertion order, not id order: result_dot and the html report render
  // in this order, so the round-trip must preserve it byte-for-byte.
  for (const graph::Node& n : g.nodes()) {
    out += util::format("n %zu ", n.props.size());
    append_quoted(out, n.id);
    out += ' ';
    append_quoted(out, n.label);
    out += '\n';
    for (const auto& [key, value] : n.props) {
      out += "p ";
      append_quoted(out, key);
      out += ' ';
      append_quoted(out, value);
      out += '\n';
    }
  }
  for (const graph::Edge& e : g.edges()) {
    out += util::format("e %zu ", e.props.size());
    append_quoted(out, e.id);
    out += ' ';
    append_quoted(out, e.src);
    out += ' ';
    append_quoted(out, e.tgt);
    out += ' ';
    append_quoted(out, e.label);
    out += '\n';
    for (const auto& [key, value] : e.props) {
      out += "p ";
      append_quoted(out, key);
      out += ' ';
      append_quoted(out, value);
      out += '\n';
    }
  }
}

graph::Properties decode_props(RecordReader& reader, std::size_t count) {
  graph::Properties props;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::string> tokens = reader.expect("p", 3);
    props.emplace(tokens[1], tokens[2]);
  }
  return props;
}

graph::PropertyGraph decode_graph(RecordReader& reader, const char* tag) {
  std::vector<std::string> header = reader.expect("graph", 4);
  if (header[1] != tag) {
    throw std::runtime_error("shard record: expected graph " +
                             std::string(tag) + ", got " + header[1]);
  }
  const std::size_t nodes = parse_size(header[2]);
  const std::size_t edges = parse_size(header[3]);
  graph::PropertyGraph g;
  for (std::size_t i = 0; i < nodes; ++i) {
    std::vector<std::string> tokens = reader.expect("n", 4);
    g.add_node(tokens[2], tokens[3],
               decode_props(reader, parse_size(tokens[1])));
  }
  for (std::size_t i = 0; i < edges; ++i) {
    std::vector<std::string> tokens = reader.expect("e", 6);
    std::size_t props = parse_size(tokens[1]);
    g.add_edge(tokens[2], tokens[3], tokens[4], tokens[5],
               decode_props(reader, props));
  }
  return g;
}

// Atomic artifact commits (tmp + fsync + rename) live in
// util/atomic_io.h, shared with the streaming service's checkpoint and
// journal-compaction writes.
using util::sync_dir;
using util::write_file_atomic;

ArtifactDigest digest_of(const std::string& content) {
  return ArtifactDigest{util::stable_hash(content), content.size()};
}

/// Publish one artifact into `dir`. On the shard-publish path
/// (`digests` non-null) the *intended* content digest is recorded
/// first and the fault-injection tear hook runs after — so an injected
/// torn write commits bytes that provably mismatch their manifest
/// entry, exactly like a real torn write would.
void publish_file(const std::filesystem::path& dir, const std::string& name,
                  std::string content, ArtifactDigests* digests) {
  if (digests != nullptr) {
    (*digests)[name] = digest_of(content);
    util::fault::tear_content(name, &content);
  }
  write_file_atomic(dir / name, content);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("cannot read " + path.string());
  }
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string manifest_text(const ShardSpec& spec,
                          const ArtifactDigests& digests) {
  std::string out = std::string(kManifestHeader) + "\n";
  out += util::format("shard %d %d\n", spec.shard_id, spec.shard_count);
  out += util::format("seed %llu\n",
                      static_cast<unsigned long long>(spec.seed));
  out += "result-type " + spec.result_type + "\n";
  out += util::format("deterministic-timings %d\n",
                      spec.deterministic_timings ? 1 : 0);
  out += util::format("matrix %zu %llu\n", spec.matrix_cells,
                      static_cast<unsigned long long>(spec.matrix_hash));
  out += util::format("cells %zu\n", spec.cells.size());
  for (const BatchCell& cell : spec.cells) {
    out += util::format("cell %zu ", cell.index);
    append_quoted(out, cell.system);
    out += ' ';
    append_quoted(out, cell.benchmark);
    out += '\n';
  }
  // The integrity section: the intended content digest of every
  // artifact this manifest vouches for. The manifest itself needs no
  // digest — its own torn tail reads as incomplete.
  out += util::format("files %zu\n", digests.size());
  for (const auto& [name, digest] : digests) {
    out += util::format("f %llu %llu ",
                        static_cast<unsigned long long>(digest.hash),
                        static_cast<unsigned long long>(digest.size));
    append_quoted(out, name);
    out += '\n';
  }
  out += "complete\n";
  return out;
}

/// Verify every manifest-listed artifact of `dir` against its recorded
/// digest; returns "" when all bytes match, else a description of the
/// first torn/missing file.
std::string verify_artifacts(const std::filesystem::path& dir,
                             const ArtifactDigests& digests) {
  for (const auto& [name, digest] : digests) {
    std::string bytes;
    try {
      bytes = read_file(dir / name);
    } catch (const std::exception&) {
      return name + " is missing";
    }
    if (digest_of(bytes) != digest) {
      return util::format(
          "%s is torn or tampered (%zu bytes on disk, %llu intended)",
          name.c_str(), bytes.size(),
          static_cast<unsigned long long>(digest.size));
    }
  }
  return "";
}

}  // namespace

ShardSpec parse_shard_manifest(const std::string& text, bool* complete,
                               ArtifactDigests* digests) {
  RecordReader reader(text);
  std::vector<std::string> tokens;
  if (!reader.next(&tokens) || tokens.size() != 2 ||
      tokens[0] + " " + tokens[1] != kManifestHeader) {
    throw std::runtime_error("not a shard manifest");
  }
  ShardSpec spec;
  tokens = reader.expect("shard", 3);
  spec.shard_id = std::atoi(tokens[1].c_str());
  spec.shard_count = std::atoi(tokens[2].c_str());
  spec.seed = parse_u64(reader.expect("seed", 2)[1]);
  spec.result_type = reader.expect("result-type", 2)[1];
  spec.deterministic_timings =
      reader.expect("deterministic-timings", 2)[1] == "1";
  tokens = reader.expect("matrix", 3);
  spec.matrix_cells = parse_size(tokens[1]);
  spec.matrix_hash = parse_u64(tokens[2]);
  const std::size_t cells = parse_size(reader.expect("cells", 2)[1]);
  for (std::size_t i = 0; i < cells; ++i) {
    tokens = reader.expect("cell", 4);
    spec.cells.push_back(BatchCell{parse_size(tokens[1]), tokens[2],
                                   tokens[3]});
  }
  const std::size_t files = parse_size(reader.expect("files", 2)[1]);
  for (std::size_t i = 0; i < files; ++i) {
    tokens = reader.expect("f", 4);
    if (digests != nullptr) {
      (*digests)[tokens[3]] =
          ArtifactDigest{parse_u64(tokens[1]), parse_u64(tokens[2])};
    }
  }
  // Complete means the marker line *and* its terminating newline made
  // it to disk: manifest_text always ends "complete\n", so truncation
  // at every byte offset — including mid-marker — reads as incomplete.
  const bool whole = reader.next(&tokens) && !tokens.empty() &&
                     tokens[0] == "complete" && !text.empty() &&
                     text.back() == '\n';
  if (complete != nullptr) {
    *complete = whole;
  } else if (!whole) {
    throw std::runtime_error(
        "shard manifest is truncated (no complete marker)");
  }
  return spec;
}

// -- planning -----------------------------------------------------------------

ShardSpec ShardPlan::shard(int shard_id) const {
  ShardSpec spec;
  spec.shard_id = shard_id;
  spec.shard_count = shard_count;
  spec.seed = seed;
  spec.result_type = result_type;
  spec.deterministic_timings = deterministic_timings;
  spec.matrix_cells = cells.size();
  spec.matrix_hash = matrix_hash;
  for (const BatchCell& cell : cells) {
    if (static_cast<int>(cell.index % shard_count) == shard_id) {
      spec.cells.push_back(cell);
    }
  }
  return spec;
}

ShardPlan plan_batch(const std::vector<std::string>& systems,
                     const std::vector<std::string>& benchmarks,
                     int shard_count, std::uint64_t seed,
                     const std::string& result_type,
                     bool deterministic_timings) {
  if (shard_count < 1) {
    throw std::invalid_argument("shard count must be >= 1");
  }
  if (systems.empty() || benchmarks.empty()) {
    throw std::invalid_argument("batch matrix is empty");
  }
  ShardPlan plan;
  plan.shard_count = shard_count;
  plan.seed = seed;
  plan.result_type = result_type;
  plan.deterministic_timings = deterministic_timings;
  // The exact single-process sweep order: systems outer, benchmarks
  // inner. Cell index == position in that loop, the key every shard
  // layout and the merge step agree on.
  for (const std::string& system : systems) {
    for (const std::string& benchmark : benchmarks) {
      plan.cells.push_back(
          BatchCell{plan.cells.size(), system, benchmark});
    }
  }
  // Matrix fingerprint: shards carry it so resume and merge can prove
  // they are slices of this sweep, not a same-shaped different one.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const BatchCell& cell : plan.cells) {
    h ^= cell.index;
    h *= 0x100000001B3ULL;
    h ^= util::stable_hash(cell.system);
    h *= 0x100000001B3ULL;
    h ^= util::stable_hash(cell.benchmark);
    h *= 0x100000001B3ULL;
  }
  plan.matrix_hash = h;
  return plan;
}

std::vector<std::string> table_benchmark_names() {
  std::vector<std::string> names;
  for (const bench_suite::BenchmarkProgram& program :
       bench_suite::table_benchmarks()) {
    names.push_back(program.name);
  }
  return names;
}

// -- execution ----------------------------------------------------------------

std::vector<BenchmarkResult> run_batch_cells(
    const std::vector<BatchCell>& cells, const CellRunOptions& options) {
  runtime::ThreadPool& pool = options.pool != nullptr
                                  ? *options.pool
                                  : runtime::default_pool();
  std::vector<BenchmarkResult> results =
      pool.parallel_map<BenchmarkResult>(
          cells, [&](const BatchCell& cell, std::size_t) {
            PipelineOptions pipeline;
            pipeline.system = cell.system;
            pipeline.seed = options.seed;
            pipeline.pool = &pool;
            pipeline.matcher = options.matcher;
            pipeline.simulated_recording_latency =
                options.simulated_recording_latency;
            BenchmarkResult result = run_benchmark(
                bench_suite::benchmark_by_name(cell.benchmark), pipeline);
            // Fault-injection progress hook (no-op unless a crash rule
            // is armed in this worker process).
            util::fault::cell_completed();
            return result;
          });
  if (options.deterministic_timings) {
    for (BenchmarkResult& result : results) {
      result.timings = deterministic_timings(options.seed, result.system,
                                             result.benchmark);
    }
  }
  return results;
}

StageTimings deterministic_timings(std::uint64_t seed,
                                   const std::string& system,
                                   const std::string& benchmark) {
  util::Rng rng(seed ^ util::stable_hash(system + "\x1f" + benchmark));
  StageTimings t;
  // Six decimal places, matching time_log_row's %.6f exactly, so the
  // printed bytes carry the full value.
  t.recording = static_cast<double>(rng.next_below(1000000)) * 1e-6;
  t.transformation = static_cast<double>(rng.next_below(1000000)) * 1e-6;
  t.generalization = static_cast<double>(rng.next_below(1000000)) * 1e-6;
  t.comparison = static_cast<double>(rng.next_below(1000000)) * 1e-6;
  return t;
}

std::string time_log_row(const BenchmarkResult& result) {
  return util::format("%s,%s,%.6f,%.6f,%.6f,%.6f\n", result.system.c_str(),
                      result.benchmark.c_str(), result.timings.recording,
                      result.timings.transformation,
                      result.timings.generalization,
                      result.timings.comparison);
}

void write_batch_outputs(const std::string& dir,
                         const std::vector<BenchmarkResult>& results,
                         const std::string& result_type,
                         ArtifactDigests* digests) {
  std::filesystem::create_directories(dir);
  {
    // time.log appends (the appendix A.6.4 harness accumulates sweeps);
    // the append is implemented as read + extend + atomic rename so a
    // crash mid-sweep can never leave a half-appended row. The other
    // artifacts describe the current sweep and replace wholesale.
    std::string log;
    try {
      log = read_file(std::filesystem::path(dir) / "time.log");
    } catch (const std::exception&) {
      // First sweep into this directory: nothing to carry forward.
    }
    for (const BenchmarkResult& result : results) {
      log += time_log_row(result);
    }
    publish_file(dir, "time.log", std::move(log), digests);
  }
  publish_file(dir, "validation.txt", validation_table(results), digests);
  if (result_type == "rg" || result_type == "rh") {
    for (const BenchmarkResult& result : results) {
      std::string base = result.system + "_" + result.benchmark;
      publish_file(dir, base + ".dot", result_dot(result), digests);
      publish_file(dir, base + ".datalog",
                   "% generalized background\n" +
                       datalog::to_datalog(result.generalized_background,
                                           "bg") +
                       "% generalized foreground\n" +
                       datalog::to_datalog(result.generalized_foreground,
                                           "fg") +
                       "% benchmark result\n" +
                       datalog::to_datalog(result.result, "result"),
                   digests);
    }
  }
  if (result_type == "rh") {
    publish_file(dir, "index.html", html_report(results), digests);
  }
}

// -- cell records -------------------------------------------------------------

std::string encode_cell_record(std::size_t cell_index,
                               const BenchmarkResult& result) {
  std::string out = std::string(kCellHeader) + "\n";
  out += util::format("cell %zu\n", cell_index);
  out += "system ";
  append_quoted(out, result.system);
  out += "\nbenchmark ";
  append_quoted(out, result.benchmark);
  out += util::format("\nstatus %s\nfailure ",
                      status_name(result.status));
  append_quoted(out, result.failure_reason);
  out += "\ntimings ";
  append_double(out, result.timings.recording);
  out += ' ';
  append_double(out, result.timings.transformation);
  out += ' ';
  append_double(out, result.timings.generalization);
  out += ' ';
  append_double(out, result.timings.comparison);
  out += util::format(
      "\ncounters %d %d %d %d %d\n", result.trials_run,
      result.trials_discarded, result.trials_unparseable,
      result.transient_properties, result.threads_used);
  out += util::format(
      "cache %llu %llu %llu\n",
      static_cast<unsigned long long>(result.similarity_cache_hits),
      static_cast<unsigned long long>(result.similarity_cache_lookups),
      static_cast<unsigned long long>(result.matcher_steps));
  out += util::format("dummies %zu\n", result.dummy_nodes.size());
  for (const graph::Id& id : result.dummy_nodes) {
    out += "d ";
    append_quoted(out, id);
    out += '\n';
  }
  encode_graph(out, "result", result.result);
  encode_graph(out, "foreground", result.generalized_foreground);
  encode_graph(out, "background", result.generalized_background);
  out += "end\n";
  return out;
}

BenchmarkResult decode_cell_record(const std::string& text,
                                   std::size_t* cell_index) {
  RecordReader reader(text);
  std::vector<std::string> tokens;
  if (!reader.next(&tokens) || tokens.size() != 2 ||
      tokens[0] + " " + tokens[1] != kCellHeader) {
    throw std::runtime_error("not a shard cell record");
  }
  BenchmarkResult result;
  std::size_t index = parse_size(reader.expect("cell", 2)[1]);
  if (cell_index != nullptr) *cell_index = index;
  result.system = reader.expect("system", 2)[1];
  result.benchmark = reader.expect("benchmark", 2)[1];
  result.status = parse_status(reader.expect("status", 2)[1]);
  result.failure_reason = reader.expect("failure", 2)[1];
  tokens = reader.expect("timings", 5);
  result.timings.recording = std::strtod(tokens[1].c_str(), nullptr);
  result.timings.transformation = std::strtod(tokens[2].c_str(), nullptr);
  result.timings.generalization = std::strtod(tokens[3].c_str(), nullptr);
  result.timings.comparison = std::strtod(tokens[4].c_str(), nullptr);
  tokens = reader.expect("counters", 6);
  result.trials_run = std::atoi(tokens[1].c_str());
  result.trials_discarded = std::atoi(tokens[2].c_str());
  result.trials_unparseable = std::atoi(tokens[3].c_str());
  result.transient_properties = std::atoi(tokens[4].c_str());
  result.threads_used = std::atoi(tokens[5].c_str());
  tokens = reader.expect("cache", 4);
  result.similarity_cache_hits = parse_u64(tokens[1]);
  result.similarity_cache_lookups = parse_u64(tokens[2]);
  result.matcher_steps = parse_u64(tokens[3]);
  const std::size_t dummies = parse_size(reader.expect("dummies", 2)[1]);
  for (std::size_t i = 0; i < dummies; ++i) {
    result.dummy_nodes.push_back(reader.expect("d", 2)[1]);
  }
  result.result = decode_graph(reader, "result");
  result.generalized_foreground = decode_graph(reader, "foreground");
  result.generalized_background = decode_graph(reader, "background");
  reader.expect("end", 1);
  // encode_cell_record always terminates with "end\n"; requiring the
  // trailing newline makes truncation at *every* byte offset — even one
  // that only drops the final newline — a hard parse error instead of a
  // silently accepted record.
  if (text.empty() || text.back() != '\n') {
    throw std::runtime_error("shard record: truncated (no trailing newline)");
  }
  return result;
}

// -- shard directories --------------------------------------------------------

std::string shard_dir_path(const std::string& output_dir, int shard_id) {
  return output_dir + "/shard-" + std::to_string(shard_id);
}

namespace {

/// Parse the decimal pid suffix after the last '.' of a
/// `...staging.<pid>` / `...tmp.<pid>` name; 0 when malformed.
pid_t pid_suffix(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  if (dot == std::string::npos || dot + 1 >= name.size()) return 0;
  long long pid = 0;
  for (std::size_t i = dot + 1; i < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return 0;
    pid = pid * 10 + (name[i] - '0');
    if (pid > 1ll << 30) return 0;
  }
  return static_cast<pid_t>(pid);
}

bool pid_is_dead(pid_t pid) {
  if (pid <= 0) return false;  // malformed: refuse to classify as dead
  return ::kill(pid, 0) != 0 && errno == ESRCH;
}

}  // namespace

std::size_t remove_orphaned_staging(const std::string& output_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::size_t removed = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(output_dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool staging =
        entry.is_directory(ec) && name.find(".staging.") != std::string::npos;
    const bool tmp =
        !entry.is_directory(ec) && name.find(".tmp.") != std::string::npos;
    if (!staging && !tmp) continue;
    if (!pid_is_dead(pid_suffix(name))) continue;
    std::error_code remove_ec;
    fs::remove_all(entry.path(), remove_ec);
    if (!remove_ec) ++removed;
  }
  return removed;
}

std::string write_shard_dir(const std::string& output_dir,
                            const ShardSpec& spec,
                            const std::vector<BenchmarkResult>& results) {
  if (results.size() != spec.cells.size()) {
    throw std::invalid_argument("shard result count does not match spec");
  }
  namespace fs = std::filesystem;
  const std::string dir = shard_dir_path(output_dir, spec.shard_id);
  // Benign-duplicate fast path: a retry or straggler re-dispatch whose
  // sibling already published identical bytes has nothing left to do.
  if (shard_complete(dir, spec)) return dir;

  // Stage everything under a pid-unique sibling, then publish with one
  // directory rename: concurrent duplicate attempts never write the
  // same path, and the final name only ever holds a whole directory.
  const fs::path staging =
      dir + ".staging." + std::to_string(::getpid());
  fs::remove_all(staging);
  fs::create_directories(staging);
  ArtifactDigests digests;
  for (std::size_t i = 0; i < results.size(); ++i) {
    publish_file(staging, util::format("cell-%zu.result",
                                       spec.cells[i].index),
                 encode_cell_record(spec.cells[i].index, results[i]),
                 &digests);
  }
  write_batch_outputs(staging.string(), results, spec.result_type,
                      &digests);
  // The manifest goes last — its "complete" marker plus the digests
  // above are what shard_complete() trusts.
  write_file_atomic(staging / kManifestName,
                    manifest_text(spec, digests));
  sync_dir(staging);

  util::fault::before_publish();  // hang hook (no-op unless armed)

  // First complete publish wins. A failed rename means the final name
  // is occupied: by a complete sibling publish (benign — discard the
  // staging copy) or by a stale incomplete attempt (replace it).
  int err = 0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (::rename(staging.c_str(), dir.c_str()) == 0) {
      sync_dir(fs::path(dir).parent_path());
      return dir;
    }
    err = errno;
    if (shard_complete(dir, spec)) {
      fs::remove_all(staging);
      return dir;
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  fs::remove_all(staging);
  throw std::runtime_error("cannot publish shard directory " + dir + ": " +
                           std::strerror(err));
}

bool shard_complete(const std::string& dir, const ShardSpec& spec) {
  const std::filesystem::path manifest =
      std::filesystem::path(dir) / kManifestName;
  std::error_code ec;
  if (!std::filesystem::exists(manifest, ec)) return false;
  try {
    bool complete = false;
    ArtifactDigests digests;
    ShardSpec recorded =
        parse_shard_manifest(read_file(manifest), &complete, &digests);
    if (!complete || !(recorded == spec)) return false;
    // The manifest alone is not enough: every artifact it vouches for
    // must still carry the exact bytes the worker intended — a torn or
    // tampered file makes the shard incomplete, hence re-run.
    return verify_artifacts(dir, digests).empty();
  } catch (const std::exception&) {
    return false;  // malformed manifest == incomplete shard
  }
}

std::vector<BenchmarkResult> read_shard_results(
    const std::vector<std::string>& dirs, std::string* result_type) {
  if (dirs.empty()) {
    throw std::runtime_error("no shard directories to merge");
  }
  // Per-shard damage — unreadable/truncated manifests, failed digest
  // verification — is retryable: re-running that one shard repairs the
  // sweep. Cross-shard structural conflicts below are fatal.
  std::vector<ShardSpec> specs;
  for (const std::string& dir : dirs) {
    bool complete = false;
    ShardSpec spec;
    ArtifactDigests digests;
    try {
      spec = parse_shard_manifest(
          read_file(std::filesystem::path(dir) / kManifestName), &complete,
          &digests);
    } catch (const std::exception& e) {
      throw ShardRetryableError(-1, dir, dir + ": " + e.what());
    }
    if (!complete) {
      throw ShardRetryableError(spec.shard_id, dir,
                                dir + ": shard artifacts are incomplete");
    }
    const std::string torn =
        verify_artifacts(std::filesystem::path(dir), digests);
    if (!torn.empty()) {
      throw ShardRetryableError(spec.shard_id, dir, dir + ": " + torn);
    }
    specs.push_back(std::move(spec));
  }

  // The shard group must be one coherent sweep, covering every shard id
  // and every matrix cell exactly once.
  const ShardSpec& first = specs.front();
  std::set<int> shard_ids;
  std::size_t total_cells = 0;
  for (const ShardSpec& spec : specs) {
    if (spec.shard_count != first.shard_count || spec.seed != first.seed ||
        spec.result_type != first.result_type ||
        spec.deterministic_timings != first.deterministic_timings ||
        spec.matrix_cells != first.matrix_cells ||
        spec.matrix_hash != first.matrix_hash) {
      throw std::runtime_error(
          "shard manifests disagree (mixed sweeps cannot merge)");
    }
    if (spec.shard_id < 0 || spec.shard_id >= spec.shard_count ||
        !shard_ids.insert(spec.shard_id).second) {
      throw std::runtime_error(util::format(
          "duplicate or out-of-range shard id %d", spec.shard_id));
    }
    total_cells += spec.cells.size();
  }
  if (static_cast<int>(shard_ids.size()) != first.shard_count) {
    // An absent shard is repairable: name the first missing id so
    // cluster scripts know exactly which worker to re-launch.
    for (int id = 0; id < first.shard_count; ++id) {
      if (shard_ids.count(id) == 0) {
        throw ShardRetryableError(
            id, "",
            util::format("merge needs all %d shards; shard %d is missing "
                         "— re-run it and merge again",
                         first.shard_count, id));
      }
    }
  }
  if (total_cells != first.matrix_cells) {
    throw std::runtime_error(util::format(
        "shard cell lists cover %zu of the sweep's %zu matrix cells",
        total_cells, first.matrix_cells));
  }

  std::map<std::size_t, BenchmarkResult> by_index;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (const BatchCell& cell : specs[s].cells) {
      if (cell.index % specs[s].shard_count !=
          static_cast<std::size_t>(specs[s].shard_id)) {
        throw std::runtime_error(util::format(
            "cell %zu does not belong to shard %d", cell.index,
            specs[s].shard_id));
      }
      std::size_t recorded_index = 0;
      BenchmarkResult result;
      const std::string path =
          dirs[s] + util::format("/cell-%zu.result", cell.index);
      try {
        result = decode_cell_record(read_file(path), &recorded_index);
      } catch (const std::exception& e) {
        // Digest verification passed, so this is vanishingly rare
        // (file replaced between the checks) — still repairable by
        // re-running the shard.
        throw ShardRetryableError(specs[s].shard_id, dirs[s],
                                  path + ": " + e.what());
      }
      if (recorded_index != cell.index || result.system != cell.system ||
          result.benchmark != cell.benchmark) {
        throw ShardRetryableError(
            specs[s].shard_id, dirs[s],
            path + ": record does not match its manifest cell");
      }
      if (!by_index.emplace(cell.index, std::move(result)).second) {
        throw std::runtime_error(
            util::format("cell %zu appears in two shards", cell.index));
      }
    }
  }
  std::vector<BenchmarkResult> results;
  results.reserve(by_index.size());
  for (std::size_t i = 0; i < total_cells; ++i) {
    auto it = by_index.find(i);
    if (it == by_index.end()) {
      throw std::runtime_error(
          util::format("cell %zu is missing from every shard", i));
    }
    results.push_back(std::move(it->second));
  }
  if (result_type != nullptr) *result_type = first.result_type;
  return results;
}

}  // namespace provmark::core
