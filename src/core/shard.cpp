#include "core/shard.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "bench_suite/program.h"
#include "core/report.h"
#include "datalog/fact_io.h"
#include "runtime/thread_pool.h"
#include "util/atomic_io.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::core {

namespace {

constexpr const char* kCellHeader = "provmark-cell v2";
constexpr const char* kManifestHeader = "provmark-shard v4";
constexpr const char* kManifestName = "shard.manifest";

// -- record syntax ------------------------------------------------------------
// One line per record, read by util::FieldReader: fields separated by
// spaces, string fields escaped with util::escape_field, so ids, labels
// and values containing spaces, tabs or newlines round-trip exactly.

/// Appends ' ' and `s` as one escaped field.
void append_field(std::string& out, std::string_view s) {
  out += ' ';
  out += util::escape_field(s);
}

/// The lines of a cell record or manifest, in order.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  /// The next line; empty once the text is used up.
  std::string_view line() {
    const std::size_t nl = std::min(rest_.find('\n'), rest_.size());
    const std::string_view line = rest_.substr(0, nl);
    rest_.remove_prefix(std::min(nl + 1, rest_.size()));
    return line;
  }

  /// The next line, `<keyword>` and then exactly `values` fields, read
  /// up to its values.
  util::FieldReader next(std::string_view keyword, std::size_t values) {
    util::FieldReader fields(line());
    fields.expect(keyword);
    if (fields.left() != values) {
      throw std::invalid_argument(util::format(
          "'%s' line has %zu values, not %zu", std::string(keyword).c_str(),
          fields.left(), values));
    }
    return fields;
  }

 private:
  std::string_view rest_;
};

/// A count or id stored as an int: an unsigned number up to INT_MAX.
int read_int(util::FieldReader& fields, std::string_view what) {
  const auto value = fields.number<unsigned>(what);
  if (!std::in_range<int>(value)) {
    throw std::invalid_argument(std::string(what) + " '" +
                                std::to_string(value) + "' is out of range");
  }
  return static_cast<int>(value);
}

/// %.17g round-trips every IEEE double, so merged artifacts reprint the
/// exact %.6f bytes the producing process would have written.
void append_double(std::string& out, double value) {
  out += util::format("%.17g", value);
}

BenchmarkStatus parse_status(std::string_view name) {
  if (name == "ok") return BenchmarkStatus::Ok;
  if (name == "empty") return BenchmarkStatus::Empty;
  if (name == "failed") return BenchmarkStatus::Failed;
  throw std::invalid_argument("unknown status '" + std::string(name) + "'");
}

void encode_properties(std::string& out, const graph::Properties& props) {
  for (const auto& [key, value] : props) {
    out += 'p';
    append_field(out, key);
    append_field(out, value);
    out += '\n';
  }
}

void encode_graph(std::string& out, const char* tag,
                  const graph::PropertyGraph& g) {
  out += util::format("graph %s %zu %zu\n", tag, g.node_count(),
                      g.edge_count());
  // Insertion order, not id order: result_dot and the html report render
  // in this order, so the round-trip must preserve it byte-for-byte.
  for (const graph::Node& n : g.nodes()) {
    out += util::format("n %zu", n.props.size());
    append_field(out, n.id);
    append_field(out, n.label);
    out += '\n';
    encode_properties(out, n.props);
  }
  for (const graph::Edge& e : g.edges()) {
    out += util::format("e %zu", e.props.size());
    append_field(out, e.id);
    append_field(out, e.src);
    append_field(out, e.tgt);
    append_field(out, e.label);
    out += '\n';
    encode_properties(out, e.props);
  }
}

graph::Properties decode_props(Lines& lines, std::size_t count) {
  graph::Properties props;
  for (std::size_t i = 0; i < count; ++i) {
    util::FieldReader fields = lines.next("p", 2);
    std::string key = fields.text("property key");
    props.emplace(std::move(key), fields.text("property value"));
  }
  return props;
}

graph::PropertyGraph decode_graph(Lines& lines, const char* tag) {
  util::FieldReader header = lines.next("graph", 3);
  header.expect(tag);
  const auto nodes = header.number<std::size_t>("node count");
  const auto edges = header.number<std::size_t>("edge count");
  graph::PropertyGraph g;
  for (std::size_t i = 0; i < nodes; ++i) {
    util::FieldReader fields = lines.next("n", 3);
    const auto props = fields.number<std::size_t>("property count");
    std::string id = fields.text("node id");
    std::string label = fields.text("node label");
    g.add_node(std::move(id), std::move(label), decode_props(lines, props));
  }
  for (std::size_t i = 0; i < edges; ++i) {
    util::FieldReader fields = lines.next("e", 5);
    const auto props = fields.number<std::size_t>("property count");
    std::string id = fields.text("edge id");
    std::string src = fields.text("edge source");
    std::string tgt = fields.text("edge target");
    std::string label = fields.text("edge label");
    g.add_edge(std::move(id), std::move(src), std::move(tgt),
               std::move(label), decode_props(lines, props));
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
/// first and the fault-injection tear site runs after — so an injected
/// torn write commits bytes that provably mismatch their manifest
/// entry, exactly like a real torn write would.
void publish_file(const std::filesystem::path& dir, const std::string& name,
                  std::string content, ArtifactDigests* digests) {
  if (digests != nullptr) {
    (*digests)[name] = digest_of(content);
    util::fault::hit(util::fault::Site::ArtifactWrite, name, &content);
  }
  write_file_atomic(dir / name, content);
}

std::string manifest_text(const ShardSpec& spec,
                          const ArtifactDigests& digests) {
  std::string out = std::string(kManifestHeader) + "\n";
  out += util::format("shard %d %d\n", spec.shard_id, spec.shard_count);
  out += util::format("seed %llu\n",
                      static_cast<unsigned long long>(spec.seed));
  out += "result-type";
  append_field(out, spec.result_type);
  out += '\n';
  out += util::format("deterministic-timings %d\n",
                      spec.deterministic_timings ? 1 : 0);
  out += util::format("matrix %zu %llu\n", spec.matrix_cells,
                      static_cast<unsigned long long>(spec.matrix_hash));
  out += util::format("cells %zu\n", spec.cells.size());
  for (const BatchCell& cell : spec.cells) {
    out += util::format("cell %zu", cell.index);
    append_field(out, cell.system);
    append_field(out, cell.benchmark);
    out += '\n';
  }
  // The integrity section: the intended content digest of every
  // artifact this manifest vouches for. The manifest itself needs no
  // digest — its own torn tail reads as incomplete.
  out += util::format("files %zu\n", digests.size());
  for (const auto& [name, digest] : digests) {
    out += util::format("f %llu %llu",
                        static_cast<unsigned long long>(digest.hash),
                        static_cast<unsigned long long>(digest.size));
    append_field(out, name);
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
      bytes = util::read_file(dir / name);
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
  Lines lines(text);
  if (lines.line() != kManifestHeader) {
    throw std::runtime_error("not a shard manifest");
  }
  ShardSpec spec;
  const bool whole = util::read_fields<std::runtime_error>(
      "shard manifest", [&] {
    util::FieldReader fields = lines.next("shard", 2);
    spec.shard_id = read_int(fields, "shard id");
    spec.shard_count = read_int(fields, "shard count");
    spec.seed = lines.next("seed", 1).number<std::uint64_t>("seed");
    spec.result_type = lines.next("result-type", 1).text("result type");
    const auto timings = lines.next("deterministic-timings", 1)
                             .number<unsigned>("deterministic-timings");
    if (timings > 1) {
      throw std::invalid_argument("deterministic-timings must be 0 or 1");
    }
    spec.deterministic_timings = timings == 1;
    fields = lines.next("matrix", 2);
    spec.matrix_cells = fields.number<std::size_t>("matrix cells");
    spec.matrix_hash = fields.number<std::uint64_t>("matrix hash");
    const auto cells = lines.next("cells", 1).number<std::size_t>("cells");
    for (std::size_t i = 0; i < cells; ++i) {
      fields = lines.next("cell", 3);
      // A braced list reads its fields left to right.
      spec.cells.push_back(BatchCell{fields.number<std::size_t>("cell index"),
                                     fields.text("system"),
                                     fields.text("benchmark")});
    }
    const auto files = lines.next("files", 1).number<std::size_t>("files");
    for (std::size_t i = 0; i < files; ++i) {
      fields = lines.next("f", 3);
      const ArtifactDigest digest{fields.number<std::uint64_t>("file hash"),
                                  fields.number<std::uint64_t>("file size")};
      std::string name = fields.text("file name");
      if (digests != nullptr) (*digests)[std::move(name)] = digest;
    }
    // Complete means the marker line *and* its terminating newline made
    // it to disk: manifest_text always ends "complete\n", so truncation
    // at every byte offset — including mid-marker — reads as incomplete.
    return lines.line() == "complete" && text.back() == '\n';
  });
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
            BenchmarkResult result = run_benchmark(
                bench_suite::benchmark_by_name(cell.benchmark), pipeline);
            // Fault-injection site (no-op unless a crash rule is
            // armed in this worker process).
            util::fault::hit(util::fault::Site::CellDone);
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
      log = util::read_file(std::filesystem::path(dir) / "time.log");
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
  out += util::format("cell %zu\nsystem", cell_index);
  append_field(out, result.system);
  out += "\nbenchmark";
  append_field(out, result.benchmark);
  out += util::format("\nstatus %s\nfailure", status_name(result.status));
  append_field(out, result.failure_reason);
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
    out += 'd';
    append_field(out, id);
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
  Lines lines(text);
  if (lines.line() != kCellHeader) {
    throw std::runtime_error("not a shard cell record");
  }
  BenchmarkResult result;
  util::read_fields<std::runtime_error>("shard record", [&] {
    const auto index = lines.next("cell", 1).number<std::size_t>("cell");
    if (cell_index != nullptr) *cell_index = index;
    result.system = lines.next("system", 1).text("system");
    result.benchmark = lines.next("benchmark", 1).text("benchmark");
    result.status = parse_status(lines.next("status", 1).word("status"));
    result.failure_reason = lines.next("failure", 1).text("failure");
    util::FieldReader fields = lines.next("timings", 4);
    result.timings.recording = fields.number<double>("recording time");
    result.timings.transformation =
        fields.number<double>("transformation time");
    result.timings.generalization =
        fields.number<double>("generalization time");
    result.timings.comparison = fields.number<double>("comparison time");
    fields = lines.next("counters", 5);
    result.trials_run = read_int(fields, "trials run");
    result.trials_discarded = read_int(fields, "trials discarded");
    result.trials_unparseable = read_int(fields, "trials unparseable");
    result.transient_properties = read_int(fields, "transient properties");
    result.threads_used = read_int(fields, "threads used");
    fields = lines.next("cache", 3);
    result.similarity_cache_hits = fields.number<std::uint64_t>("cache hits");
    result.similarity_cache_lookups =
        fields.number<std::uint64_t>("cache lookups");
    result.matcher_steps = fields.number<std::uint64_t>("matcher steps");
    const auto dummies =
        lines.next("dummies", 1).number<std::size_t>("dummies");
    for (std::size_t i = 0; i < dummies; ++i) {
      result.dummy_nodes.push_back(lines.next("d", 1).text("dummy node"));
    }
    result.result = decode_graph(lines, "result");
    result.generalized_foreground = decode_graph(lines, "foreground");
    result.generalized_background = decode_graph(lines, "background");
    lines.next("end", 0);
  });
  // encode_cell_record always terminates with "end\n"; requiring the
  // trailing newline makes truncation at *every* byte offset — even one
  // that only drops the final newline — a hard parse error instead of a
  // silently accepted record.
  if (text.back() != '\n') {
    throw std::runtime_error("shard record: truncated (no trailing newline)");
  }
  return result;
}

// -- shard directories --------------------------------------------------------

std::string shard_dir_path(const std::string& output_dir, int shard_id) {
  return output_dir + "/shard-" + std::to_string(shard_id);
}

namespace {

/// The decimal pid suffix after the last '.' of a `...staging.<pid>` /
/// `...tmp.<pid>` name; 0 when malformed.
pid_t pid_suffix(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  if (dot == std::string::npos) return 0;
  return util::parse_number<pid_t>(std::string_view(name).substr(dot + 1))
      .value_or(0);
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

  util::fault::hit(util::fault::Site::Publish);  // hang (no-op unless armed)

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
        parse_shard_manifest(util::read_file(manifest), &complete, &digests);
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
          util::read_file(std::filesystem::path(dir) / kManifestName),
          &complete,
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
        result = decode_cell_record(util::read_file(path), &recorded_index);
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
