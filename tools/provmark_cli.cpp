// The ProvMark command-line driver, mirroring the paper's tooling
// (appendix A.5):
//
//   Single execution (fullAutomation.py):
//     provmark [options] run <system> <benchmark> [trials]
//   Batch execution (runTests.sh):
//     provmark [options] batch <systems> <result-type> [output-dir]
//
// Systems accept both long names (spade/opus/camflow/spade-camflow) and
// the paper's abbreviations (spg/spn/opu/cam). Result types follow the
// paper: rb = benchmark only, rg = benchmark + generalized graphs,
// rh = HTML page (written to <output-dir>/index.html).
//
// Batch mode takes a comma-separated system list and sweeps every
// (benchmark, system) pair across the runtime thread pool; each
// pipeline's own trial fan-out shares the same pool. Output order is
// deterministic (pair order), whatever the scheduling.
//
// Batch mode also appends one CSV line per benchmark to
// <output-dir>/time.log — the appendix A.6.4 timing-log format:
//   system,syscall,recording,transformation,generalization,comparison
// and writes the Table 2-style validation table to
// <output-dir>/validation.txt.
//
// Sharded sweeps (--shards N) partition the batch matrix across N
// worker processes (fork/exec of this binary with --shard-id) and merge
// the per-shard artifact directories back into output that is
// byte-identical to the single-process sweep; `provmark merge`
// recombines shard directories produced elsewhere (e.g. a cluster
// launch with explicit --shard-id). See src/core/shard.h for the
// protocol.
//
// The orchestrator supervises its workers (src/core/supervise.h):
// failed/crashed/hung shards are retried up to --shard-retries with
// seeded backoff, stragglers get duplicate attempts (first publish
// wins via the atomic directory rename), and a shard that exhausts its
// budget is quarantined as shard-K.failed.<attempt>. --fault-spec
// injects deterministic crashes/torn writes/hangs to exercise exactly
// those paths (docs/robustness.md).
//
// Every option is one row of kOptions below; --help is rendered from it,
// and docs/cli.md's "Grammar" block must equal --help byte for byte
// (ShardCli.DocsGrammarIsTheHelpText in core_shard_cli_test).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suite/generator.h"
#include "bench_suite/program.h"
#include "bench_suite/program_text.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/shard.h"
#include "core/supervise.h"
#include "datalog/engine.h"
#include "datalog/fact_io.h"
#include "runtime/thread_pool.h"
#include "serve/cluster.h"
#include "serve/daemon.h"
#include "systems/recorder.h"
#include "util/fault.h"
#include "util/limits.h"
#include "util/strings.h"

using namespace provmark;

namespace {

int usage();

/// A malformed command line; main prints it as one line and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& what, const std::string& reason) {
  throw UsageError(what + ": " + reason);
}

/// One-line diagnostic for a recognizable-but-wrong invocation: scripts
/// get a pointed stderr message and exit 2 without the full usage wall.
int bad_usage(const std::string& message) {
  std::fprintf(stderr, "provmark: %s (try 'provmark --help')\n",
               message.c_str());
  return 2;
}

bench_suite::BenchmarkProgram find_program(
    const std::string& name,
    std::size_t max_bytes = util::kDefaultMaxInputBytes) {
  if (!name.empty() && name.front() == '@') {
    // @path/to/file.prog: a user-supplied textual benchmark program.
    return bench_suite::parse_program(util::read_file(name.substr(1)),
                                      max_bytes);
  }
  // scale<K>: K a decimal integer >= 1; any other name that starts with
  // "scale" is looked up like every other benchmark name.
  if (name.rfind("scale", 0) == 0) {
    const std::optional<int> k =
        util::parse_number<int>(std::string_view(name).substr(5));
    if (k && *k >= 1) return bench_suite::scale_benchmark(*k);
  }
  if (name == "rename-fail") return bench_suite::failed_rename_benchmark();
  for (const bench_suite::BenchmarkProgram& p :
       bench_suite::failure_benchmarks()) {
    if (p.name == name) return p;
  }
  return bench_suite::benchmark_by_name(name);
}

enum class Command {
  Run, Batch, Merge, Query, Gen, Serve, Cluster, Feed, Promote
};

/// Everything the command line sets: the option rows (kOptions below)
/// write into it, and each subcommand reads its part.
struct Cli {
  Cli() {
    gen.seed = seed;  // gen honours the leading global --seed too
    service.workers = 2;
  }

  std::optional<Command> command;
  std::vector<std::string> positional;
  bool help = false;
  int threads = 0;  ///< --threads; 0 = the default pool
  runtime::ThreadPool* pool = nullptr;
  std::uint64_t seed = 42;
  int shards = 0;         ///< 0 = unsharded batch
  int shard_id = -1;      ///< >= 0: run only this shard
  int shard_retries = 2;  ///< extra launches per shard (orchestrator)
  int shard_attempt = 0;  ///< this worker's attempt (fault arming)
  bool deterministic_timings = false;
  std::string fault_spec;  ///< "" = no fault injection
  /// --max-input-bytes: ceiling for parsed input files (0 = unlimited;
  /// default util::kDefaultMaxInputBytes). serve payloads default
  /// tighter (1 MiB) unless this is given explicitly.
  std::optional<std::size_t> max_input_bytes;
  bench_suite::GeneratorOptions gen;
  serve::ServiceOptions service;  ///< the serve-options (serve, cluster)
  serve::DaemonOptions daemon;    ///< serve's replication options
  serve::ClusterOptions cluster;  ///< cluster's fleet options
  serve::FeedOptions feed;
};

int run_single(const Cli& cli, const std::string& system,
               const std::string& benchmark, int trials) {
  core::PipelineOptions options;
  options.system = system;
  options.trials = trials;
  options.seed = cli.seed;
  options.pool = cli.pool;
  core::BenchmarkResult result = core::run_benchmark(
      find_program(benchmark,
                   cli.max_input_bytes.value_or(util::kDefaultMaxInputBytes)),
      options);
  std::printf("%s\n\n", core::summarize(result).c_str());
  std::printf("%s\n", core::result_dot(result).c_str());
  std::printf("%s", datalog::to_datalog(result.result, "result").c_str());
  if (result.status == core::BenchmarkStatus::Failed) {
    std::fprintf(stderr, "failure: %s\n", result.failure_reason.c_str());
    return 1;
  }
  return 0;
}

void print_batch_report(const std::vector<core::BenchmarkResult>& results) {
  for (const core::BenchmarkResult& result : results) {
    std::printf("%s\n", core::summarize(result).c_str());
  }
  std::printf("\n%s\n", core::validation_table(results).c_str());
}

/// Resolved path of this executable, for re-execing shard workers.
std::string self_exe_path(const char* argv0) {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

int run_batch(const Cli& cli, const char* argv0,
              const std::vector<std::string>& raw_args,
              const std::string& system_list,
              const std::string& result_type,
              const std::string& output_dir) {
  std::vector<std::string> systems = util::split_nonempty(system_list, ',');
  if (systems.empty()) return usage();
  // Fail fast on any bad system name before the sweep runs: a typo in
  // one list entry must not burn (and then discard) the full suite for
  // the valid ones. Throws std::invalid_argument -> "error: ...", exit 1.
  for (const std::string& system : systems) {
    systems::make_recorder(system);
  }
  if (cli.shard_id >= 0 &&
      (cli.shards < 1 || cli.shard_id >= cli.shards)) {
    fail("--shard-id", "requires 0 <= K < --shards N");
  }

  core::ShardPlan plan = core::plan_batch(
      systems, core::table_benchmark_names(), std::max(1, cli.shards),
      cli.seed, result_type, cli.deterministic_timings);
  core::CellRunOptions cell_options;
  cell_options.seed = cli.seed;
  cell_options.pool = cli.pool;
  cell_options.deterministic_timings = cli.deterministic_timings;

  if (cli.shards <= 0) {
    // -- single-process sweep ----------------------------------------------
    std::vector<core::BenchmarkResult> results =
        core::run_batch_cells(plan.cells, cell_options);
    print_batch_report(results);
    core::write_batch_outputs(output_dir, results, result_type);
    if (result_type == "rh") {
      std::printf("wrote %s/index.html\n", output_dir.c_str());
    }
    return 0;
  }

  if (cli.shard_id >= 0) {
    // -- one shard worker (spawned below, or launched externally) ----------
    if (!cli.fault_spec.empty()) {
      // Arm only the rules targeting this (shard, attempt); every hook
      // stays a no-op otherwise.
      util::fault::arm(util::fault::parse_fault_spec(cli.fault_spec),
                       cli.shard_id, cli.shard_attempt);
    }
    core::ShardSpec spec = plan.shard(cli.shard_id);
    std::vector<core::BenchmarkResult> results =
        core::run_batch_cells(spec.cells, cell_options);
    std::string dir = core::write_shard_dir(output_dir, spec, results);
    print_batch_report(results);
    std::printf("shard %d/%d: %zu cells -> %s\n", cli.shard_id, cli.shards,
                spec.cells.size(), dir.c_str());
    return 0;
  }

  // -- orchestrator: supervised workers, then merge ------------------------
  std::filesystem::create_directories(output_dir);
  // Startup hygiene: a previous orchestrator killed mid-sweep leaves
  // dead workers' staging dirs and .tmp files behind; sweep them before
  // spawning anything (live pids are left alone).
  if (std::size_t swept = core::remove_orphaned_staging(output_dir)) {
    std::printf("removed %zu orphaned staging leftover(s)\n", swept);
  }
  const std::string exe = self_exe_path(argv0);
  std::vector<int> pending;  // supervise task index -> shard id
  for (int shard = 0; shard < cli.shards; ++shard) {
    if (core::shard_complete(core::shard_dir_path(output_dir, shard),
                             plan.shard(shard))) {
      // Resume: the deterministic plan makes completed shard artifacts
      // reusable as-is — identical cells, seeds, and therefore bytes
      // (shard_complete re-verifies every content digest, so torn
      // leftovers of a crashed run re-run instead of resuming).
      std::printf("shard %d/%d: already complete, skipping\n", shard,
                  cli.shards);
      continue;
    }
    pending.push_back(shard);
  }
  if (!pending.empty()) {
    // Each attempt re-runs this invocation's exact argv; the leading
    // --shard-id/--shard-attempt narrow it to one shard and tell the
    // fault injector which attempt this is (leading options parse in
    // any order, so every sweep flag forwards by construction).
    auto host = core::ProcessWorkerHost::exec_mode(
        [&](int task, int attempt) {
          std::vector<std::string> args = {
              exe, "--shard-id", std::to_string(pending[task]),
              "--shard-attempt", std::to_string(attempt)};
          args.insert(args.end(), raw_args.begin(), raw_args.end());
          return args;
        },
        [&](int task) {
          return core::shard_complete(
              core::shard_dir_path(output_dir, pending[task]),
              plan.shard(pending[task]));
        });
    host.set_log_path([&](int task, int attempt) {
      return output_dir + "/shard-" + std::to_string(pending[task]) +
             ".attempt-" + std::to_string(attempt) + ".log";
    });
    host.set_note([](const std::string& message) {
      std::printf("%s\n", message.c_str());
    });
    // SIGTERM/SIGINT on the orchestrator forwards to in-flight workers
    // before the orchestrator dies — no orphaned shard processes.
    host.install_signal_forwarding();
    host.set_quarantine([&](int task, int attempt,
                            const std::string& diagnostic) {
      const int shard = pending[task];
      const std::string dir = core::shard_dir_path(output_dir, shard);
      const std::string failed = dir + ".failed." + std::to_string(attempt);
      std::error_code ec;
      std::filesystem::remove_all(failed, ec);
      if (std::filesystem::exists(dir, ec)) {
        std::filesystem::rename(dir, failed, ec);
      } else {
        std::filesystem::create_directories(failed, ec);
      }
      std::ofstream out(failed + "/diagnostic.txt");
      out << diagnostic << "\n"
          << "worker logs: " << output_dir << "/shard-" << shard
          << ".attempt-*.log\n";
    });
    core::SuperviseOptions sup;
    sup.retries = cli.shard_retries;
    sup.seed = cli.seed;
    std::printf("supervising %zu shard worker(s) (retries per shard: %d)\n",
                pending.size(), sup.retries);
    core::SuperviseReport report =
        core::supervise(static_cast<int>(pending.size()), host, sup);
    for (const core::TaskOutcome& outcome : report.tasks) {
      if (outcome.published) {
        std::printf("shard %d/%d: published by attempt %d (%d launch%s)\n",
                    pending[outcome.task], cli.shards,
                    outcome.winning_attempt, outcome.launches,
                    outcome.launches == 1 ? "" : "es");
      }
    }
    if (!report.all_published) {
      for (const core::TaskOutcome& outcome : report.tasks) {
        if (!outcome.published) {
          std::fprintf(stderr, "%s\n", outcome.diagnostic.c_str());
        }
      }
      std::fprintf(stderr,
                   "sweep incomplete; inspect the shard-K.failed.* "
                   "quarantine and rerun the same command to resume the "
                   "finished shards\n");
      return 1;
    }
  }

  std::vector<std::string> shard_dirs;
  for (int shard = 0; shard < cli.shards; ++shard) {
    shard_dirs.push_back(core::shard_dir_path(output_dir, shard));
  }
  std::vector<core::BenchmarkResult> results =
      core::read_shard_results(shard_dirs);
  print_batch_report(results);
  core::write_batch_outputs(output_dir, results, result_type);
  if (result_type == "rh") {
    std::printf("wrote %s/index.html\n", output_dir.c_str());
  }
  std::printf("merged %d shards into %s\n", cli.shards, output_dir.c_str());
  return 0;
}

int run_merge(const std::string& output_dir,
              const std::vector<std::string>& shard_dirs) {
  std::string result_type;
  std::vector<core::BenchmarkResult> results =
      core::read_shard_results(shard_dirs, &result_type);
  print_batch_report(results);
  core::write_batch_outputs(output_dir, results, result_type);
  if (result_type == "rh") {
    std::printf("wrote %s/index.html\n", output_dir.c_str());
  }
  std::printf("merged %zu shards into %s\n", shard_dirs.size(),
              output_dir.c_str());
  return 0;
}

int run_query(const std::string& facts_path, const std::string& pattern,
              const std::string& rules_path, std::size_t max_bytes) {
  datalog::Engine engine;
  std::string facts = util::read_file(facts_path);
  util::check_input_size(facts_path.c_str(), facts.size(), max_bytes);
  engine.load_program(facts);
  if (!rules_path.empty()) {
    std::string rules = util::read_file(rules_path);
    util::check_input_size(rules_path.c_str(), rules.size(), max_bytes);
    engine.load_program(rules);
  }
  datalog::Atom atom = datalog::parse_atom(pattern);
  std::vector<std::map<std::string, std::string>> rows = engine.query(atom);

  // Columns in first-appearance order within the query atom.
  std::vector<std::string> columns;
  for (const datalog::Term& term : atom.terms) {
    if (term.is_variable() && term.text != "_" &&
        std::find(columns.begin(), columns.end(), term.text) ==
            columns.end()) {
      columns.push_back(term.text);
    }
  }
  if (columns.empty()) {
    // A ground query is a membership test.
    std::printf("%s\n", rows.empty() ? "no" : "yes");
    return rows.empty() ? 1 : 0;
  }
  std::vector<std::size_t> widths;
  for (const std::string& column : columns) {
    std::size_t width = column.size();
    for (const auto& row : rows) {
      width = std::max(width, row.at(column).size());
    }
    widths.push_back(width);
  }
  for (std::size_t c = 0; c < columns.size(); ++c) {
    std::printf("%-*s%s", static_cast<int>(widths[c]), columns[c].c_str(),
                c + 1 < columns.size() ? "  " : "\n");
  }
  for (std::size_t c = 0; c < columns.size(); ++c) {
    std::printf("%s%s", std::string(widths[c], '-').c_str(),
                c + 1 < columns.size() ? "  " : "\n");
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      std::printf("%-*s%s", static_cast<int>(widths[c]),
                  row.at(columns[c]).c_str(),
                  c + 1 < columns.size() ? "  " : "\n");
    }
  }
  std::printf("(%zu row%s)\n", rows.size(), rows.size() == 1 ? "" : "s");
  return rows.empty() ? 1 : 0;
}

/// Upper bound on every thread count the command line sets (--threads,
/// --serve-workers): runtime::ThreadPool and serve::Service start as many
/// threads as they are asked for.
constexpr int kMaxThreads = 256;
constexpr int kIntMax = std::numeric_limits<int>::max();

struct CommandRow {
  const char* name;
  const char* synopsis;  ///< the usage line after "provmark "
  std::size_t min_args;  ///< positional arguments after the name
  std::size_t max_args;
  const char* prose;  ///< --help description, wrapped when rendered
};

// Indexed by Command.
constexpr CommandRow kCommands[] = {
    {"run", "[options] run <system> <benchmark> [trials]", 2, 3,
     "full pipeline for one benchmark on one system; prints a summary, the "
     "result graph as DOT, and its datalog facts (exit 1 if the pipeline "
     "fails)"},
    {"batch", "[options] batch <systems> <rb|rg|rh> [output-dir]", 2, 3,
     "all Table 1 benchmarks on every listed system (comma-separated, e.g. "
     "spade,camflow), swept in parallel across the thread pool; appends "
     "timing CSV to <output-dir>/time.log and writes the validation table to "
     "<output-dir>/validation.txt (default output-dir: finalResult). With "
     "--shards N the sweep is partitioned across N worker processes and "
     "merged back byte-identically"},
    {"merge", "merge <output-dir> <shard-dir> [<shard-dir>...]", 2,
     std::numeric_limits<std::size_t>::max(),
     "recombine shard artifact directories (written by batch --shards N "
     "--shard-id K) into <output-dir>, reproducing the single-process sweep's "
     "time.log row order, validation table and result stores exactly; exit 0 "
     "on success, 3 when a shard is incomplete/torn (retryable — the message "
     "names the shard to re-run), 1 on structural mismatches (mixed sweep "
     "fingerprints) that no re-run can fix"},
    {"query", "query <facts.datalog> <atom> [rules.datalog]", 2, 3,
     "load a Datalog fact document (a regression-store save, a batch "
     ".datalog result, or any Listing 1 file), optionally add rules from a "
     "second file, and evaluate a query atom (e.g. 'reach(p0, X)'); bindings "
     "print as a table, exit 1 when nothing matches"},
    {"gen", "gen [--seed S] [--scale K] [gen-options]", 0, 0,
     "emit a seeded adversarial benchmark program in the textual format "
     "(stdout): file/pipe/socket churn, process and thread spawning, "
     "rename/unlink cycles, hostile identifiers, and expected-failure probes. "
     "Deterministic per options; pipe to a file and run it with 'run <system> "
     "@file.prog', or reference it directly as benchmark gen<seed>x<scale>"},
    {"serve", "[options] serve <socket> <journal-root> [serve-options]", 2, 2,
     "long-lived streaming service (docs/serve.md): per-client sessions hold "
     "an incremental Datalog fixpoint fed by journaled events over an AF_UNIX "
     "socket. Bounded admission with deterministic overload shedding; every "
     "acked event is fsynced to <journal-root>/<session>/ before the ack, so "
     "SIGKILL + restart replays into bit-identical fixpoints. SIGTERM/SIGINT "
     "drain gracefully (finish queues, checkpoint, compact journals, exit 0). "
     "With --replica-of the daemon is a hot standby until promoted "
     "(docs/serve.md, Replication & failover). --seed, --fault-spec "
     "(serve-crash / slow-client / repl-* rules) and --max-input-bytes are "
     "honoured"},
    {"cluster", "[options] cluster <socket> <cluster-root> [cluster-options]",
     2, 2,
     "session-sharded serve fleet (docs/serve.md, Cluster sharding): a router "
     "on <socket> proxies the feed/query protocol to N supervised member "
     "daemons, each journaling into <cluster-root>/member-K and listening on "
     "<cluster-root>/member-K.sock. Sessions map to members by stable hash, "
     "so digests are bit-identical to one unsharded daemon fed the same "
     "per-session streams. Dead or hung members (liveness heartbeats over a "
     "control pipe) are killed and restarted with seeded backoff; their "
     "sessions answer 'busy' (never dropped) until journal replay finishes. "
     "SIGTERM drains members gracefully; exit 0 on clean shutdown, 1 when the "
     "front socket cannot be bound. The serve-options apply to every member; "
     "--seed and --fault-spec (cluster-member-crash / member-hang / "
     "route-drop rules) are honoured"},
    {"feed", "feed <socket> [request-file] [--feed-retries N]", 1, 2,
     "stream request lines (see docs/serve.md for the grammar) from a file or "
     "stdin to a serve socket; prints one response line each. Exit 0 when "
     "everything was acked/answered, 3 when any request was shed/refused, 1 "
     "on connection failure"},
    {"promote", "promote <socket>", 1, 1,
     "ask the standby daemon at <socket> to stop tailing its primary and "
     "start serving (prints 'result promoted'; a daemon that is already "
     "primary prints 'result already-primary'). Exit 0 on success, 1 on "
     "connection failure"},
};

enum class Kind { Switch, Int, Unsigned, Probability, String, Enum };

/// An option's value, converted according to its row's kind.
struct Value {
  int integer = 0;          ///< Int
  std::uint64_t count = 0;  ///< Unsigned
  double probability = 0;   ///< Probability
  std::string text;         ///< String, Enum
};

/// Where an option is accepted: before the subcommand (kGlobal), or
/// after the name of each subcommand in the set.
constexpr unsigned kGlobal = 1;
constexpr unsigned after(Command command) {
  return 2u << static_cast<int>(command);
}
constexpr unsigned kGen = after(Command::Gen);
constexpr unsigned kServe = after(Command::Serve);
constexpr unsigned kCluster = after(Command::Cluster);
constexpr unsigned kFeed = after(Command::Feed);

struct OptionRow {
  const char* flag;
  unsigned scope;
  Kind kind;
  const char* metavar;  ///< value placeholder; an Enum's '|'-joined choices
  int min;              ///< Int range
  int max;
  void (*apply)(Cli&, const Value&);
  const char* help;  ///< wrapped when rendered
};

// The one option table. Rows sharing a flag have disjoint scopes.
const OptionRow kOptions[] = {
    {"--threads", kGlobal, Kind::Int, "N", 1, kMaxThreads,
     [](Cli& v, const Value& x) { v.threads = x.integer; },
     "worker threads for the parallel runtime (default: PROVMARK_THREADS env "
     "var, then hardware concurrency; at most 256)"},
    {"--seed", kGlobal, Kind::Unsigned, "S", 0, 0,
     [](Cli& v, const Value& x) { v.seed = v.gen.seed = x.count; },
     "pipeline seed (default 42); results are deterministic per seed at any "
     "thread count"},
    {"--shards", kGlobal, Kind::Int, "N", 1, kIntMax,
     [](Cli& v, const Value& x) { v.shards = x.integer; },
     "(batch) partition the sweep into N shards. Without --shard-id: spawn N "
     "worker processes, wait, and merge their artifacts into <output-dir>; "
     "shards already complete under <output-dir>/shard-K/ are skipped "
     "(resume)"},
    {"--shard-id", kGlobal, Kind::Int, "K", 0, kIntMax,
     [](Cli& v, const Value& x) { v.shard_id = x.integer; },
     "(batch, with --shards) run only shard K (0-based) and write its "
     "artifacts to <output-dir>/shard-K/ — for external/cluster launch; "
     "recombine with merge"},
    {"--shard-retries", kGlobal, Kind::Int, "R", 0, kIntMax,
     [](Cli& v, const Value& x) { v.shard_retries = x.integer; },
     "(batch orchestrator) extra launches allowed per shard after its first "
     "attempt crashes, fails, hangs or straggles (default 2); a shard that "
     "exhausts its budget is quarantined as shard-K.failed.<attempt> with a "
     "diagnostic and the sweep exits 1"},
    {"--shard-attempt", kGlobal, Kind::Int, "A", 0, kIntMax,
     [](Cli& v, const Value& x) { v.shard_attempt = x.integer; },
     "(worker, with --shard-id) this launch's attempt number; set by the "
     "orchestrator on retries, selects which --fault-spec rules arm (default "
     "0)"},
    {"--fault-spec", kGlobal, Kind::String, "SPEC", 0, 0,
     [](Cli& v, const Value& x) {
       // Parse eagerly so a malformed spec fails before any work runs.
       util::fault::parse_fault_spec(x.text);
       v.fault_spec = x.text;
     },
     "deterministic fault injection for crash-tolerance testing: ';'-joined "
     "rules. K and NAME are required, the other values shown are defaults, "
     "and events=N stalls only the first N applies; attempt=N|any picks the "
     "shard attempt or member incarnation a rule arms on (default 0, so "
     "retries run fault-free and the sweep converges); rules without "
     "shard/member arm in every process (see docs/robustness.md for the kind "
     "table). The rules:"},
    {"--max-input-bytes", kGlobal, Kind::Unsigned, "N", 0, 0,
     [](Cli& v, const Value& x) { v.max_input_bytes = x.count; },
     "size ceiling for parsed inputs — @file.prog programs, query documents, "
     "serve event payloads (default 64 MiB for files, 1 MiB for serve "
     "payloads; 0 disables). Oversized input is refused with a typed error "
     "before any parsing"},
    {"--deterministic-timings", kGlobal, Kind::Switch, "", 0, 0,
     [](Cli& v, const Value&) { v.deterministic_timings = true; },
     "(batch) replace measured stage timings with per-cell pure-hash values "
     "so time.log is byte-reproducible across runs, shard counts and hosts "
     "(the shard identity gates run with this on)"},
    {"--help", kGlobal, Kind::Switch, "", 0, 0,
     [](Cli& v, const Value&) { v.help = true; }, "this text"},

    {"--seed", kGen, Kind::Unsigned, "S", 0, 0,
     [](Cli& v, const Value& x) { v.gen.seed = x.count; },
     "program seed (default: the global --seed)"},
    {"--scale", kGen, Kind::Int, "K", 1, kIntMax,
     [](Cli& v, const Value& x) { v.gen.scale = x.integer; },
     "approximate target-op count (default 16)"},
    {"--depth", kGen, Kind::Int, "D", 0, kIntMax,
     [](Cli& v, const Value& x) { v.gen.depth = x.integer; },
     "process-tree depth (default 2)"},
    {"--fan-out", kGen, Kind::Int, "F", 0, kIntMax,
     [](Cli& v, const Value& x) { v.gen.fan_out = x.integer; },
     "spawns per process-tree level (default 2)"},
    {"--hostile", kGen, Kind::Probability, "P", 0, 0,
     [](Cli& v, const Value& x) { v.gen.hostile_probability = x.probability; },
     "hostile-identifier probability, 0..1 (default 0.25)"},
    {"--no-network", kGen, Kind::Switch, "", 0, 0,
     [](Cli& v, const Value&) { v.gen.network = false; },
     "leave out socket ops"},
    {"--no-memory", kGen, Kind::Switch, "", 0, 0,
     [](Cli& v, const Value&) { v.gen.memory = false; },
     "leave out mmap ops"},
    {"--no-failure-probes", kGen, Kind::Switch, "", 0, 0,
     [](Cli& v, const Value&) { v.gen.failure_probes = false; },
     "leave out expected-failure probes"},

    {"--serve-workers", kServe | kCluster, Kind::Int, "N", 0, kMaxThreads,
     [](Cli& v, const Value& x) { v.service.workers = x.integer; },
     "apply threads (default 2, at most 256)"},
    {"--queue-cap", kServe | kCluster, Kind::Unsigned, "N", 0, 0,
     [](Cli& v, const Value& x) { v.service.global_queue_cap = x.count; },
     "global pending budget (default 256)"},
    {"--session-cap", kServe | kCluster, Kind::Unsigned, "N", 0, 0,
     [](Cli& v, const Value& x) { v.service.session_queue_cap = x.count; },
     "per-session queue (default 64)"},
    {"--checkpoint-every", kServe | kCluster, Kind::Unsigned, "N", 0, 0,
     [](Cli& v, const Value& x) { v.service.checkpoint_every = x.count; },
     "applied events between checkpoints (default 64)"},
    {"--replica-of", kServe, Kind::String, "SOCKET", 0, 0,
     [](Cli& v, const Value& x) { v.daemon.replica_of = x.text; },
     "run as a hot standby of the primary at SOCKET: tail its journal "
     "stream, fsync and apply every record, answer read-only queries, refuse "
     "events until promoted"},
    {"--repl-mode", kServe, Kind::Enum, "async|sync", 0, 0,
     [](Cli& v, const Value& x) { v.daemon.repl_sync = x.text == "sync"; },
     "(primary) sync holds each client ack until the standby fsynced the "
     "record (default async)"},
    {"--heartbeat-ms", kServe, Kind::Int, "M", 1, kIntMax,
     [](Cli& v, const Value& x) { v.daemon.heartbeat_ms = x.integer; },
     "(standby) heartbeat period (default 500)"},
    {"--promote-after", kServe, Kind::Int, "K", 0, kIntMax,
     [](Cli& v, const Value& x) { v.daemon.promote_after_missed = x.integer; },
     "(standby) auto-promote after K unanswered heartbeats (default 0 = only "
     "explicit promote)"},

    {"--members", kCluster, Kind::Int, "N", 1, kIntMax,
     [](Cli& v, const Value& x) { v.cluster.members = x.integer; },
     "member daemons (default 3)"},
    {"--member-window", kCluster, Kind::Int, "N", 1, kIntMax,
     [](Cli& v, const Value& x) { v.cluster.member_window = x.integer; },
     "per-member in-flight cap (default 32)"},
    {"--heartbeat-ms", kCluster, Kind::Int, "M", 1, kIntMax,
     [](Cli& v, const Value& x) { v.cluster.heartbeat_ms = x.integer; },
     "member liveness period (default 200)"},
    {"--heartbeat-deadline-ms", kCluster, Kind::Int, "M", 0, kIntMax,
     [](Cli& v, const Value& x) {
       v.cluster.heartbeat_deadline_ms = x.integer;
     },
     "silence before a member is declared hung (default 0 = 8x heartbeat)"},
    {"--start-deadline-ms", kCluster, Kind::Int, "M", 1, kIntMax,
     [](Cli& v, const Value& x) { v.cluster.start_deadline_ms = x.integer; },
     "bind+replay budget (default 30000)"},
    {"--max-restarts", kCluster, Kind::Int, "K", -1, kIntMax,
     [](Cli& v, const Value& x) { v.cluster.max_restarts = x.integer; },
     "consecutive failures before giving a member up (default -1 = forever)"},

    {"--feed-retries", kFeed, Kind::Int, "N", 0, kIntMax,
     [](Cli& v, const Value& x) { v.feed.retries = x.integer; },
     "retry each shed/busy response up to N times with deterministic seeded "
     "exponential backoff (keyed by --seed, request index, attempt; default 0 "
     "= no retry)"},
};

/// `label` after a two-space margin, then `text` word-wrapped to 72
/// columns, every line of it starting at `column` (the first on the
/// label's line when the label ends before `column`).
std::string hanging(const std::string& label, const char* text,
                    std::size_t column) {
  constexpr std::size_t kWidth = 72;
  std::string out = "  " + label;
  std::size_t line = out.size();
  if (line >= column) {
    out += '\n';
    line = 0;
  }
  for (const std::string& word : util::split_nonempty(text, ' ')) {
    if (line > column && line + 1 + word.size() > kWidth) {
      out += '\n';
      line = 0;
    }
    const std::size_t pad = line < column ? column - line : 1;
    out.append(pad, ' ').append(word);
    line += pad + word.size();
  }
  return out + '\n';
}

/// The rows accepted in `scope` under `title`; "" when there are none.
std::string options_section(const std::string& title, unsigned scope) {
  constexpr std::size_t kColumn = 15;
  std::string out;
  for (const OptionRow& row : kOptions) {
    if ((row.scope & scope) == 0) continue;
    std::string label = row.flag;
    if (row.kind != Kind::Switch) label += std::string(" ") + row.metavar;
    out += hanging(label, row.help, kColumn);
    if (row.flag == std::string_view("--fault-spec")) {
      out += util::fault::grammar(std::string(kColumn + 2, ' '));
    }
  }
  return out.empty() ? out : "\n" + title + ":\n" + out;
}

std::string usage_text() {
  std::string out = "usage:\n";
  for (const CommandRow& command : kCommands) {
    out += std::string("  provmark ") + command.synopsis + '\n';
  }
  out += "  provmark --help\n\nsubcommands:\n";
  for (const CommandRow& command : kCommands) {
    out += hanging(command.name, command.prose, 9);
  }
  out += options_section("options", kGlobal);
  for (std::size_t c = 0; c < std::size(kCommands); ++c) {
    out += options_section(std::string(kCommands[c].name) + "-options",
                           after(Command(c)));
  }
  return out +
         "\n"
         "systems: spade|spg, spn, opus|opu, camflow|cam, spade-camflow,\n"
         "         audit|aud, ebpf|bpf\n"
         "result types: rb = benchmark only, rg = + generalized graphs,\n"
         "              rh = + HTML report (<output-dir>/index.html)\n"
         "benchmarks: Table 1 syscall names (e.g. rename), scaleN,\n"
         "            rename-fail, failure-case names, @file.prog,\n"
         "            gen<seed>x<scale> (seeded adversarial programs)\n";
}

int usage() {
  std::fprintf(stderr, "%s", usage_text().c_str());
  return 2;
}

int read_int(const std::string& what, const std::string& text, int min,
             int max) {
  const std::optional<int> value = util::parse_number<int>(text);
  if (!value || *value < min || *value > max) {
    fail(what, "expects an integer " +
                   (max == kIntMax
                        ? ">= " + std::to_string(min)
                        : "in [" + std::to_string(min) + ", " +
                              std::to_string(max) + "]") +
                   ", got '" + text + "'");
  }
  return *value;
}

Value read_value(const OptionRow& row, const std::string& text) {
  Value value;
  value.text = text;
  switch (row.kind) {
    case Kind::Int:
      value.integer = read_int(row.flag, text, row.min, row.max);
      break;
    case Kind::Unsigned: {
      const auto count = util::parse_number<std::uint64_t>(text);
      if (!count) {
        fail(row.flag, "expects an unsigned integer, got '" + text + "'");
      }
      value.count = *count;
      break;
    }
    case Kind::Probability: {
      const auto probability = util::parse_number<double>(text);
      if (!probability || *probability < 0 || *probability > 1) {
        fail(row.flag, "expects a probability in [0, 1], got '" + text + "'");
      }
      value.probability = *probability;
      break;
    }
    case Kind::Enum:
      if (("|" + std::string(row.metavar) + "|").find("|" + text + "|") ==
          std::string::npos) {
        fail(row.flag, std::string("expects ") + row.metavar + ", got '" +
                           text + "'");
      }
      break;
    case Kind::Switch:
    case Kind::String:
      break;
  }
  return value;
}

/// Check `args` against the option table and the command table. Options
/// before the subcommand are the kGlobal rows; after it, the rows of
/// that subcommand, mixed freely with its positional arguments. Stops
/// at --help.
Cli parse_command_line(const std::vector<std::string>& args) {
  Cli cli;
  unsigned scope = kGlobal;
  for (std::size_t i = 0; i < args.size() && !cli.help; ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      if (cli.command) {
        cli.positional.push_back(arg);
        continue;
      }
      for (std::size_t c = 0; c < std::size(kCommands); ++c) {
        if (arg == kCommands[c].name) cli.command = Command(c);
      }
      if (!cli.command) fail(arg, "unknown subcommand");
      scope = after(*cli.command);
      continue;
    }
    const OptionRow* row = nullptr;
    for (const OptionRow& candidate : kOptions) {
      if (arg == candidate.flag && (candidate.scope & scope)) row = &candidate;
    }
    if (row == nullptr) {
      fail(arg, cli.command ? std::string("unknown option after '") +
                                  kCommands[int(*cli.command)].name + "'"
                            : "unknown option before the subcommand");
    }
    Value value;
    if (row->kind != Kind::Switch) {
      if (i + 1 == args.size()) {
        fail(arg, std::string("needs a value (") + row->metavar + ")");
      }
      value = read_value(*row, args[++i]);
    }
    try {
      row->apply(cli, value);
    } catch (const std::invalid_argument& e) {
      fail(arg, e.what());
    }
  }
  return cli;
}

/// The serve-options as every daemon of this invocation runs them.
serve::ServiceOptions service_options(const Cli& cli) {
  serve::ServiceOptions service = cli.service;
  service.seed = cli.seed;
  service.pipeline.pool = nullptr;  // sessions use serial pools
  if (cli.max_input_bytes) service.max_payload_bytes = *cli.max_input_bytes;
  return service;
}

int run_command(Cli& cli, const char* argv0,
                const std::vector<std::string>& raw_args) {
  const CommandRow& row = kCommands[int(*cli.command)];
  const std::vector<std::string>& args = cli.positional;
  if (args.size() < row.min_args || args.size() > row.max_args) {
    return bad_usage(std::string(row.name) + " needs: provmark " +
                     row.synopsis);
  }
  if (cli.command == Command::Batch && args[1] != "rb" && args[1] != "rg" &&
      args[1] != "rh") {
    return bad_usage("unknown result type '" + args[1] + "' (rb | rg | rh)");
  }

  // Pools start only once the whole command line is valid.
  std::unique_ptr<runtime::ThreadPool> owned_pool;
  if (cli.threads > 0) {
    owned_pool = std::make_unique<runtime::ThreadPool>(cli.threads);
    cli.pool = owned_pool.get();
  }

  const std::size_t max_bytes =
      cli.max_input_bytes.value_or(util::kDefaultMaxInputBytes);
  switch (*cli.command) {
    case Command::Run:
      return run_single(
          cli, args[0], args[1],
          args.size() == 3 ? read_int("trials", args[2], 0, kIntMax) : 0);
    case Command::Batch:
      return run_batch(cli, argv0, raw_args, args[0], args[1],
                       args.size() == 3 ? args[2] : "finalResult");
    case Command::Merge:
      return run_merge(args[0],
                       std::vector<std::string>(args.begin() + 1, args.end()));
    case Command::Query:
      return run_query(args[0], args[1], args.size() == 3 ? args[2] : "",
                       max_bytes);
    case Command::Gen:
      std::printf("%s", bench_suite::format_program(
                            bench_suite::generate_program(cli.gen))
                            .c_str());
      return 0;
    case Command::Serve: {
      serve::DaemonOptions& options = cli.daemon;
      options.socket_path = args[0];
      options.service = service_options(cli);
      options.service.root = args[1];
      if (!cli.fault_spec.empty()) {
        // Serve-side rules (serve-crash, slow-client) arm regardless of
        // the (shard, attempt) pair; shard rules stay dormant in the
        // daemon.
        util::fault::arm(util::fault::parse_fault_spec(cli.fault_spec), 0,
                         0);
      }
      return serve::run_daemon(options);
    }
    case Command::Cluster: {
      serve::ClusterOptions& options = cli.cluster;
      options.socket_path = args[0];
      options.root = args[1];
      options.service = service_options(cli);
      options.fault_spec = cli.fault_spec;
      if (!cli.fault_spec.empty()) {
        // Router-side rules (route-drop) arm here; member-targeted rules
        // stay dormant in the router and re-arm inside each member child
        // with its own (member, incarnation) coordinates.
        util::fault::arm(util::fault::parse_fault_spec(cli.fault_spec), -1,
                         -1);
      }
      return serve::run_cluster(options);
    }
    case Command::Feed: {
      cli.feed.seed = cli.seed;
      if (args.size() == 2) {
        std::ifstream in(args[1]);
        if (!in.good()) {
          throw std::runtime_error("cannot read request file " + args[1]);
        }
        return serve::run_feed(args[0], in, std::cout, cli.feed);
      }
      return serve::run_feed(args[0], std::cin, std::cout, cli.feed);
    }
    case Command::Promote: {
      std::istringstream in("promote\n");
      return serve::run_feed(args[0], in, std::cout);
    }
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // The untouched invocation, for re-execing shard workers verbatim.
  const std::vector<std::string> raw_args(argv + 1, argv + argc);
  try {
    Cli cli = parse_command_line(raw_args);
    if (cli.help) {
      std::printf("%s", usage_text().c_str());
      return 0;
    }
    if (!cli.command) return usage();
    return run_command(cli, argv[0], raw_args);
  } catch (const UsageError& e) {
    return bad_usage(e.what());
  } catch (const core::ShardRetryableError& e) {
    // Re-running the named shard repairs the sweep — exit 3 so cluster
    // scripts can branch on retryable vs fatal (exit 1) failures.
    std::fprintf(stderr, "error: %s\n", e.what());
    if (e.shard_id >= 0) {
      std::fprintf(stderr,
                   "retryable: re-run shard %d (batch --shards N "
                   "--shard-id %d), then merge again\n",
                   e.shard_id, e.shard_id);
    } else {
      std::fprintf(stderr,
                   "retryable: re-run the damaged shard, then merge "
                   "again\n");
    }
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
