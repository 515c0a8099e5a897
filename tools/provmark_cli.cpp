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
// The full grammar lives in usage() below; docs/cli.md documents every
// subcommand with worked examples and must be kept in sync with it.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
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

constexpr const char* kUsage =
    "usage:\n"
    "  provmark [options] run <system> <benchmark> [trials]\n"
    "  provmark [options] batch <systems> <rb|rg|rh> [output-dir]\n"
    "  provmark merge <output-dir> <shard-dir> [<shard-dir>...]\n"
    "  provmark query <facts.datalog> <atom> [rules.datalog]\n"
    "  provmark gen [--seed S] [--scale K] [gen-options]\n"
    "  provmark [options] serve <socket> <journal-root> [serve-options]\n"
    "  provmark [options] cluster <socket> <cluster-root> "
    "[cluster-options]\n"
    "  provmark feed <socket> [request-file] [--feed-retries N]\n"
    "  provmark promote <socket>\n"
    "  provmark --help\n"
    "\n"
    "subcommands:\n"
    "  run    full pipeline for one benchmark on one system; prints a\n"
    "         summary, the result graph as DOT, and its datalog facts\n"
    "         (exit 1 if the pipeline fails)\n"
    "  batch  all Table 1 benchmarks on every listed system (comma-\n"
    "         separated, e.g. spade,camflow), swept in parallel across\n"
    "         the thread pool; appends timing CSV to\n"
    "         <output-dir>/time.log and writes the validation table to\n"
    "         <output-dir>/validation.txt (default output-dir:\n"
    "         finalResult). With --shards N the sweep is partitioned\n"
    "         across N worker processes and merged back byte-identically\n"
    "  merge  recombine shard artifact directories (written by batch\n"
    "         --shards N --shard-id K) into <output-dir>, reproducing\n"
    "         the single-process sweep's time.log row order, validation\n"
    "         table and result stores exactly; exit 0 on success, 3 when\n"
    "         a shard is incomplete/torn (retryable — the message names\n"
    "         the shard to re-run), 1 on structural mismatches (mixed\n"
    "         sweep fingerprints) that no re-run can fix\n"
    "  query  load a Datalog fact document (a regression-store save, a\n"
    "         batch .datalog result, or any Listing 1 file), optionally\n"
    "         add rules from a second file, and evaluate a query atom\n"
    "         (e.g. 'reach(p0, X)'); bindings print as a table, exit 1\n"
    "         when nothing matches\n"
    "  gen    emit a seeded adversarial benchmark program in the textual\n"
    "         format (stdout): file/pipe/socket churn, process and thread\n"
    "         spawning, rename/unlink cycles, hostile identifiers, and\n"
    "         expected-failure probes. Deterministic per options; pipe to\n"
    "         a file and run it with 'run <system> @file.prog', or\n"
    "         reference it directly as benchmark gen<seed>x<scale>.\n"
    "         gen-options: --seed S (default: the global seed), --scale K\n"
    "         (approximate target-op count, default 16), --depth D and\n"
    "         --fan-out F (process-tree shape, default 2x2), --hostile P\n"
    "         (hostile-identifier probability 0..1, default 0.25),\n"
    "         --no-network, --no-memory, --no-failure-probes\n"
    "  serve  long-lived streaming service (docs/serve.md): per-client\n"
    "         sessions hold an incremental Datalog fixpoint fed by\n"
    "         journaled events over an AF_UNIX socket. Bounded admission\n"
    "         with deterministic overload shedding; every acked event is\n"
    "         fsynced to <journal-root>/<session>/ before the ack, so\n"
    "         SIGKILL + restart replays into bit-identical fixpoints.\n"
    "         SIGTERM/SIGINT drain gracefully (finish queues, checkpoint,\n"
    "         compact journals, exit 0).\n"
    "         serve-options: --serve-workers N (apply threads, default 2),\n"
    "         --queue-cap N (global pending budget, default 256),\n"
    "         --session-cap N (per-session queue, default 64),\n"
    "         --checkpoint-every N (applied events between checkpoints,\n"
    "         default 64). --seed, --fault-spec (serve-crash /\n"
    "         slow-client / repl-* rules) and --max-input-bytes are\n"
    "         honoured.\n"
    "         replication (docs/serve.md, Replication & failover):\n"
    "         --replica-of <socket> runs this daemon as a hot standby of\n"
    "         the primary at <socket>: it tails the primary's journal\n"
    "         stream, fsyncs and applies every record, answers read-only\n"
    "         queries, refuses events until promoted. --repl-mode\n"
    "         async|sync (primary; sync holds each client ack until the\n"
    "         standby fsynced the record, default async), --heartbeat-ms\n"
    "         M (standby heartbeat period, default 500), --promote-after\n"
    "         K (standby auto-promotes after K unanswered heartbeats;\n"
    "         default 0 = only explicit promote)\n"
    "  cluster\n"
    "         session-sharded serve fleet (docs/serve.md, Cluster\n"
    "         sharding): a router on <socket> proxies the feed/query\n"
    "         protocol to N supervised member daemons, each journaling\n"
    "         into <cluster-root>/member-K and listening on\n"
    "         <cluster-root>/member-K.sock. Sessions map to members by\n"
    "         stable hash, so digests are bit-identical to one unsharded\n"
    "         daemon fed the same per-session streams. Dead or hung\n"
    "         members (liveness heartbeats over a control pipe) are\n"
    "         killed and restarted with seeded backoff; their sessions\n"
    "         answer 'busy' (never dropped) until journal replay\n"
    "         finishes. SIGTERM drains members gracefully; exit 0 on\n"
    "         clean shutdown, 1 when the front socket cannot be bound.\n"
    "         cluster-options: --members N (default 3), --member-window\n"
    "         N (per-member in-flight cap, default 32), --heartbeat-ms M\n"
    "         (member liveness period, default 200),\n"
    "         --heartbeat-deadline-ms M (silence before a member is\n"
    "         declared hung, default 8x heartbeat), --start-deadline-ms\n"
    "         M (bind+replay budget, default 30000), --max-restarts K\n"
    "         (consecutive failures before giving a member up, default\n"
    "         -1 = forever), plus the serve-options --serve-workers,\n"
    "         --queue-cap, --session-cap, --checkpoint-every applied to\n"
    "         every member. --seed and --fault-spec (cluster-member-\n"
    "         crash / member-hang / route-drop rules) are honoured.\n"
    "  feed   stream request lines (see docs/serve.md for the grammar)\n"
    "         from a file or stdin to a serve socket; prints one response\n"
    "         line each. Exit 0 when everything was acked/answered, 3\n"
    "         when any request was shed/refused, 1 on connection failure.\n"
    "         --feed-retries N retries each shed/busy response up to N\n"
    "         times with deterministic seeded exponential backoff (keyed\n"
    "         by --seed, request index, attempt; default 0 = no retry)\n"
    "  promote\n"
    "         ask the standby daemon at <socket> to stop tailing its\n"
    "         primary and start serving (prints 'result promoted'; a\n"
    "         daemon that is already primary prints 'result\n"
    "         already-primary'). Exit 0 on success, 1 on connection\n"
    "         failure\n"
    "\n"
    "options:\n"
    "  --threads N  worker threads for the parallel runtime (default:\n"
    "               PROVMARK_THREADS env var, then hardware concurrency)\n"
    "  --matcher-threads N\n"
    "               workers for the deterministic parallel matcher\n"
    "               search inside generalization/comparison (own pool,\n"
    "               nests under --threads; default 1 = serial search;\n"
    "               results are identical at any N)\n"
    "  --seed S     pipeline seed (default 42); results are\n"
    "               deterministic per seed at any thread count\n"
    "  --shards N   (batch) partition the sweep into N shards. Without\n"
    "               --shard-id: spawn N worker processes, wait, and\n"
    "               merge their artifacts into <output-dir>; shards\n"
    "               already complete under <output-dir>/shard-K/ are\n"
    "               skipped (resume)\n"
    "  --shard-id K (batch, with --shards) run only shard K (0-based)\n"
    "               and write its artifacts to <output-dir>/shard-K/ —\n"
    "               for external/cluster launch; recombine with merge\n"
    "  --shard-retries R\n"
    "               (batch orchestrator) extra launches allowed per\n"
    "               shard after its first attempt crashes, fails, hangs\n"
    "               or straggles (default 2); a shard that exhausts its\n"
    "               budget is quarantined as shard-K.failed.<attempt>\n"
    "               with a diagnostic and the sweep exits 1\n"
    "  --shard-attempt A\n"
    "               (worker, with --shard-id) this launch's attempt\n"
    "               number; set by the orchestrator on retries, selects\n"
    "               which --fault-spec rules arm (default 0)\n"
    "  --fault-spec SPEC\n"
    "               deterministic fault injection for crash-tolerance\n"
    "               testing: ';'-joined rules of\n"
    "                 crash:shard=K,after-cell=M\n"
    "                 torn-write:shard=K,file=NAME[,keep=F]\n"
    "                 hang:shard=K[,seconds=S]\n"
    "                 serve-crash:after-events=M\n"
    "                 slow-client:ms=T[,events=M]\n"
    "                 repl-link-drop:after-records=M\n"
    "                 replica-crash:after-records=M\n"
    "                 repl-partition:after-records=M[,ms=T]\n"
    "                 cluster-member-crash:member=K,after-events=M\n"
    "                 member-hang:member=K,after-events=M\n"
    "                 route-drop:after-requests=M\n"
    "               each shard rule arms on attempt 0 only unless\n"
    "               attempt=N|any is given, so retried attempts run\n"
    "               fault-free and the sweep converges; serve rules arm\n"
    "               unconditionally in the daemon, and member rules arm\n"
    "               in the targeted member's incarnation (see\n"
    "               docs/robustness.md for the full grammar)\n"
    "  --max-input-bytes N\n"
    "               size ceiling for parsed inputs — @file.prog programs,\n"
    "               query documents, serve event payloads (default 64 MiB\n"
    "               for files, 1 MiB for serve payloads; 0 disables).\n"
    "               Oversized input is refused with a typed error before\n"
    "               any parsing\n"
    "  --deterministic-timings\n"
    "               (batch) replace measured stage timings with per-cell\n"
    "               pure-hash values so time.log is byte-reproducible\n"
    "               across runs, shard counts and hosts (the shard\n"
    "               identity gates run with this on)\n"
    "  --help       this text\n"
    "\n"
    "systems: spade|spg, spn, opus|opu, camflow|cam, spade-camflow,\n"
    "         audit|aud, ebpf|bpf\n"
    "result types: rb = benchmark only, rg = + generalized graphs,\n"
    "              rh = + HTML report (<output-dir>/index.html)\n"
    "benchmarks: Table 1 syscall names (e.g. rename), scaleN,\n"
    "            rename-fail, failure-case names, @file.prog,\n"
    "            gen<seed>x<scale> (seeded adversarial programs)\n";

int usage() {
  std::fprintf(stderr, "%s", kUsage);
  return 2;
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
    std::ifstream in(name.substr(1));
    if (!in.good()) {
      throw std::runtime_error("cannot read program file " +
                               name.substr(1));
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return bench_suite::parse_program(text, max_bytes);
  }
  if (name.rfind("scale", 0) == 0 && name.size() > 5) {
    return bench_suite::scale_benchmark(std::stoi(name.substr(5)));
  }
  if (name == "rename-fail") return bench_suite::failed_rename_benchmark();
  for (const bench_suite::BenchmarkProgram& p :
       bench_suite::failure_benchmarks()) {
    if (p.name == name) return p;
  }
  return bench_suite::benchmark_by_name(name);
}

struct CliOptions {
  runtime::ThreadPool* pool = nullptr;
  std::uint64_t seed = 42;
  matcher::SearchConfig matcher;
  int shards = 0;         ///< 0 = unsharded batch
  int shard_id = -1;      ///< >= 0: run only this shard
  int shard_retries = 2;  ///< extra launches per shard (orchestrator)
  int shard_attempt = 0;  ///< this worker's attempt (fault arming)
  bool deterministic_timings = false;
  std::string fault_spec;  ///< "" = no fault injection
  /// --max-input-bytes: ceiling for parsed input files (0 = unlimited;
  /// default util::kDefaultMaxInputBytes). serve payloads default
  /// tighter (1 MiB) unless this is given explicitly.
  std::size_t max_input_bytes = util::kDefaultMaxInputBytes;
  bool max_input_bytes_set = false;
};

int run_single(const CliOptions& cli, const std::string& system,
               const std::string& benchmark, int trials) {
  core::PipelineOptions options;
  options.system = system;
  options.trials = trials;
  options.seed = cli.seed;
  options.pool = cli.pool;
  options.matcher = cli.matcher;
  core::BenchmarkResult result = core::run_benchmark(
      find_program(benchmark, cli.max_input_bytes), options);
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

int run_batch(const CliOptions& cli, const char* argv0,
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
    throw std::invalid_argument("--shard-id requires 0 <= K < --shards N");
  }

  core::ShardPlan plan = core::plan_batch(
      systems, core::table_benchmark_names(), std::max(1, cli.shards),
      cli.seed, result_type, cli.deterministic_timings);
  core::CellRunOptions cell_options;
  cell_options.seed = cli.seed;
  cell_options.pool = cli.pool;
  cell_options.matcher = cli.matcher;
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

int run_gen(const CliOptions& cli, const std::vector<std::string>& args) {
  bench_suite::GeneratorOptions options;
  options.seed = cli.seed;  // the leading global --seed is honoured too
  auto numeric = [&](std::size_t i, const char* flag) {
    if (i + 1 >= args.size()) {
      throw std::invalid_argument(std::string(flag) + " needs a value");
    }
    return args[i + 1];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--seed") {
      options.seed = std::stoull(numeric(i, "--seed"));
      ++i;
    } else if (args[i] == "--scale") {
      options.scale = std::stoi(numeric(i, "--scale"));
      if (options.scale < 1) {
        throw std::invalid_argument("--scale must be >= 1");
      }
      ++i;
    } else if (args[i] == "--depth") {
      options.depth = std::stoi(numeric(i, "--depth"));
      ++i;
    } else if (args[i] == "--fan-out") {
      options.fan_out = std::stoi(numeric(i, "--fan-out"));
      ++i;
    } else if (args[i] == "--hostile") {
      options.hostile_probability = std::stod(numeric(i, "--hostile"));
      ++i;
    } else if (args[i] == "--no-network") {
      options.network = false;
    } else if (args[i] == "--no-memory") {
      options.memory = false;
    } else if (args[i] == "--no-failure-probes") {
      options.failure_probes = false;
    } else {
      return bad_usage("unknown gen option '" + args[i] + "'");
    }
  }
  std::printf("%s", bench_suite::format_program(
                        bench_suite::generate_program(options))
                        .c_str());
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw std::runtime_error("cannot read " + path);
  }
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

int run_query(const std::string& facts_path, const std::string& pattern,
              const std::string& rules_path, std::size_t max_bytes) {
  datalog::Engine engine;
  std::string facts = read_file(facts_path);
  util::check_input_size(facts_path.c_str(), facts.size(), max_bytes);
  engine.load_program(facts);
  if (!rules_path.empty()) {
    std::string rules = read_file(rules_path);
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

int run_serve(const CliOptions& cli, const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return bad_usage(
        "serve needs: provmark [options] serve <socket> <journal-root> "
        "[--serve-workers N] [--queue-cap N] [--session-cap N] "
        "[--checkpoint-every N]");
  }
  serve::DaemonOptions options;
  options.socket_path = args[0];
  options.service.root = args[1];
  options.service.seed = cli.seed;
  options.service.workers = 2;
  options.service.pipeline.matcher = cli.matcher;
  options.service.pipeline.pool = nullptr;  // sessions use serial pools
  if (cli.max_input_bytes_set) {
    options.service.max_payload_bytes = cli.max_input_bytes;
  }
  auto positive = [&](std::size_t i, const char* flag) {
    if (i + 1 >= args.size()) {
      throw std::invalid_argument(std::string(flag) + " needs a value");
    }
    long long value = std::stoll(args[i + 1]);
    if (value < 0) {
      throw std::invalid_argument(std::string(flag) + " must be >= 0");
    }
    return static_cast<std::uint64_t>(value);
  };
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--serve-workers") {
      options.service.workers = static_cast<int>(positive(i, args[i].c_str()));
      ++i;
    } else if (args[i] == "--queue-cap") {
      options.service.global_queue_cap = positive(i, args[i].c_str());
      ++i;
    } else if (args[i] == "--session-cap") {
      options.service.session_queue_cap = positive(i, args[i].c_str());
      ++i;
    } else if (args[i] == "--checkpoint-every") {
      options.service.checkpoint_every = positive(i, args[i].c_str());
      ++i;
    } else if (args[i] == "--replica-of") {
      if (i + 1 >= args.size()) {
        return bad_usage("--replica-of needs the primary's socket path");
      }
      options.replica_of = args[i + 1];
      ++i;
    } else if (args[i] == "--repl-mode") {
      if (i + 1 >= args.size() ||
          (args[i + 1] != "async" && args[i + 1] != "sync")) {
        return bad_usage("--repl-mode needs 'async' or 'sync'");
      }
      options.repl_sync = args[i + 1] == "sync";
      ++i;
    } else if (args[i] == "--heartbeat-ms") {
      options.heartbeat_ms =
          static_cast<double>(positive(i, args[i].c_str()));
      if (options.heartbeat_ms <= 0) {
        return bad_usage("--heartbeat-ms must be > 0");
      }
      ++i;
    } else if (args[i] == "--promote-after") {
      options.promote_after_missed =
          static_cast<int>(positive(i, args[i].c_str()));
      ++i;
    } else {
      return bad_usage("unknown serve option '" + args[i] + "'");
    }
  }
  if (!cli.fault_spec.empty()) {
    // Serve-side rules (serve-crash, slow-client) arm regardless of the
    // (shard, attempt) pair; shard rules stay dormant in the daemon.
    util::fault::arm(util::fault::parse_fault_spec(cli.fault_spec), 0, 0);
  }
  return serve::run_daemon(options);
}

int run_cluster_command(const CliOptions& cli,
                        const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return bad_usage(
        "cluster needs: provmark [options] cluster <socket> <cluster-root> "
        "[--members N] [--member-window N] [--heartbeat-ms M] "
        "[--heartbeat-deadline-ms M] [--start-deadline-ms M] "
        "[--max-restarts K] [serve-options]");
  }
  serve::ClusterOptions options;
  options.socket_path = args[0];
  options.root = args[1];
  options.service.seed = cli.seed;
  options.service.workers = 2;
  options.service.pipeline.matcher = cli.matcher;
  options.service.pipeline.pool = nullptr;  // members use serial pools
  options.fault_spec = cli.fault_spec;
  if (cli.max_input_bytes_set) {
    options.service.max_payload_bytes = cli.max_input_bytes;
  }
  auto positive = [&](std::size_t i, const char* flag) {
    if (i + 1 >= args.size()) {
      throw std::invalid_argument(std::string(flag) + " needs a value");
    }
    long long value = std::stoll(args[i + 1]);
    if (value < 0) {
      throw std::invalid_argument(std::string(flag) + " must be >= 0");
    }
    return static_cast<std::uint64_t>(value);
  };
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--members") {
      options.members = static_cast<int>(positive(i, args[i].c_str()));
      if (options.members < 1) {
        return bad_usage("--members must be >= 1");
      }
      ++i;
    } else if (args[i] == "--member-window") {
      options.member_window = static_cast<int>(positive(i, args[i].c_str()));
      if (options.member_window < 1) {
        return bad_usage("--member-window must be >= 1");
      }
      ++i;
    } else if (args[i] == "--heartbeat-ms") {
      options.heartbeat_ms =
          static_cast<double>(positive(i, args[i].c_str()));
      if (options.heartbeat_ms <= 0) {
        return bad_usage("--heartbeat-ms must be > 0");
      }
      ++i;
    } else if (args[i] == "--heartbeat-deadline-ms") {
      options.heartbeat_deadline_ms =
          static_cast<double>(positive(i, args[i].c_str()));
      ++i;
    } else if (args[i] == "--start-deadline-ms") {
      options.start_deadline_ms =
          static_cast<double>(positive(i, args[i].c_str()));
      if (options.start_deadline_ms <= 0) {
        return bad_usage("--start-deadline-ms must be > 0");
      }
      ++i;
    } else if (args[i] == "--max-restarts") {
      if (i + 1 >= args.size()) {
        return bad_usage("--max-restarts needs a value");
      }
      options.max_restarts = std::stoi(args[i + 1]);
      ++i;
    } else if (args[i] == "--serve-workers") {
      options.service.workers = static_cast<int>(positive(i, args[i].c_str()));
      ++i;
    } else if (args[i] == "--queue-cap") {
      options.service.global_queue_cap = positive(i, args[i].c_str());
      ++i;
    } else if (args[i] == "--session-cap") {
      options.service.session_queue_cap = positive(i, args[i].c_str());
      ++i;
    } else if (args[i] == "--checkpoint-every") {
      options.service.checkpoint_every = positive(i, args[i].c_str());
      ++i;
    } else {
      return bad_usage("unknown cluster option '" + args[i] + "'");
    }
  }
  if (!cli.fault_spec.empty()) {
    // Router-side rules (route-drop) arm here; member-targeted rules
    // stay dormant in the router and re-arm inside each member child
    // with its own (member, incarnation) coordinates.
    util::fault::arm(util::fault::parse_fault_spec(cli.fault_spec), -1, -1);
  }
  return serve::run_cluster(options);
}

int run_feed_command(const CliOptions& cli,
                     const std::vector<std::string>& args) {
  serve::FeedOptions feed;
  feed.seed = cli.seed;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--feed-retries") {
      if (i + 1 >= args.size()) {
        return bad_usage("--feed-retries needs a value");
      }
      feed.retries = std::stoi(args[i + 1]);
      if (feed.retries < 0) {
        return bad_usage("--feed-retries must be >= 0");
      }
      ++i;
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.empty() || positional.size() > 2) {
    return bad_usage(
        "feed needs: provmark feed <socket> [request-file] "
        "[--feed-retries N]");
  }
  if (positional.size() == 2) {
    std::ifstream in(positional[1]);
    if (!in.good()) {
      throw std::runtime_error("cannot read request file " + positional[1]);
    }
    return serve::run_feed(positional[0], in, std::cout, feed);
  }
  return serve::run_feed(positional[0], std::cin, std::cout, feed);
}

int run_promote(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return bad_usage("promote needs: provmark promote <socket>");
  }
  std::istringstream in("promote\n");
  return serve::run_feed(args[0], in, std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  // The untouched invocation, for re-execing shard workers verbatim.
  const std::vector<std::string> raw_args = args;

  CliOptions cli;
  std::unique_ptr<runtime::ThreadPool> owned_pool;
  std::unique_ptr<runtime::ThreadPool> matcher_pool;
  // Peel leading options off before the subcommand.
  try {
    while (!args.empty() && args[0].rfind("--", 0) == 0) {
      if (args[0] == "--help") {
        std::printf("%s", kUsage);
        return 0;
      }
      if (args[0] == "--threads" && args.size() >= 2) {
        owned_pool = std::make_unique<runtime::ThreadPool>(
            std::stoi(args[1]));
        cli.pool = owned_pool.get();
        args.erase(args.begin(), args.begin() + 2);
        continue;
      }
      if (args[0] == "--shards" && args.size() >= 2) {
        cli.shards = std::stoi(args[1]);
        if (cli.shards < 1) {
          throw std::invalid_argument("--shards must be >= 1");
        }
        args.erase(args.begin(), args.begin() + 2);
        continue;
      }
      if (args[0] == "--shard-id" && args.size() >= 2) {
        cli.shard_id = std::stoi(args[1]);
        if (cli.shard_id < 0) {
          throw std::invalid_argument("--shard-id must be >= 0");
        }
        args.erase(args.begin(), args.begin() + 2);
        continue;
      }
      if (args[0] == "--shard-retries" && args.size() >= 2) {
        cli.shard_retries = std::stoi(args[1]);
        if (cli.shard_retries < 0) {
          throw std::invalid_argument("--shard-retries must be >= 0");
        }
        args.erase(args.begin(), args.begin() + 2);
        continue;
      }
      if (args[0] == "--shard-attempt" && args.size() >= 2) {
        cli.shard_attempt = std::stoi(args[1]);
        if (cli.shard_attempt < 0) {
          throw std::invalid_argument("--shard-attempt must be >= 0");
        }
        args.erase(args.begin(), args.begin() + 2);
        continue;
      }
      if (args[0] == "--fault-spec" && args.size() >= 2) {
        // Parse eagerly so a malformed spec fails before any work runs.
        util::fault::parse_fault_spec(args[1]);
        cli.fault_spec = args[1];
        args.erase(args.begin(), args.begin() + 2);
        continue;
      }
      if (args[0] == "--deterministic-timings") {
        cli.deterministic_timings = true;
        args.erase(args.begin());
        continue;
      }
      if (args[0] == "--matcher-threads" && args.size() >= 2) {
        // A dedicated pool: the matcher search nests inside pipeline
        // workers, and a loop on a *different* pool fans out instead of
        // running inline (see runtime/thread_pool.h nesting rules).
        cli.matcher.threads = std::stoi(args[1]);
        if (cli.matcher.threads > 1) {
          matcher_pool =
              std::make_unique<runtime::ThreadPool>(cli.matcher.threads);
          cli.matcher.pool = matcher_pool.get();
        }
        args.erase(args.begin(), args.begin() + 2);
        continue;
      }
      if (args[0] == "--seed" && args.size() >= 2) {
        cli.seed = std::stoull(args[1]);
        args.erase(args.begin(), args.begin() + 2);
        continue;
      }
      if (args[0] == "--max-input-bytes" && args.size() >= 2) {
        cli.max_input_bytes = std::stoull(args[1]);
        cli.max_input_bytes_set = true;
        args.erase(args.begin(), args.begin() + 2);
        continue;
      }
      return bad_usage("unknown option '" + args[0] + "'");
    }
    if (args.empty()) return usage();
    if (args[0] == "run") {
      if (args.size() != 3 && args.size() != 4) {
        return bad_usage(
            "run needs: provmark [options] run <system> <benchmark> "
            "[trials]");
      }
      return run_single(cli, args[1], args[2],
                        args.size() == 4 ? std::stoi(args[3]) : 0);
    }
    if (args[0] == "batch") {
      if (args.size() != 3 && args.size() != 4) {
        return bad_usage(
            "batch needs: provmark [options] batch <systems> <rb|rg|rh> "
            "[output-dir]");
      }
      if (args[2] != "rb" && args[2] != "rg" && args[2] != "rh") {
        return bad_usage("unknown result type '" + args[2] +
                         "' (rb | rg | rh)");
      }
      return run_batch(cli, argv[0], raw_args, args[1], args[2],
                       args.size() == 4 ? args[3] : "finalResult");
    }
    if (args[0] == "merge") {
      if (args.size() < 3) {
        return bad_usage(
            "merge needs: provmark merge <output-dir> <shard-dir> "
            "[<shard-dir>...]");
      }
      return run_merge(args[1], std::vector<std::string>(args.begin() + 2,
                                                         args.end()));
    }
    if (args[0] == "query") {
      if (args.size() != 3 && args.size() != 4) {
        return bad_usage(
            "query needs: provmark query <facts.datalog> <atom> "
            "[rules.datalog]");
      }
      return run_query(args[1], args[2], args.size() == 4 ? args[3] : "",
                       cli.max_input_bytes);
    }
    if (args[0] == "gen") {
      return run_gen(cli, std::vector<std::string>(args.begin() + 1,
                                                   args.end()));
    }
    if (args[0] == "serve") {
      return run_serve(cli, std::vector<std::string>(args.begin() + 1,
                                                     args.end()));
    }
    if (args[0] == "cluster") {
      return run_cluster_command(
          cli, std::vector<std::string>(args.begin() + 1, args.end()));
    }
    if (args[0] == "feed") {
      return run_feed_command(
          cli, std::vector<std::string>(args.begin() + 1, args.end()));
    }
    if (args[0] == "promote") {
      return run_promote(
          std::vector<std::string>(args.begin() + 1, args.end()));
    }
    return bad_usage("unknown subcommand '" + args[0] + "'");
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
  return usage();
}
