#include "pipeline_bench.h"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_suite/executor.h"
#include "bench_suite/program.h"
#include "core/compare.h"
#include "core/generalize.h"
#include "core/transform.h"
#include "datalog/fact_io.h"
#include "graph/algorithms.h"
#include "matcher/interned.h"
#include "matcher/memo.h"
#include "runtime/thread_pool.h"
#include "systems/recorder.h"
#include "trace.h"
#include "util/rng.h"

namespace provbench {

using namespace provmark;

namespace {

const char* const kTable1Systems[] = {"spade", "opus",  "camflow",
                                      "spade-camflow", "audit", "ebpf"};

/// gen_matcher: recorder and generator scale, each below its known
/// matcher cliff (audit x16 and opus x24 have cells past 20 s).
const std::pair<const char*, int> kGenSystems[] = {
    {"audit", 12}, {"opus", 16}, {"camflow", 32}};
constexpr int kGenSeeds = 20;

/// Cold warm-up sweeps forked per run; the parent's own warm-up sweep
/// is one more sample of the same cost.
constexpr int kSetupForks = 3;

/// Stops the process when an in-flight cell passes kCellCapSeconds: a
/// cell on the matcher cliff can run for minutes, and the run must end
/// naming it rather than hang.
class Watchdog {
 public:
  explicit Watchdog(const std::vector<Cell>& cells)
      : cells_(cells), start_ns_(cells.size()) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void started(std::size_t i) { start_ns_[i].store(now_ns()); }
  void finished(std::size_t i) { start_ns_[i].store(0); }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return stop_; })) {
      const std::int64_t now = now_ns();
      for (std::size_t i = 0; i < start_ns_.size(); ++i) {
        const std::int64_t start = start_ns_[i].load();
        if (start != 0 &&
            static_cast<double>(now - start) / 1e9 > kCellCapSeconds) {
          std::fprintf(stderr,
                       "provbench: bad seed: cell %s ran past the %.0f s "
                       "per-cell cap (matcher cliff)\n",
                       cells_[i].key().c_str(), kCellCapSeconds);
          std::fflush(stderr);
          ::_exit(3);
        }
      }
    }
  }

  const std::vector<Cell>& cells_;
  std::vector<std::atomic<std::int64_t>> start_ns_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

struct Sweep {
  double wall_s = 0;
  std::vector<double> latency_s;
  std::vector<core::BenchmarkResult> results;
};

/// One pass over every cell, cells spread over the pool. A cell's
/// run_benchmark receives the same pool, so its own parallel phases run
/// inline on whichever worker took the cell.
Sweep sweep(const std::vector<Cell>& cells, std::uint64_t seed,
            runtime::ThreadPool& pool) {
  Sweep out;
  out.latency_s.resize(cells.size());
  out.results.resize(cells.size());
  Watchdog watchdog(cells);
  const auto start = Clock::now();
  pool.parallel_for(cells.size(), [&](std::size_t i) {
    const bench_suite::BenchmarkProgram& program =
        bench_suite::benchmark_by_name(cells[i].program);
    watchdog.started(i);
    const auto cell_start = Clock::now();
    out.results[i] =
        core::run_benchmark(program, cell_options(cells[i], seed, &pool));
    out.latency_s[i] = seconds_between(cell_start, Clock::now());
    watchdog.finished(i);
  });
  out.wall_s = seconds_between(start, Clock::now());
  return out;
}

/// Count cells that failed or whose digest disagrees with the committed
/// one; the first few are named on stderr.
std::uint64_t check_results(const std::vector<Cell>& cells,
                            const std::vector<core::BenchmarkResult>& results,
                            std::uint64_t seed,
                            const ExpectedDigests& expected) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const core::BenchmarkResult& r = results[i];
    const std::string digest =
        result_digest(r.status, r.result, r.dummy_nodes);
    auto it = expected.find({seed, cells[i].key()});
    std::string problem;
    if (r.status == core::BenchmarkStatus::Failed) {
      problem = "failed: " + r.failure_reason;
    } else if (it == expected.end()) {
      problem = "no committed digest";
    } else if (it->second != digest) {
      problem = "digest " + digest + " != committed " + it->second;
    }
    if (problem.empty()) continue;
    if (++failed <= 5) {
      std::fprintf(stderr, "provbench: cell %s (seed %llu): %s\n",
                   cells[i].key().c_str(),
                   static_cast<unsigned long long>(seed), problem.c_str());
    }
  }
  return failed;
}

/// Fork a child that times one cold warm-up sweep. Called while the
/// process has no threads, so the child starts from a clean state.
double forked_warmup_seconds(const std::vector<Cell>& cells,
                             std::uint64_t seed) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    double wall = -1;
    try {
      runtime::ThreadPool pool(kPipelineWidth);
      wall = sweep(cells, seed, pool).wall_s;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "provbench: warm-up child: %s\n", e.what());
    }
    const bool ok = ::write(fds[1], &wall, sizeof wall) == sizeof wall;
    ::_exit(ok && wall > 0 ? 0 : 1);
  }
  ::close(fds[1]);
  double wall = -1;
  const bool got = ::read(fds[0], &wall, sizeof wall) == sizeof wall;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("warm-up child failed");
  }
  return wall;
}

}  // namespace

std::vector<Cell> workload_cells(const std::string& workload) {
  std::vector<Cell> cells;
  if (workload == "table1_sweep") {
    for (const bench_suite::BenchmarkProgram& program :
         bench_suite::table_benchmarks()) {
      for (const char* system : kTable1Systems) {
        cells.push_back({system, program.name});
      }
    }
  } else if (workload == "gen_matcher") {
    for (const auto& [system, scale] : kGenSystems) {
      for (int g = 1; g <= kGenSeeds; ++g) {
        cells.push_back({system, "gen" + std::to_string(g) + "x" +
                                     std::to_string(scale)});
      }
    }
  } else {
    throw std::invalid_argument("not a pipeline workload: " + workload);
  }
  return cells;
}

const std::vector<std::uint64_t>& pipeline_seed_pool() {
  static const std::vector<std::uint64_t> pool = {42, 43, 44, 45,
                                                  46, 47, 48, 49};
  return pool;
}

std::uint64_t pipeline_seed(std::uint64_t bench_seed) {
  return 42 + (bench_seed % 8 + 6) % 8;
}

core::PipelineOptions cell_options(const Cell& cell, std::uint64_t seed,
                                   runtime::ThreadPool* pool) {
  core::PipelineOptions options;
  options.system = cell.system;
  options.seed = seed;
  options.pool = pool;
  // Modeled costs stay out of the measured time: no simulated recorder
  // wait, and one Neo4j startup round instead of the calibrated 400
  // (formats.neo4j_round_us reports the per-round cost on its own).
  options.simulated_recording_latency = 0;
  options.transform.neo4j_startup_rounds = 1;
  return options;
}

std::string result_digest(core::BenchmarkStatus status,
                          const graph::PropertyGraph& result,
                          const std::vector<graph::Id>& dummy_nodes) {
  std::string text = core::status_name(status);
  text += '\n';
  text += datalog::to_datalog(result, "r");
  text += "dummies";
  for (const graph::Id& id : dummy_nodes) text += " " + id;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(util::stable_hash(text)));
  return buf;
}

ExpectedDigests load_expected(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  ExpectedDigests out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, digest;
    fields >> key;
    for (std::uint64_t seed : pipeline_seed_pool()) {
      if (!(fields >> digest)) {
        throw std::runtime_error("malformed digest line: " + line);
      }
      out[{seed, key}] = digest;
    }
  }
  return out;
}

void write_expected(const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << "# system/program, then the result digest at each pipeline seed:";
  for (std::uint64_t seed : pipeline_seed_pool()) out << ' ' << seed;
  out << '\n';
  runtime::ThreadPool pool(kPipelineWidth);
  for (const char* workload : {"table1_sweep", "gen_matcher"}) {
    const std::vector<Cell> cells = workload_cells(workload);
    std::vector<std::string> lines(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) lines[i] = cells[i].key();
    for (std::uint64_t seed : pipeline_seed_pool()) {
      Sweep s = sweep(cells, seed, pool);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const core::BenchmarkResult& r = s.results[i];
        if (r.status == core::BenchmarkStatus::Failed) {
          throw std::runtime_error("cell " + cells[i].key() +
                                   " failed: " + r.failure_reason);
        }
        lines[i] += ' ' + result_digest(r.status, r.result, r.dummy_nodes);
      }
    }
    for (const std::string& line : lines) out << line << '\n';
  }
}

RunResult run_pipeline(const std::string& workload, std::uint64_t bench_seed,
                       double seconds, const ExpectedDigests& expected) {
  const std::vector<Cell> cells = workload_cells(workload);
  const std::uint64_t seed = pipeline_seed(bench_seed);
  RunResult out;

  // Set-up: the first sweep of a fresh process fills the lazy caches
  // (program tables, generated programs, allocator arenas). Each sample
  // comes from its own forked process so every one starts cold.
  std::vector<double> setup;
  for (int i = 0; i < kSetupForks; ++i) {
    setup.push_back(forked_warmup_seconds(cells, seed));
  }

  runtime::ThreadPool pool(kPipelineWidth);
  Sweep warm = sweep(cells, seed, pool);
  setup.push_back(warm.wall_s);
  out.attempted += cells.size();
  out.failed += check_results(cells, warm.results, seed, expected);

  std::vector<double> rates;
  const auto start = Clock::now();
  while (rates.size() < 3 || seconds_between(start, Clock::now()) < seconds) {
    Sweep s = sweep(cells, seed, pool);
    rates.push_back(static_cast<double>(cells.size()) / s.wall_s);
    out.attempted += cells.size();
    out.failed += check_results(cells, s.results, seed, expected);
  }

  std::printf("%s: pipeline seed %llu, %zu cells x %zu sweeps at width %d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              cells.size(), rates.size(), kPipelineWidth);
  out.metrics["setup_s"] = median(setup);
  out.metrics["cells_per_s"] = median(rates);
  return out;
}

// -- traced run ---------------------------------------------------------------

namespace {

/// Counters gathered at the stage boundaries of one traced sweep.
struct StageCounts {
  std::mutex mutex;
  double native_bytes = 0;
  std::uint64_t native_docs = 0;
  std::uint64_t generalize_steps = 0;
  std::uint64_t generalize_calls = 0;
  std::uint64_t compare_steps = 0;
  std::uint64_t compare_calls = 0;
  std::string opus_native;  ///< one OPUS document for the Neo4j probe
};

/// Round 0 of run_benchmark through the stage entry points, serially,
/// one span per call. Returns the result digest, or nullopt when the
/// cell would need a retry round (those are not compared).
std::optional<std::string> traced_cell(const Cell& cell,
                                       const bench_suite::BenchmarkProgram&
                                           program,
                                       std::uint64_t seed, std::uint64_t id,
                                       Tracer& tracer, StageCounts& counts) {
  Tracer::Scope cell_span(tracer, "pipeline.cell", id);
  const core::PipelineOptions options = cell_options(cell, seed, nullptr);
  std::unique_ptr<systems::Recorder> recorder =
      systems::make_recorder(cell.system);
  const int trials = core::default_trials(recorder->name());

  // (1) recording: background trials, then foreground trials.
  std::vector<std::string> natives;
  bool behaviour_ok = true;
  for (bool foreground : {false, true}) {
    for (int i = 0; i < trials; ++i) {
      const std::uint64_t trial_seed =
          core::trial_seed(seed, program.name, foreground, i);
      bench_suite::ExecutionResult run;
      {
        Tracer::Scope s(tracer, "bench_suite.execute", id);
        run = bench_suite::execute_program(program, foreground, trial_seed,
                                           recorder->extra_audit_rules());
      }
      if (foreground && !run.behaviour_ok) behaviour_ok = false;
      Tracer::Scope s(tracer, "systems.record", id);
      natives.push_back(recorder->record(
          run.trace, systems::TrialContext{trial_seed ^ 0xC0FFEEULL}));
    }
  }
  {
    std::lock_guard<std::mutex> lock(counts.mutex);
    for (const std::string& n : natives) {
      counts.native_bytes += static_cast<double>(n.size());
      ++counts.native_docs;
    }
    if (cell.system == "opus" && counts.opus_native.empty()) {
      counts.opus_native = natives.back();
    }
  }

  // (2) transformation: parse + digest per trial, then intern serially.
  graph::SymbolTable symbols;
  std::deque<graph::PropertyGraph> graphs[2];
  std::deque<matcher::InternedGraph> interned[2];
  std::vector<std::uint64_t> digests[2];
  for (std::size_t t = 0; t < natives.size(); ++t) {
    const int side = t < static_cast<std::size_t>(trials) ? 0 : 1;
    std::optional<graph::PropertyGraph> g;
    try {
      Tracer::Scope s(tracer, "transform", id);
      g = core::transform_native(natives[t], options.transform);
    } catch (const std::exception&) {
      continue;  // garbled trial, excluded like the pipeline does
    }
    std::uint64_t digest = 0;
    {
      Tracer::Scope s(tracer, "graph.digest", id);
      digest = graph::structural_digest(*g);
    }
    graphs[side].push_back(std::move(*g));
    digests[side].push_back(digest);
  }
  for (int side = 0; side < 2; ++side) {
    for (const graph::PropertyGraph& g : graphs[side]) {
      Tracer::Scope s(tracer, "matcher.intern", id);
      interned[side].emplace_back(g, symbols);
    }
  }

  // (3) generalization of each variant, sharing one similarity memo.
  core::GeneralizeOptions generalize = options.generalize;
  generalize.search = options.matcher;
  matcher::SimilarityMemo memo;
  std::optional<core::GeneralizeResult> general[2];
  for (int side = 0; side < 2; ++side) {
    std::vector<const matcher::InternedGraph*> pointers;
    for (const matcher::InternedGraph& g : interned[side]) {
      pointers.push_back(&g);
    }
    Tracer::Scope s(tracer, "generalize", id);
    general[side] = core::generalize_trials(pointers, digests[side],
                                            generalize, &memo, nullptr);
  }
  std::uint64_t gsteps = 0;
  for (const auto& g : general) {
    if (g.has_value()) gsteps += g->search_stats.steps;
  }
  {
    std::lock_guard<std::mutex> lock(counts.mutex);
    counts.generalize_steps += gsteps;
    counts.generalize_calls += 2;
  }
  if (!general[0].has_value() || !general[1].has_value()) return std::nullopt;

  // (4) comparison.
  core::CompareOptions compare = options.compare;
  compare.search = options.matcher;
  std::optional<matcher::InternedGraph> bg, fg;
  {
    Tracer::Scope s(tracer, "matcher.intern", id);
    bg.emplace(general[0]->graph, symbols);
  }
  {
    Tracer::Scope s(tracer, "matcher.intern", id);
    fg.emplace(general[1]->graph, symbols);
  }
  core::CompareResult compared;
  {
    Tracer::Scope s(tracer, "compare", id);
    compared = core::compare_graphs(*bg, *fg, compare);
  }
  {
    std::lock_guard<std::mutex> lock(counts.mutex);
    counts.compare_steps += compared.search_stats.steps;
    ++counts.compare_calls;
  }
  if (compared.embedding_failed) return std::nullopt;
  core::BenchmarkStatus status =
      !behaviour_ok ? core::BenchmarkStatus::Failed
      : compared.benchmark.empty() ? core::BenchmarkStatus::Empty
                                   : core::BenchmarkStatus::Ok;
  return result_digest(status, compared.benchmark, compared.dummy_nodes);
}

/// One stage-driven sweep, cells spread over the pool, each cell serial.
double traced_sweep(const std::vector<Cell>& cells, std::uint64_t seed,
                    runtime::ThreadPool& pool, Tracer& tracer,
                    StageCounts& counts,
                    std::vector<std::optional<std::string>>* digests) {
  const auto start = Clock::now();
  pool.parallel_for(cells.size(), [&](std::size_t i) {
    std::optional<std::string> d = traced_cell(
        cells[i], bench_suite::benchmark_by_name(cells[i].program), seed, i,
        tracer, counts);
    if (digests != nullptr) (*digests)[i] = std::move(d);
  });
  return seconds_between(start, Clock::now());
}

/// Microseconds per Neo4jStore startup round on `document`: the open
/// cost at 1 + kRounds rounds minus the cost at 1 round.
double neo4j_round_us(const std::string& document) {
  constexpr int kRounds = 40;
  core::TransformOptions one, many;
  one.neo4j_startup_rounds = 1;
  many.neo4j_startup_rounds = 1 + kRounds;
  std::vector<double> t_one, t_many;
  for (int rep = 0; rep < 5; ++rep) {
    auto a = Clock::now();
    core::transform_native(document, one);
    auto b = Clock::now();
    core::transform_native(document, many);
    auto c = Clock::now();
    t_one.push_back(seconds_between(a, b));
    t_many.push_back(seconds_between(b, c));
  }
  return (median(t_many) - median(t_one)) * 1e6 / kRounds;
}

}  // namespace

void trace_pipeline(const std::vector<Cell>& cells, std::uint64_t bench_seed,
                    double seconds, const ExpectedDigests& expected,
                    const std::filesystem::path& spans_path,
                    RunResult& out) {
  const std::uint64_t seed = pipeline_seed(bench_seed);
  runtime::ThreadPool pool(kPipelineWidth);
  Metrics& m = out.metrics;

  // The untraced reference: run_benchmark over the same cells gives the
  // retry counts and the pool's CPU utilisation (this also warms up).
  const double cpu_before = process_cpu_seconds();
  Sweep reference = sweep(cells, seed, pool);
  const double cpu = process_cpu_seconds() - cpu_before;
  out.attempted += cells.size();
  out.failed += check_results(cells, reference.results, seed, expected);
  double trials = 0, useful = 0, memo_hits = 0, memo_lookups = 0;
  for (const core::BenchmarkResult& r : reference.results) {
    trials += 2.0 * r.trials_run;
    useful += 2.0 * r.trials_run - r.trials_discarded - r.trials_unparseable;
    memo_hits += static_cast<double>(r.similarity_cache_hits);
    memo_lookups += static_cast<double>(r.similarity_cache_lookups);
  }
  // The similarity memo only hits across retry rounds, which the traced
  // round-0 flow never runs, so its ratio comes from run_benchmark.
  m["generalize.memo_hit_ratio"] =
      memo_lookups == 0 ? 0.0 : memo_hits / memo_lookups;
  m["pipeline.trials_per_cell"] = trials / static_cast<double>(cells.size());
  m["pipeline.useful_trial_ratio"] = useful / trials;
  m["runtime.cpu_util"] = cpu / (reference.wall_s * kPipelineWidth);
  std::vector<double> cell_ms;
  for (double l : reference.latency_s) cell_ms.push_back(l * 1e3);
  m["pipeline.cell_p50_ms"] = percentile(cell_ms, 0.50);
  m["pipeline.cell_p99_ms"] = percentile(cell_ms, 0.99);

  // The recorded traced sweep: every stage call under a span.
  Tracer tracer(true);
  StageCounts counts;
  std::vector<std::optional<std::string>> digests(cells.size());
  double traced_wall =
      traced_sweep(cells, seed, pool, tracer, counts, &digests);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!digests[i].has_value()) continue;  // needed a retry round
    ++out.attempted;
    auto it = expected.find({seed, cells[i].key()});
    if (it == expected.end() || it->second != *digests[i]) {
      ++out.failed;
      std::fprintf(stderr,
                   "provbench: traced cell %s differs from run_benchmark\n",
                   cells[i].key().c_str());
    }
  }

  // Tracing overhead: the same stage-driven sweep with the tracer off
  // and on, alternating, for the rest of the pipeline budget.
  std::vector<double> on{traced_wall}, off;
  const auto start = Clock::now();
  while (off.size() < 2 || seconds_between(start, Clock::now()) < seconds) {
    Tracer disabled(false);
    StageCounts scratch;
    off.push_back(traced_sweep(cells, seed, pool, disabled, scratch, nullptr));
    Tracer enabled(true);
    on.push_back(traced_sweep(cells, seed, pool, enabled, scratch, nullptr));
  }
  m["trace.overhead_pct"] = (median(on) / median(off) - 1.0) * 100.0;

  const std::vector<Span> spans = tracer.spans();
  const std::string nesting = check_spans(spans);
  if (!nesting.empty()) {
    ++out.failed;
    std::fprintf(stderr, "provbench: pipeline spans: %s\n", nesting.c_str());
  }
  write_spans(spans_path, spans);
  std::map<std::string, LayerTime> layers = layer_times(spans);
  auto per_call = [&layers](const char* name) {
    const LayerTime& l = layers[name];
    return l.count == 0 ? 0.0 : l.self_us / static_cast<double>(l.count);
  };
  m["bench_suite.execute_us"] = per_call("bench_suite.execute");
  m["systems.record_us"] = per_call("systems.record");
  m["systems.native_kb"] =
      counts.native_bytes / static_cast<double>(counts.native_docs) / 1024.0;
  m["transform.us"] = per_call("transform");
  m["graph.digest_us"] = per_call("graph.digest");
  m["matcher.intern_us"] = per_call("matcher.intern");
  m["generalize.us"] = per_call("generalize");
  m["generalize.steps"] = static_cast<double>(counts.generalize_steps) /
                          static_cast<double>(counts.generalize_calls);
  m["compare.us"] = per_call("compare");
  m["compare.steps"] =
      counts.compare_calls == 0
          ? 0.0
          : static_cast<double>(counts.compare_steps) /
                static_cast<double>(counts.compare_calls);
  const double cell_us = layers["pipeline.cell"].total_us;
  m["pipeline.matcher_share"] =
      (layers["generalize"].self_us + layers["compare"].self_us) / cell_us;

  std::string opus = counts.opus_native;
  if (opus.empty()) {
    // No OPUS cell in this workload: record one Table-1 trial on OPUS.
    const bench_suite::BenchmarkProgram program =
        bench_suite::table_benchmarks().front();
    std::unique_ptr<systems::Recorder> recorder =
        systems::make_recorder("opus");
    const std::uint64_t trial_seed =
        core::trial_seed(seed, program.name, true, 0);
    opus = recorder->record(
        bench_suite::execute_program(program, true, trial_seed).trace,
        systems::TrialContext{trial_seed ^ 0xC0FFEEULL});
  }
  m["formats.neo4j_round_us"] = neo4j_round_us(opus);

  std::printf("traced pipeline: %zu cells, %zu spans, matcher share %.3f, "
              "tracing overhead %.2f%%\n",
              cells.size(), spans.size(), m["pipeline.matcher_share"],
              m["trace.overhead_pct"]);
}

}  // namespace provbench
