// The sharded batch subsystem: plan determinism, cell-record round
// trips, merge determinism (any shard order produces the exact
// single-process bytes), and resume-after-partial-sweep detection.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/shard.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::core {
namespace {

namespace fs = std::filesystem;

/// A scratch directory wiped on construction and destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("provmark_shard_test_" + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

const std::vector<std::string> kSystems = {"spade", "camflow"};
const std::vector<std::string> kBenchmarks = {"open", "rename", "fork"};

TEST(ShardPlan, StableAcrossShardCounts) {
  // The global cell order is a property of the matrix, not of the shard
  // count: every N must see the same cells at the same indices — that
  // is what lets shard artifacts from different layouts interoperate
  // with the single-process sweep.
  ShardPlan reference =
      plan_batch(kSystems, kBenchmarks, 1, 42, "rb", false);
  ASSERT_EQ(reference.cells.size(), kSystems.size() * kBenchmarks.size());
  // Systems outer, benchmarks inner — the single-process loop order.
  EXPECT_EQ(reference.cells[0].system, "spade");
  EXPECT_EQ(reference.cells[0].benchmark, "open");
  EXPECT_EQ(reference.cells[3].system, "camflow");
  EXPECT_EQ(reference.cells[3].benchmark, "open");
  for (std::size_t i = 0; i < reference.cells.size(); ++i) {
    EXPECT_EQ(reference.cells[i].index, i);
  }

  for (int shards = 1; shards <= 5; ++shards) {
    ShardPlan plan =
        plan_batch(kSystems, kBenchmarks, shards, 42, "rb", false);
    EXPECT_EQ(plan.cells, reference.cells) << "shards=" << shards;
    std::set<std::size_t> covered;
    for (int k = 0; k < shards; ++k) {
      ShardSpec spec = plan.shard(k);
      EXPECT_EQ(spec.shard_id, k);
      EXPECT_EQ(spec.shard_count, shards);
      for (const BatchCell& cell : spec.cells) {
        EXPECT_EQ(cell.index % shards, static_cast<std::size_t>(k));
        EXPECT_EQ(cell, reference.cells[cell.index]);
        EXPECT_TRUE(covered.insert(cell.index).second)
            << "cell " << cell.index << " assigned twice";
      }
    }
    EXPECT_EQ(covered.size(), reference.cells.size()) << "shards=" << shards;
  }

  EXPECT_THROW(plan_batch(kSystems, kBenchmarks, 0, 42, "rb", false),
               std::invalid_argument);
  EXPECT_THROW(plan_batch({}, kBenchmarks, 1, 42, "rb", false),
               std::invalid_argument);
}

TEST(ShardCellRecord, RoundTripsHostileContent) {
  BenchmarkResult result;
  result.system = "spade";
  result.benchmark = "rename-fail";
  result.status = BenchmarkStatus::Failed;
  result.failure_reason = "line one\nline \"two\"\twith \\ slashes";
  result.timings.recording = 1.0 / 3.0;
  result.timings.transformation = 0.123456789012345678;
  result.timings.generalization = 1e-9;
  result.timings.comparison = 12345.678901;
  result.trials_run = 12;
  result.trials_discarded = 3;
  result.trials_unparseable = 1;
  result.transient_properties = 7;
  result.threads_used = 4;
  result.similarity_cache_hits = 99;
  result.similarity_cache_lookups = 123;
  result.matcher_steps = 456789;
  result.dummy_nodes = {"dummy one", "d\"2\""};

  result.result.add_node("dummy one", "Process");
  result.result.add_node("d\"2\"", "Artifact",
                         {{"path", "/tmp/a b"}, {"note", "π ≠ ascii"}});
  result.result.add_node("n3", "Artifact", {{"k", "v1,v2\nv3"}});
  result.result.add_edge("e1", "n3", "dummy one", "Used",
                         {{"operation", "read"}});
  // Insertion order that differs from id order, so the round trip is
  // provably order-preserving (zz before aa).
  result.generalized_foreground.add_node("zz", "Process");
  result.generalized_foreground.add_node("aa", "Artifact");
  result.generalized_foreground.add_edge("e9", "zz", "aa", "Used");
  result.generalized_background.add_node("only", "Process");

  std::string encoded = encode_cell_record(17, result);
  std::size_t index = 0;
  BenchmarkResult decoded = decode_cell_record(encoded, &index);

  EXPECT_EQ(index, 17u);
  EXPECT_EQ(decoded.system, result.system);
  EXPECT_EQ(decoded.benchmark, result.benchmark);
  EXPECT_EQ(decoded.status, result.status);
  EXPECT_EQ(decoded.failure_reason, result.failure_reason);
  EXPECT_EQ(decoded.timings.recording, result.timings.recording);
  EXPECT_EQ(decoded.timings.transformation, result.timings.transformation);
  EXPECT_EQ(decoded.timings.generalization, result.timings.generalization);
  EXPECT_EQ(decoded.timings.comparison, result.timings.comparison);
  EXPECT_EQ(decoded.trials_run, result.trials_run);
  EXPECT_EQ(decoded.trials_discarded, result.trials_discarded);
  EXPECT_EQ(decoded.trials_unparseable, result.trials_unparseable);
  EXPECT_EQ(decoded.transient_properties, result.transient_properties);
  EXPECT_EQ(decoded.threads_used, result.threads_used);
  EXPECT_EQ(decoded.similarity_cache_hits, result.similarity_cache_hits);
  EXPECT_EQ(decoded.similarity_cache_lookups,
            result.similarity_cache_lookups);
  EXPECT_EQ(decoded.matcher_steps, result.matcher_steps);
  EXPECT_EQ(decoded.dummy_nodes, result.dummy_nodes);
  EXPECT_EQ(decoded.result, result.result);
  EXPECT_EQ(decoded.generalized_foreground, result.generalized_foreground);
  EXPECT_EQ(decoded.generalized_background, result.generalized_background);
  // Insertion order survived, not just set equality.
  EXPECT_EQ(decoded.generalized_foreground.nodes()[0].id, "zz");
  // And a re-encode is byte-stable — the fixpoint every merge relies on.
  EXPECT_EQ(encode_cell_record(17, decoded), encoded);

  EXPECT_THROW(decode_cell_record("not a record", nullptr),
               std::runtime_error);
  EXPECT_THROW(
      decode_cell_record(encoded.substr(0, encoded.size() / 2), nullptr),
      std::runtime_error);
}

TEST(ShardTimings, DeterministicAndDistinct) {
  StageTimings a = deterministic_timings(42, "spade", "open");
  StageTimings b = deterministic_timings(42, "spade", "open");
  EXPECT_EQ(a.recording, b.recording);
  EXPECT_EQ(a.transformation, b.transformation);
  EXPECT_EQ(a.generalization, b.generalization);
  EXPECT_EQ(a.comparison, b.comparison);
  EXPECT_NE(a.recording, deterministic_timings(42, "spade", "fork").recording);
  EXPECT_NE(a.recording, deterministic_timings(42, "opus", "open").recording);
  EXPECT_NE(a.recording, deterministic_timings(43, "spade", "open").recording);
  EXPECT_GE(a.recording, 0.0);
  EXPECT_LT(a.recording, 1.0);
}

TEST(ShardTrialSeeds, SliceApiIsPositionPure) {
  // The slice contract behind sharding: a trial's seed depends only on
  // (run seed, program, variant, index), so any subset of the matrix
  // recomputes identically in any process.
  EXPECT_EQ(trial_seed(42, "rename", true, 3),
            trial_seed(42, "rename", true, 3));
  EXPECT_NE(trial_seed(42, "rename", true, 3),
            trial_seed(42, "rename", true, 4));
  EXPECT_NE(trial_seed(42, "rename", true, 3),
            trial_seed(42, "rename", false, 3));
  EXPECT_NE(trial_seed(42, "rename", true, 3),
            trial_seed(42, "open", true, 3));
  EXPECT_NE(trial_seed(42, "rename", true, 3),
            trial_seed(7, "rename", true, 3));
}

/// One real mini-sweep (spade × {open, rename, fork}), with
/// deterministic timings so time.log bytes are comparable.
std::vector<BenchmarkResult> run_mini_sweep(const ShardPlan& plan) {
  CellRunOptions options;
  options.seed = plan.seed;
  options.deterministic_timings = plan.deterministic_timings;
  return run_batch_cells(plan.cells, options);
}

TEST(ShardMerge, AnyShardOrderReproducesSingleProcessBytes) {
  const std::vector<std::string> systems = {"spade"};
  ShardPlan plan = plan_batch(systems, kBenchmarks, 2, 42, "rg", true);

  TempDir tmp("merge");
  const std::string single_dir = tmp.str() + "/single";
  std::vector<BenchmarkResult> single = run_mini_sweep(plan);
  write_batch_outputs(single_dir, single, plan.result_type);

  // Workers: run each shard's slice independently.
  std::vector<std::string> shard_dirs;
  for (int k = 0; k < plan.shard_count; ++k) {
    ShardSpec spec = plan.shard(k);
    CellRunOptions options;
    options.seed = spec.seed;
    options.deterministic_timings = spec.deterministic_timings;
    shard_dirs.push_back(tmp.str() + "/sweep");
    write_shard_dir(tmp.str() + "/sweep", spec,
                    run_batch_cells(spec.cells, options));
    shard_dirs.back() = shard_dir_path(tmp.str() + "/sweep", k);
  }

  // Merge in both shard orders; every artifact must be byte-identical
  // to the single-process sweep either way.
  const std::vector<std::vector<std::string>> orders = {
      {shard_dirs[0], shard_dirs[1]}, {shard_dirs[1], shard_dirs[0]}};
  for (std::size_t o = 0; o < orders.size(); ++o) {
    std::string result_type;
    std::vector<BenchmarkResult> merged =
        read_shard_results(orders[o], &result_type);
    EXPECT_EQ(result_type, "rg");
    ASSERT_EQ(merged.size(), single.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].benchmark, single[i].benchmark);
      EXPECT_EQ(merged[i].result, single[i].result);
    }
    const std::string merged_dir =
        tmp.str() + "/merged" + std::to_string(o);
    write_batch_outputs(merged_dir, merged, result_type);
    for (const char* artifact :
         {"time.log", "validation.txt", "spade_open.datalog",
          "spade_rename.dot", "spade_fork.datalog"}) {
      EXPECT_EQ(slurp(fs::path(merged_dir) / artifact),
                slurp(fs::path(single_dir) / artifact))
          << artifact << " order " << o;
    }
  }

  // A missing shard is a hard error, not a silent gap.
  EXPECT_THROW(read_shard_results({shard_dirs[0]}), std::runtime_error);
}

TEST(ShardMerge, ConcurrentShardWorkersReproduceSingleProcessBytes) {
  // The multi-process flow in one process: for N in {1, 2, 4}, N
  // concurrent shard workers, each on a private 1-thread pool as a
  // worker process would be. Three CamFlow cells leave shard 3 of 4
  // empty; every merged file must still equal the single-process sweep.
  const std::vector<std::string> systems = {"camflow"};
  const std::vector<std::string> benchmarks = {"open", "rename", "fork"};
  TempDir tmp("concurrent");
  auto run_cells = [](const std::vector<BatchCell>& cells) {
    runtime::ThreadPool pool(1);
    CellRunOptions options;
    options.pool = &pool;
    options.deterministic_timings = true;
    return run_batch_cells(cells, options);
  };

  const fs::path single_dir = tmp.path / "single";
  ShardPlan single = plan_batch(systems, benchmarks, 1, 42, "rg", true);
  write_batch_outputs(single_dir.string(), run_cells(single.cells), "rg");

  for (int shards : {1, 2, 4}) {
    ShardPlan plan = plan_batch(systems, benchmarks, shards, 42, "rg", true);
    const std::string sweep_dir =
        tmp.str() + "/sweep" + std::to_string(shards);
    {
      runtime::ThreadPool workers(shards);
      workers.parallel_for(static_cast<std::size_t>(shards),
                           [&](std::size_t k) {
                             ShardSpec spec = plan.shard(static_cast<int>(k));
                             write_shard_dir(sweep_dir, spec,
                                             run_cells(spec.cells));
                           });
    }
    std::vector<std::string> shard_dirs;
    for (int k = 0; k < shards; ++k) {
      shard_dirs.push_back(shard_dir_path(sweep_dir, k));
    }
    std::string result_type;
    const fs::path merged_dir =
        tmp.path / ("merged" + std::to_string(shards));
    write_batch_outputs(merged_dir.string(),
                        read_shard_results(shard_dirs, &result_type),
                        result_type);
    std::size_t compared = 0;
    for (const auto& entry : fs::directory_iterator(single_dir)) {
      EXPECT_EQ(slurp(merged_dir / entry.path().filename()),
                slurp(entry.path()))
          << entry.path().filename() << " shards=" << shards;
      ++compared;
    }
    EXPECT_EQ(compared, 2u + 2 * benchmarks.size());  // + .dot, .datalog
  }
}

TEST(ShardMerge, RejectsShardsOfDifferentSweeps) {
  // Two sweeps with the same shape (seed, result type, shard count,
  // cell count) but different matrices: their shards must not merge
  // into a franken-sweep just because the index sets happen to tile.
  TempDir tmp("franken");
  for (const char* variant : {"a", "b"}) {
    ShardPlan plan = plan_batch(
        {"spade"},
        variant[0] == 'a' ? std::vector<std::string>{"open", "rename"}
                          : std::vector<std::string>{"open", "fork"},
        2, 42, "rb", true);
    for (int k = 0; k < 2; ++k) {
      ShardSpec spec = plan.shard(k);
      CellRunOptions options;
      options.seed = spec.seed;
      options.deterministic_timings = spec.deterministic_timings;
      write_shard_dir(tmp.str() + "/" + variant, spec,
                      run_batch_cells(spec.cells, options));
    }
  }
  // Same-sweep merge works; cross-sweep merge throws on the matrix
  // fingerprint even though ids/counts line up.
  EXPECT_EQ(read_shard_results({shard_dir_path(tmp.str() + "/a", 0),
                                shard_dir_path(tmp.str() + "/a", 1)})
                .size(),
            2u);
  EXPECT_THROW(read_shard_results({shard_dir_path(tmp.str() + "/a", 0),
                                   shard_dir_path(tmp.str() + "/b", 1)}),
               std::runtime_error);
}

TEST(ShardResume, CompletenessDetection) {
  const std::vector<std::string> systems = {"spade"};
  ShardPlan plan = plan_batch(systems, {"open"}, 1, 42, "rb", true);
  ShardSpec spec = plan.shard(0);

  TempDir tmp("resume");
  const std::string dir = shard_dir_path(tmp.str(), 0);
  // Nothing on disk yet: not complete.
  EXPECT_FALSE(shard_complete(dir, spec));

  std::vector<BenchmarkResult> results = run_mini_sweep(plan);
  write_shard_dir(tmp.str(), spec, results);
  EXPECT_TRUE(shard_complete(dir, spec));

  // A different sweep configuration must not reuse these artifacts:
  // every byte-affecting field of the spec is in the fingerprint.
  ShardSpec other = spec;
  other.seed = 43;
  EXPECT_FALSE(shard_complete(dir, other));
  ShardSpec more_shards = plan_batch(systems, {"open"}, 2, 42, "rb", true)
                              .shard(0);
  EXPECT_FALSE(shard_complete(dir, more_shards));
  ShardSpec other_type =
      plan_batch(systems, {"open"}, 1, 42, "rg", true).shard(0);
  EXPECT_FALSE(shard_complete(dir, other_type));
  ShardSpec measured_timings =
      plan_batch(systems, {"open"}, 1, 42, "rb", false).shard(0);
  EXPECT_FALSE(shard_complete(dir, measured_timings));
  ShardSpec other_matrix =
      plan_batch(systems, {"rename"}, 1, 42, "rb", true).shard(0);
  EXPECT_FALSE(shard_complete(dir, other_matrix));

  // A truncated manifest (interrupted worker) reads as incomplete.
  const fs::path manifest = fs::path(dir) / "shard.manifest";
  std::string text = slurp(manifest);
  std::ofstream(manifest, std::ios::binary | std::ios::trunc)
      << text.substr(0, text.size() - 10);
  EXPECT_FALSE(shard_complete(dir, spec));
}

TEST(ShardResume, PreviousManifestVersionIsRerunNotAccepted) {
  // A shard written by an older build (format v3, whose string fields
  // were Datalog-quoted) must not be silently accepted: resume re-runs it
  // and merge reports it as retryable damage (CLI exit 3).
  ShardPlan plan = plan_batch({"spade"}, {"open", "fork"}, 2, 42, "rb", true);
  TempDir tmp("v3");
  std::vector<std::string> shard_dirs;
  for (int k = 0; k < 2; ++k) {
    ShardSpec spec = plan.shard(k);
    CellRunOptions options;
    options.seed = spec.seed;
    options.deterministic_timings = spec.deterministic_timings;
    write_shard_dir(tmp.str(), spec, run_batch_cells(spec.cells, options));
    shard_dirs.push_back(shard_dir_path(tmp.str(), k));
  }
  ASSERT_EQ(read_shard_results(shard_dirs).size(), plan.cells.size());

  // Rewrite shard 1's manifest in the v3 layout: the same lines, with
  // the names on `cell` and `f` lines in double quotes.
  const fs::path manifest = fs::path(shard_dirs[1]) / "shard.manifest";
  std::istringstream v4(slurp(manifest));
  std::string line;
  ASSERT_TRUE(std::getline(v4, line));
  ASSERT_EQ(line, "provmark-shard v4");
  std::string text = "provmark-shard v3\n";
  while (std::getline(v4, line)) {
    const bool cell = line.rfind("cell ", 0) == 0;
    if (cell || line.rfind("f ", 0) == 0) {
      std::istringstream fields(line);
      std::string field;
      for (int i = 0; fields >> field; ++i) {
        text += i == 0 ? "" : " ";
        text += i >= (cell ? 2 : 3) ? "\"" + field + "\"" : field;
      }
      text += '\n';
    } else {
      text += line + "\n";
    }
  }
  ASSERT_NE(text.find("\ncell 1 \"spade\" \"fork\"\n"), std::string::npos);
  std::ofstream(manifest, std::ios::binary | std::ios::trunc) << text;

  EXPECT_TRUE(shard_complete(shard_dirs[0], plan.shard(0)));
  EXPECT_FALSE(shard_complete(shard_dirs[1], plan.shard(1)));
  try {
    read_shard_results(shard_dirs);
    FAIL() << "v3 manifest merged";
  } catch (const ShardRetryableError& e) {
    EXPECT_EQ(e.dir, shard_dirs[1]);
    EXPECT_NE(std::string(e.what()).find("not a shard manifest"),
              std::string::npos);
  }
}

TEST(ShardIntegrity, ManifestTruncationFuzzNeverParses) {
  // A crashed writer can leave a prefix of any length on disk. Every
  // one of them must be rejected with a clean runtime_error — never a
  // crash, never a successful strict parse (which would let a torn
  // manifest impersonate a complete shard).
  ShardPlan plan = plan_batch({"spade"}, {"open"}, 1, 42, "rb", true);
  ShardSpec spec = plan.shard(0);
  TempDir tmp("fuzz_manifest");
  write_shard_dir(tmp.str(), spec, run_mini_sweep(plan));
  const std::string text =
      slurp(fs::path(shard_dir_path(tmp.str(), 0)) / "shard.manifest");
  ASSERT_GT(text.size(), 0u);

  // The whole document parses strictly and round-trips the spec.
  ArtifactDigests digests;
  EXPECT_EQ(parse_shard_manifest(text, nullptr, &digests), spec);
  EXPECT_FALSE(digests.empty());

  for (std::size_t len = 0; len < text.size(); ++len) {
    EXPECT_THROW(parse_shard_manifest(text.substr(0, len)),
                 std::runtime_error)
        << "prefix of " << len << " bytes parsed as complete";
    // Lenient mode (resume) must classify the same prefix as
    // incomplete or malformed — never complete.
    try {
      bool complete = true;
      parse_shard_manifest(text.substr(0, len), &complete);
      EXPECT_FALSE(complete) << "prefix of " << len << " bytes";
    } catch (const std::runtime_error&) {
      // Structurally unreadable: equally safe.
    }
  }
}

TEST(ShardIntegrity, CellRecordTruncationFuzzNeverParses) {
  BenchmarkResult result;
  result.system = "spade";
  result.benchmark = "open";
  result.trials_run = 2;
  result.result.add_node("p0", "Process", {{"name", "sh"}});
  result.result.add_node("a0", "Artifact");
  result.result.add_edge("e0", "p0", "a0", "Used");
  const std::string encoded = encode_cell_record(3, result);

  std::size_t index = 0;
  EXPECT_EQ(decode_cell_record(encoded, &index).result, result.result);
  EXPECT_EQ(index, 3u);

  for (std::size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_THROW(decode_cell_record(encoded.substr(0, len), nullptr),
                 std::runtime_error)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(ShardIntegrity, TornArtifactFailsResumeAndMergesRetryable) {
  ShardPlan plan = plan_batch({"spade"}, kBenchmarks, 2, 42, "rb", true);
  TempDir tmp("torn");
  std::vector<std::string> shard_dirs;
  for (int k = 0; k < 2; ++k) {
    ShardSpec spec = plan.shard(k);
    CellRunOptions options;
    options.seed = spec.seed;
    options.deterministic_timings = spec.deterministic_timings;
    write_shard_dir(tmp.str(), spec, run_batch_cells(spec.cells, options));
    shard_dirs.push_back(shard_dir_path(tmp.str(), k));
  }
  ASSERT_TRUE(shard_complete(shard_dirs[1], plan.shard(1)));

  // Truncate one artifact of shard 1 (a torn write: the manifest still
  // records the intended digest).
  const fs::path victim = fs::path(shard_dirs[1]) / "validation.txt";
  const std::string original = slurp(victim);
  std::ofstream(victim, std::ios::binary | std::ios::trunc)
      << original.substr(0, original.size() / 2);

  EXPECT_FALSE(shard_complete(shard_dirs[1], plan.shard(1)));
  try {
    read_shard_results(shard_dirs);
    FAIL() << "torn artifact merged";
  } catch (const ShardRetryableError& e) {
    EXPECT_EQ(e.shard_id, 1);
    EXPECT_EQ(e.dir, shard_dirs[1]);
    EXPECT_NE(std::string(e.what()).find("torn"), std::string::npos);
  }

  // Same-size tampering (bit flip, not truncation) is caught too.
  std::string tampered = original;
  tampered[tampered.size() / 2] ^= 0x20;
  std::ofstream(victim, std::ios::binary | std::ios::trunc) << tampered;
  EXPECT_FALSE(shard_complete(shard_dirs[1], plan.shard(1)));
  EXPECT_THROW(read_shard_results(shard_dirs), ShardRetryableError);

  // Restoring the intended bytes repairs both checks.
  std::ofstream(victim, std::ios::binary | std::ios::trunc) << original;
  EXPECT_TRUE(shard_complete(shard_dirs[1], plan.shard(1)));
  EXPECT_EQ(read_shard_results(shard_dirs).size(), plan.cells.size());

  // A missing shard is retryable and names the shard to re-run; a
  // duplicate shard is structural and is not.
  try {
    read_shard_results({shard_dirs[0]});
    FAIL() << "missing shard merged";
  } catch (const ShardRetryableError& e) {
    EXPECT_EQ(e.shard_id, 1);
    EXPECT_TRUE(e.dir.empty());
  }
  EXPECT_THROW(
      {
        try {
          read_shard_results({shard_dirs[0], shard_dirs[0]});
        } catch (const ShardRetryableError&) {
          ADD_FAILURE() << "duplicate shard classified retryable";
          throw;
        }
      },
      std::runtime_error);
}

/// `text` with the first value of its line `<keyword> <value> ...`
/// replaced by `value`.
std::string with_first_value(const std::string& text,
                             const std::string& keyword,
                             const std::string& value) {
  const std::size_t line = text.find("\n" + keyword + " ");
  EXPECT_NE(line, std::string::npos) << keyword;
  const std::size_t at = line + 2 + keyword.size();
  const std::size_t stop = text.find_first_of(" \n", at);
  return text.substr(0, at) + value + text.substr(stop);
}

TEST(ShardIntegrity, LaxNumbersInRecordsAndManifestsAreRefused) {
  // A count or id is digits only and a timing a finite number: a record
  // or manifest that spells anything else is damage, never a plausible
  // value (std::atoi read "6x" as 6 and "-7" as -7, std::strtod read
  // "0.25abc" as 0.25 and "1e999" as inf).
  ShardPlan plan = plan_batch({"spade"}, {"open", "fork"}, 2, 42, "rb", true);
  TempDir tmp("lax");
  std::vector<std::string> shard_dirs;
  for (int k = 0; k < 2; ++k) {
    ShardSpec spec = plan.shard(k);
    CellRunOptions options;
    options.seed = spec.seed;
    options.deterministic_timings = spec.deterministic_timings;
    write_shard_dir(tmp.str(), spec, run_batch_cells(spec.cells, options));
    shard_dirs.push_back(shard_dir_path(tmp.str(), k));
  }
  ASSERT_EQ(read_shard_results(shard_dirs).size(), plan.cells.size());
  const fs::path dir = shard_dirs[1];
  const fs::path record_path = dir / "cell-1.result";
  const fs::path manifest_path = dir / "shard.manifest";
  const std::string record = slurp(record_path);
  const std::string manifest = slurp(manifest_path);
  auto put = [](const fs::path& path, const std::string& text) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  };
  auto merge_error = [&]() -> std::string {
    try {
      read_shard_results(shard_dirs);
    } catch (const ShardRetryableError& e) {
      EXPECT_EQ(e.dir, dir.string());
      return e.what();
    }
    return "merged";
  };

  const std::pair<const char*, const char*> record_rows[] = {
      {"counters", "6x"},      {"counters", "-7"},  {"timings", "0.25abc"},
      {"timings", "nan"},      {"timings", "1e999"},
  };
  for (const auto& [keyword, value] : record_rows) {
    const std::string bad = with_first_value(record, keyword, value);
    EXPECT_THROW(decode_cell_record(bad, nullptr), std::runtime_error)
        << keyword << " " << value;
    // Vouch for the edited bytes in the manifest, so the digest check
    // passes and only the record reader can refuse them.
    const std::size_t entry = manifest.find(" cell-1.result\n");
    ASSERT_NE(entry, std::string::npos);
    const std::size_t line = manifest.rfind("\nf ", entry) + 1;
    put(record_path, bad);
    put(manifest_path,
        manifest.substr(0, line) +
            util::format("f %llu %zu",
                         static_cast<unsigned long long>(
                             util::stable_hash(bad)),
                         bad.size()) +
            manifest.substr(entry));
    EXPECT_NE(merge_error().find("cell-1.result: shard record: "),
              std::string::npos)
        << keyword << " " << value;
  }
  put(record_path, record);

  for (const char* value : {"1x", "-1"}) {
    const std::string bad = with_first_value(manifest, "shard", value);
    EXPECT_THROW(parse_shard_manifest(bad), std::runtime_error) << value;
    put(manifest_path, bad);
    EXPECT_NE(merge_error().find("shard manifest: shard id '"),
              std::string::npos)
        << value;
  }
  put(manifest_path, manifest);
  EXPECT_EQ(read_shard_results(shard_dirs).size(), plan.cells.size());
}

TEST(ShardIntegrity, DuplicatePublishIsBenign) {
  // Straggler re-dispatch can complete a shard twice; the second
  // publish must leave the first winner's artifacts untouched.
  ShardPlan plan = plan_batch({"spade"}, {"open"}, 1, 42, "rb", true);
  ShardSpec spec = plan.shard(0);
  std::vector<BenchmarkResult> results = run_mini_sweep(plan);

  TempDir tmp("dup");
  const std::string first = write_shard_dir(tmp.str(), spec, results);
  const std::string manifest =
      slurp(fs::path(first) / "shard.manifest");
  const std::string second = write_shard_dir(tmp.str(), spec, results);
  EXPECT_EQ(first, second);
  EXPECT_EQ(slurp(fs::path(first) / "shard.manifest"), manifest);
  EXPECT_TRUE(shard_complete(first, spec));
  // No staging directory leaks behind either attempt.
  for (const auto& entry : fs::directory_iterator(tmp.path)) {
    EXPECT_EQ(entry.path().filename().string().find(".staging."),
              std::string::npos)
        << entry.path();
  }
}

TEST(ShardStaging, RemoveOrphanedStagingSweepsDeadPidsOnly) {
  TempDir tmp("orphans");
  // A dead pid's staging dir and tmp file: orphaned, must go. Pid 1 is
  // alive on any Linux box (init) — its leftovers must survive; so must
  // names without a pid suffix and published shard dirs.
  const pid_t dead = [] {
    pid_t pid = ::fork();
    if (pid == 0) ::_exit(0);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return pid;
  }();
  const fs::path orphan_dir =
      tmp.path / ("shard-3.staging." + std::to_string(dead));
  const fs::path orphan_tmp =
      tmp.path / ("time.log.tmp." + std::to_string(dead));
  const fs::path live_dir = tmp.path / "shard-4.staging.1";
  const fs::path published = tmp.path / "shard-0";
  const fs::path odd_name = tmp.path / "shard-5.staging.notapid";
  fs::create_directories(orphan_dir);
  fs::create_directories(live_dir);
  fs::create_directories(published);
  fs::create_directories(odd_name);
  { std::ofstream out(orphan_dir / "cell-0.result"); out << "partial"; }
  { std::ofstream out(orphan_tmp); out << "torn"; }

  EXPECT_EQ(remove_orphaned_staging(tmp.str()), 2u);
  EXPECT_FALSE(fs::exists(orphan_dir));
  EXPECT_FALSE(fs::exists(orphan_tmp));
  EXPECT_TRUE(fs::exists(live_dir));
  EXPECT_TRUE(fs::exists(published));
  EXPECT_TRUE(fs::exists(odd_name));

  // Idempotent, and harmless on a missing directory.
  EXPECT_EQ(remove_orphaned_staging(tmp.str()), 0u);
  EXPECT_EQ(remove_orphaned_staging(tmp.str() + "/nope"), 0u);
}

}  // namespace
}  // namespace provmark::core
