// The heap allocations of one trial and of one matcher call, counted by
// a replaced operator new.
//
// A trial's kernel tables, events and recorder scratch draw from the
// trial's region, so executing a program and recording its trace
// allocate from the heap only for the region (its object and its further
// chunks), the returned document and a few bounded pieces of bookkeeping.
// Reading the document draws from a second region, the read trial's,
// and so does interning it; a matcher call keeps its scratch in a
// region on its own stack. This binary, and no other, replaces the
// global operator new with one that counts the calls a thread makes
// while its counting flag is set, and asserts:
//   * one trial's execute_program + record allocates at most 16 times;
//   * a trial of gen5x64 allocates no more often than one of gen5x8,
//     beyond the region's extra chunks — allocation does not grow with
//     the number of events;
//   * reading one trial into its region and interning it there (its
//     structure, digest and properties) allocates at most 4 times, and
//     no more often on gen5x64 than on gen5x8 beyond the region's extra
//     chunks. OPUS rows leave out the modeled Neo4j store's index maps,
//     which stay heap maps as calibrated: the allocations of opening a
//     store on the already-read view are counted on their own and
//     subtracted;
//   * one similar(), one Symmetric best_isomorphism() and one
//     best_subgraph_embedding() call allocate at most 4 times each,
//     whatever the node count (the Matching's two vectors, plus room for
//     one further chunk of the call's region); the graphs include
//     parallel-edge groups, so the group assignment's DFS is counted.
// The exact counts depend on the standard library; the bounds do not
// pin them, so the CI's libstdc++ passes as long as nothing allocates
// per event, per element or per search step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_suite/executor.h"
#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "core/transform.h"
#include "formats/neo4j.h"
#include "graph/compact.h"
#include "graph/graph_view.h"
#include "matcher/interned.h"
#include "matcher/matcher.h"
#include "systems/recorder.h"
#include "util/region.h"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_count = 0;
thread_local std::size_t t_bytes = 0;
/// Allocations of at least kChunkBytes: a util::Region object (its
/// first 8 KiB chunk is inline) or one of its further chunks (each at
/// least 12 KiB). Nothing else on the read path allocates that much at
/// once, so these are the region's chunks.
constexpr std::size_t kChunkBytes = 8192;
thread_local std::size_t t_chunks = 0;

void* counted(std::size_t size, std::size_t align) {
  if (t_counting) {
    ++t_count;
    t_bytes += size;
    if (size >= kChunkBytes) ++t_chunks;
  }
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted(size, 0); }
void* operator new[](std::size_t size) { return counted(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace provmark {
namespace {

struct Allocations {
  std::size_t count = 0;
  std::size_t bytes = 0;
  std::size_t chunks = 0;  ///< of `count`, regions and region chunks

  /// Allocations that are not region chunks.
  std::size_t small() const { return count - chunks; }
};

/// The heap allocations `fn` makes on this thread.
template <typename Fn>
Allocations counted_call(Fn&& fn) {
  t_count = 0;
  t_bytes = 0;
  t_chunks = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return {t_count, t_bytes, t_chunks};
}

/// The heap allocations of execute_program + record for one trial of
/// `program` on `system` (foreground, round-0 trial 0 of seed 45). The
/// recorder and its audit rules are made outside the count, and the same
/// trial runs once uncounted first: the function-local statics a first
/// trial initializes (the audit rule set, OPUS's wrapped functions) are
/// heap allocations of the process, not of a trial.
Allocations trial_allocations(const bench_suite::BenchmarkProgram& program,
                              const std::string& system) {
  const std::unique_ptr<systems::Recorder> recorder =
      systems::make_recorder(system);
  const std::set<std::string> rules = recorder->extra_audit_rules();
  const std::uint64_t seed = core::trial_seed(45, program.name, true, 0);
  auto trial = [&] {
    bench_suite::ExecutionResult run = bench_suite::execute_program(
        program, true, seed, rules, recorder->layer());
    return recorder->record(run.trace, systems::TrialContext{seed});
  };
  const std::string warm = trial();
  std::string document;
  const Allocations a = counted_call([&] { document = trial(); });
  EXPECT_EQ(document, warm) << program.name << " on " << system;
  return a;
}

const char* const kSystems[] = {"spade",   "opus",  "camflow",
                                "audit",   "ebpf",  "spade-camflow"};

/// Round-0 trial `index` of one variant of `program` on `recorder`, as
/// core::record_trials records it at pipeline seed 45.
std::string trial_document(const bench_suite::BenchmarkProgram& program,
                           systems::Recorder& recorder, bool foreground,
                           int index) {
  const std::uint64_t seed =
      core::trial_seed(45, program.name, foreground, index);
  bench_suite::ExecutionResult run = bench_suite::execute_program(
      program, foreground, seed, recorder.extra_audit_rules(),
      recorder.layer());
  return recorder.record(run.trace, systems::TrialContext{seed ^ 0xC0FFEEULL});
}

/// Provbench's cell option: one Neo4j startup round.
core::TransformOptions transform_options() {
  core::TransformOptions options;
  options.neo4j_startup_rounds = 1;
  return options;
}

bool readable(const std::string& document) {
  try {
    util::Region region;
    core::read_native(document, transform_options(), region.resource());
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// One trial read and interned as core::read_trials reads it: a new
/// region, the document's view in it, the interned structure and its
/// digest in it, then the properties a generalization would intern.
void read_and_intern(const std::string& document,
                     graph::SymbolTable& symbols) {
  auto region = std::make_unique<util::Region>();
  graph::GraphView view =
      core::read_native(document, transform_options(), region->resource());
  matcher::InternedGraph interned(view, symbols);
  interned.structural_digest(region->resource());
  interned.g.intern_properties(view, symbols);
}

/// The heap allocations of read_and_intern for `document`, after one
/// uncounted pass: the run-wide symbol table grows once per new string,
/// not once per trial. For an OPUS export the modeled store's index maps
/// are left out (see the header).
Allocations read_allocations(const std::string& document,
                             const std::string& system) {
  graph::SymbolTable symbols;
  read_and_intern(document, symbols);
  Allocations a =
      counted_call([&] { read_and_intern(document, symbols); });
  if (system == "opus") {
    util::Region region;
    graph::GraphView view =
        formats::neo4j_json_view(document, nullptr, region.resource());
    formats::Neo4jStore store({.startup_rounds = 1});
    const Allocations index =
        counted_call([&] { store.open(std::move(view)); });
    a.count -= std::min(a.count - a.chunks, index.count - index.chunks);
    a.bytes -= std::min(a.bytes, index.bytes);
  }
  return a;
}

/// Chunk steps the region takes to grow from `small` to `large` bytes:
/// each further chunk is 1.5 times the one before.
std::size_t chunk_steps(const Allocations& small, const Allocations& large) {
  const double growth =
      static_cast<double>(large.bytes) /
      static_cast<double>(std::max<std::size_t>(1, small.bytes));
  return static_cast<std::size_t>(
      std::ceil(std::log(std::max(1.0, growth)) / std::log(1.5)));
}

TEST(TrialAllocations, OneTrialAllocatesAtMostSixteenTimes) {
  std::size_t worst = 0;
  for (const bench_suite::BenchmarkProgram& program :
       bench_suite::table_benchmarks()) {
    for (const char* system : kSystems) {
      const Allocations a = trial_allocations(program, system);
      EXPECT_LE(a.count, 16u) << program.name << " on " << system;
      worst = std::max(worst, a.count);
    }
  }
  for (const char* name : {"gen5x8", "gen5x64"}) {
    for (const char* system : kSystems) {
      const Allocations a =
          trial_allocations(bench_suite::benchmark_by_name(name), system);
      EXPECT_LE(a.count, 16u) << name << " on " << system;
      worst = std::max(worst, a.count);
    }
  }
  std::printf("most allocations in one trial: %zu\n", worst);
}

TEST(TrialAllocations, AllocationDoesNotGrowWithTheEvents) {
  const bench_suite::BenchmarkProgram small =
      bench_suite::benchmark_by_name("gen5x8");
  const bench_suite::BenchmarkProgram large =
      bench_suite::benchmark_by_name("gen5x64");
  for (const char* system : {"camflow", "audit", "opus"}) {
    const Allocations a = trial_allocations(small, system);
    const Allocations b = trial_allocations(large, system);
    // The region grows by a factor of bytes(b) / bytes(a) in this many
    // more chunks at most.
    const std::size_t steps = chunk_steps(a, b);
    std::printf("%s: gen5x8 %zu allocations (%zu bytes), gen5x64 %zu (%zu "
                "bytes), %zu chunk steps\n",
                system, a.count, a.bytes, b.count, b.bytes, steps);
    EXPECT_LE(b.count, a.count + steps) << system;
  }
}

TEST(TrialAllocations, ReadingAndInterningATrialAllocatesAtMostFourTimes) {
  std::size_t worst = 0, rows = 0;
  for (const bench_suite::BenchmarkProgram& program :
       bench_suite::table_benchmarks()) {
    for (const char* system : kSystems) {
      const std::unique_ptr<systems::Recorder> recorder =
          systems::make_recorder(system);
      const std::string document =
          trial_document(program, *recorder, true, 0);
      if (!readable(document)) continue;  // a garbled trial is not read
      const Allocations a = read_allocations(document, system);
      EXPECT_LE(a.count, 4u) << program.name << " on " << system;
      EXPECT_LE(a.small(), 2u) << program.name << " on " << system;
      worst = std::max(worst, a.count);
      ++rows;
    }
  }
  // Nearly every trial reads; a garbled one is the exception.
  EXPECT_GE(rows, bench_suite::table_benchmarks().size() *
                      std::size(kSystems) * 9 / 10);
  std::printf("most allocations reading one trial: %zu (%zu rows)\n", worst,
              rows);
}

TEST(TrialAllocations, ReadingAllocatesWithTheGraphOnlyRegionChunks) {
  const bench_suite::BenchmarkProgram small =
      bench_suite::benchmark_by_name("gen5x8");
  const bench_suite::BenchmarkProgram large =
      bench_suite::benchmark_by_name("gen5x64");
  for (const char* system : kSystems) {
    const std::unique_ptr<systems::Recorder> recorder =
        systems::make_recorder(system);
    const std::string small_doc = trial_document(small, *recorder, true, 0);
    const std::string large_doc = trial_document(large, *recorder, true, 0);
    ASSERT_TRUE(readable(small_doc) && readable(large_doc)) << system;
    const Allocations a = read_allocations(small_doc, system);
    const Allocations b = read_allocations(large_doc, system);
    std::printf("%s: read gen5x8 %zu allocations (%zu chunks, %zu bytes), "
                "gen5x64 %zu (%zu chunks, %zu bytes)\n",
                system, a.count, a.chunks, a.bytes, b.count, b.chunks,
                b.bytes);
    EXPECT_LE(a.small(), 2u) << system;
    EXPECT_LE(b.small(), a.small()) << system;
  }
}

TEST(TrialAllocations, OneMatcherCallAllocatesAtMostFourTimes) {
  std::vector<bench_suite::BenchmarkProgram> programs =
      bench_suite::table_benchmarks();
  programs.push_back(bench_suite::benchmark_by_name("gen5x8"));
  programs.push_back(bench_suite::benchmark_by_name("gen5x64"));
  matcher::SearchOptions symmetric;
  symmetric.cost_model = matcher::CostModel::Symmetric;
  std::size_t worst = 0, similar_pairs = 0, parallel_groups = 0;
  std::uint32_t most_nodes = 0;
  for (const bench_suite::BenchmarkProgram& program : programs) {
    for (const char* system : kSystems) {
      const std::unique_ptr<systems::Recorder> recorder =
          systems::make_recorder(system);
      // Two foreground trials (similar, with differing transient
      // properties, as a generalization poses them) and the background
      // trial the comparison embeds into the first.
      const std::string documents[3] = {
          trial_document(program, *recorder, true, 0),
          trial_document(program, *recorder, true, 1),
          trial_document(program, *recorder, false, 0)};
      if (!std::all_of(std::begin(documents), std::end(documents),
                       readable)) {
        continue;
      }
      graph::SymbolTable symbols;
      std::vector<graph::GraphView> views;
      std::vector<std::optional<matcher::InternedGraph>> graphs(3);
      for (int k = 0; k < 3; ++k) {
        views.push_back(core::read_native(documents[k], transform_options()));
      }
      for (int k = 0; k < 3; ++k) {
        graphs[k].emplace(views[k], symbols);
        graphs[k]->g.intern_properties(views[k], symbols);
        for (const matcher::EdgeGroup& group : graphs[k]->groups) {
          parallel_groups += group.count > 1 ? 1 : 0;
        }
      }
      const matcher::InternedGraph& a = *graphs[0];
      const matcher::InternedGraph& b = *graphs[1];
      const matcher::InternedGraph& background = *graphs[2];
      bool similar = false;
      const Allocations calls[3] = {
          counted_call([&] { similar = matcher::similar(a, b); }),
          counted_call([&] { matcher::best_isomorphism(a, b, symmetric); }),
          counted_call(
              [&] { matcher::best_subgraph_embedding(background, a); })};
      const char* const names[3] = {"similar", "best_isomorphism",
                                    "best_subgraph_embedding"};
      for (int k = 0; k < 3; ++k) {
        EXPECT_LE(calls[k].count, 4u)
            << names[k] << ": " << program.name << " on " << system << " ("
            << a.g.node_count() << " nodes)";
        worst = std::max(worst, calls[k].count);
      }
      similar_pairs += similar ? 1 : 0;
      most_nodes = std::max(most_nodes, a.g.node_count());
    }
  }
  // The searches ran in full: most pairs are similar, some graphs reach
  // past a hundred nodes, and parallel-edge groups were assigned.
  EXPECT_GE(similar_pairs, programs.size() * std::size(kSystems) / 2);
  EXPECT_GE(most_nodes, 100u);
  EXPECT_GT(parallel_groups, 0u);
  std::printf("most allocations in one matcher call: %zu (%zu similar "
              "pairs, up to %u nodes, %zu parallel-edge groups)\n",
              worst, similar_pairs, most_nodes, parallel_groups);
}

}  // namespace
}  // namespace provmark
