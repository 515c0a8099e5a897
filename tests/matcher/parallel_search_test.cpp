// The deterministic parallel branch-and-bound must be observationally
// interchangeable with the serial search: identical feasibility, cost,
// *and node/edge mapping* at any thread count (the merge picks the
// first minimum-cost subtree in DFS order, and the allow-equal shared
// bound can never prune a subtree's first optimum — see docs/matcher.md
// "Search strategy"). Also covers the shared step budget's cooperative
// cancellation, the exactly-once Stats merge, the SimilarityMemo's
// duplicate-entry guard under concurrent posers, and the pipeline-level
// SearchConfig plumbing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "formats/dot.h"
#include "graph/algorithms.h"
#include "matcher/interned.h"
#include "matcher/matcher.h"
#include "matcher/memo.h"
#include "runtime/thread_pool.h"
#include "test_graphs.h"
#include "util/rng.h"

namespace provmark::matcher {
namespace {

using graph::PropertyGraph;
using test_graphs::provenance_graph;
using test_graphs::random_graph;
using test_graphs::transient_copy;

/// A process reading `leaves` artifacts that share label and path and
/// differ only in `time` and `inode`, each drawn from {0, 1, 2}. WL
/// colours cannot tell the leaves apart and the nine value pairs leave
/// many near-optimal assignments, so proving the optimal isomorphism
/// between two such stars stays expensive for the production search.
PropertyGraph tied_star(int leaves, const std::string& prefix,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  PropertyGraph g;
  g.add_node(prefix, "Process", {{"name", "reader"}});
  for (int a = 0; a < leaves; ++a) {
    std::string aid = prefix + "a" + std::to_string(a);
    g.add_node(aid, "Artifact",
               {{"path", "/tmp/shared"},
                {"time", std::to_string(rng.next_below(3))},
                {"inode", std::to_string(rng.next_below(3))}});
    g.add_edge(aid + "e", prefix, aid, "Used", {{"operation", "read"}});
  }
  return g;
}

SearchOptions symmetric() {
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  return options;
}

/// The budget tests' hard instance: two 12-leaf tied stars.
const PropertyGraph& hard_pattern() {
  static const PropertyGraph g = tied_star(12, "b", 1);
  return g;
}
const PropertyGraph& hard_target() {
  static const PropertyGraph g = tied_star(12, "f", 101);
  return g;
}

/// Unbudgeted serial steps of the hard instance (526,374 when this test
/// was written). Budget tests are only meaningful while the instance
/// stays far above their budgets; a search change that makes it easy
/// fails their ASSERT_GT instead of passing vacuously.
std::size_t hard_instance_steps() {
  static const std::size_t steps = [] {
    Stats stats;
    EXPECT_TRUE(best_isomorphism(hard_pattern(), hard_target(), symmetric(),
                                 &stats)
                    .has_value());
    return stats.steps;
  }();
  return steps;
}

void expect_same_outcome(const std::optional<Matching>& serial,
                         const Stats& serial_stats,
                         const std::optional<Matching>& parallel,
                         const Stats& parallel_stats,
                         const std::string& context) {
  ASSERT_EQ(serial.has_value(), parallel.has_value()) << context;
  EXPECT_EQ(serial_stats.budget_exhausted, parallel_stats.budget_exhausted)
      << context;
  if (serial.has_value()) {
    EXPECT_EQ(serial->cost, parallel->cost) << context;
    EXPECT_EQ(serial->node_index, parallel->node_index) << context;
    EXPECT_EQ(serial->edge_index, parallel->edge_index) << context;
  }
}

class ParallelIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelIdentityTest, MatchesSerialAtEveryThreadCount) {
  const int threads = GetParam();
  runtime::ThreadPool pool(threads);
  for (int seed = 0; seed < 12; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
    PropertyGraph g1 = random_graph(3 + seed % 5, 2 + seed % 6, rng);
    PropertyGraph g2 = transient_copy(g1, seed + 100);
    SearchOptions serial;
    serial.cost_model = CostModel::Symmetric;
    SearchOptions par = serial;
    par.threads = threads;
    par.pool = &pool;

    Stats serial_stats, parallel_stats;
    auto s = best_isomorphism(g1, g2, serial, &serial_stats);
    auto p = best_isomorphism(g1, g2, par, &parallel_stats);
    expect_same_outcome(s, serial_stats, p, parallel_stats,
                        "iso seed " + std::to_string(seed) + " threads " +
                            std::to_string(threads));

    PropertyGraph bg = random_graph(2 + seed % 3, seed % 3, rng);
    SearchOptions embed_serial = serial;
    embed_serial.cost_model = CostModel::OneSided;
    SearchOptions embed_par = par;
    embed_par.cost_model = CostModel::OneSided;
    Stats es, ep;
    auto se = best_subgraph_embedding(bg, g1, embed_serial, &es);
    auto pe = best_subgraph_embedding(bg, g1, embed_par, &ep);
    expect_same_outcome(se, es, pe, ep,
                        "embed seed " + std::to_string(seed) + " threads " +
                            std::to_string(threads));
  }
}

TEST_P(ParallelIdentityTest, ProvenanceSpineIdenticalMapping) {
  const int threads = GetParam();
  runtime::ThreadPool pool(threads);
  for (int processes : {4, 8}) {
    const std::string context = " p=" + std::to_string(processes) +
                                " threads " + std::to_string(threads);
    SearchOptions serial = symmetric();
    SearchOptions par = serial;
    par.threads = threads;
    par.pool = &pool;

    // Listing 3's shape: two trials of one recording.
    PropertyGraph g1 = provenance_graph(processes, 4, 1);
    PropertyGraph g2 = transient_copy(g1, 2);
    Stats ss, ps;
    auto s = best_isomorphism(g1, g2, serial, &ss);
    auto p = best_isomorphism(g1, g2, par, &ps);
    expect_same_outcome(s, ss, p, ps, "spine iso" + context);
    ASSERT_TRUE(s.has_value()) << context;
    EXPECT_FALSE(ss.budget_exhausted) << context;
    // Steps aggregate across workers: merged exactly once, so the total
    // is at least the serial prefix enumeration and every solution is
    // counted once.
    EXPECT_GT(ps.steps, 0u) << context;
    EXPECT_GE(ps.solutions_found, 1u) << context;

    // Listing 4's shape: a half-length spine into the full one.
    PropertyGraph fg = provenance_graph(processes, 4, 3);
    PropertyGraph bg = provenance_graph(processes / 2, 4, 3);
    serial.cost_model = par.cost_model = CostModel::OneSided;
    Stats es, ep;
    auto se = best_subgraph_embedding(bg, fg, serial, &es);
    auto pe = best_subgraph_embedding(bg, fg, par, &ep);
    expect_same_outcome(se, es, pe, ep, "spine embed" + context);
    EXPECT_TRUE(se.has_value()) << context;
  }
}

TEST_P(ParallelIdentityTest, DisconnectedFragmentsIdenticalMapping) {
  // Structurally identical fragments that only property values tell
  // apart: the cross-fragment symmetry multiplies the search tree.
  const int threads = GetParam();
  runtime::ThreadPool pool(threads);
  for (int fragments : {1, 2}) {
    PropertyGraph g1 = test_graphs::fragment_graph(fragments, 5);
    PropertyGraph g2 = transient_copy(g1, 6);
    SearchOptions par = symmetric();
    par.threads = threads;
    par.pool = &pool;
    Stats ss, ps;
    auto s = best_isomorphism(g1, g2, symmetric(), &ss);
    auto p = best_isomorphism(g1, g2, par, &ps);
    const std::string context = "fragments " + std::to_string(fragments) +
                                " threads " + std::to_string(threads);
    expect_same_outcome(s, ss, p, ps, context);
    EXPECT_TRUE(s.has_value()) << context;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelIdentityTest,
                         ::testing::Values(1, 4, 8));

TEST(ParallelBudget, ExhaustionReportedAtAnyThreadCount) {
  // A budget far below the instance's search needs: serial and parallel
  // must both report exhaustion.
  ASSERT_GT(hard_instance_steps(), 100'000u);
  runtime::ThreadPool pool(4);
  for (int threads : {1, 4}) {
    SearchOptions options = symmetric();
    options.step_budget = 50;
    options.threads = threads;
    options.pool = &pool;
    Stats stats;
    best_isomorphism(hard_pattern(), hard_target(), options, &stats);
    EXPECT_TRUE(stats.budget_exhausted) << "threads " << threads;
  }
}

TEST(ParallelBudget, CooperativeCancellationIsPrompt) {
  SearchOptions options = symmetric();
  options.step_budget = 20'000;
  options.threads = 8;
  // Budget enforcement is batched (one flush per 512 steps per worker):
  // siblings cancel within one batch each instead of running to a
  // private budget. 9 participants x 512 + the tripping worker's batch
  // bounds the overshoot; 16x slack keeps the test robust while still
  // failing if cancellation regresses to per-worker budgets (which
  // would allow ~8x the budget).
  const std::size_t overshoot_bound = options.step_budget + 9 * 512 * 16;
  // The instance must need far more than that, or the budget would
  // never trip and the bound below would hold vacuously.
  ASSERT_GT(hard_instance_steps(), 4 * overshoot_bound);
  runtime::ThreadPool pool(8);
  options.pool = &pool;
  Stats stats;
  best_isomorphism(hard_pattern(), hard_target(), options, &stats);
  ASSERT_TRUE(stats.budget_exhausted);
  EXPECT_LT(stats.steps, overshoot_bound);
}

TEST(ParallelBudget, SubBatchTasksStillEnforceTheBudget) {
  // Regression: tasks are small by design (~16 per thread), so most
  // finish without ever filling a 512-step flush batch. The end-of-task
  // flush must still publish their steps and check the budget —
  // otherwise a fleet of sub-batch tasks overruns step_budget with
  // budget_exhausted left false.
  //
  // Two 10-leaf tied stars at 8 threads: the serial prefix enumeration
  // assigns the centre and three leaves (1 + 10 + 10*9 + 10*9*8 steps)
  // and leaves 720 tasks of a few steps each. A budget of half the
  // unbudgeted total lies past the enumeration, so it can only trip
  // through the tasks' flushes.
  const std::size_t prefix_steps = 1 + 10 + 10 * 9 + 10 * 9 * 8;
  PropertyGraph a = tied_star(10, "b", 3);
  PropertyGraph b = tied_star(10, "f", 103);
  runtime::ThreadPool pool(8);
  SearchOptions par = symmetric();
  par.threads = 8;
  par.pool = &pool;
  Stats full;
  ASSERT_TRUE(best_isomorphism(a, b, par, &full).has_value());
  ASSERT_FALSE(full.budget_exhausted);
  ASSERT_GT(full.steps, 4 * prefix_steps);

  par.step_budget = full.steps / 2;
  Stats stats;
  best_isomorphism(a, b, par, &stats);
  EXPECT_TRUE(stats.budget_exhausted);
}

TEST(ParallelBudget, SerialSemanticsUnchangedAtOneThread) {
  // threads=1 must take the exact serial path: same steps trace as a
  // default-options run.
  PropertyGraph g1 = provenance_graph(6, 3, 7);
  PropertyGraph g2 = transient_copy(g1, 8);
  SearchOptions serial;
  serial.cost_model = CostModel::Symmetric;
  SearchOptions one = serial;
  one.threads = 1;
  Stats ss, os;
  auto a = best_isomorphism(g1, g2, serial, &ss);
  auto b = best_isomorphism(g1, g2, one, &os);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(ss.steps, os.steps);
  EXPECT_EQ(a->node_index, b->node_index);
}

TEST(MemoConcurrency, EachPairStoredExactlyOnce) {
  // Hammer one memo with the same pairs from many threads; the
  // duplicate-insert guard must keep one entry per distinct pair and
  // the counters must stay consistent (no double-counted verdicts when
  // the totals are merged into BenchmarkResult).
  graph::SymbolTable symbols;
  PropertyGraph a = provenance_graph(3, 3, 1);
  PropertyGraph b = transient_copy(a, 2);
  PropertyGraph c = provenance_graph(4, 3, 3);
  InternedGraph ia(a, symbols), ib(b, symbols), ic(c, symbols);
  std::uint64_t da = graph::structural_digest(a);
  std::uint64_t db = graph::structural_digest(b);
  std::uint64_t dc = graph::structural_digest(c);

  SimilarityMemo memo;
  runtime::ThreadPool pool(8);
  const std::size_t kCalls = 64;
  pool.parallel_for(kCalls, [&](std::size_t i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(memo.similar(da, db, ia, ib));
    } else {
      EXPECT_FALSE(memo.similar(da, dc, ia, ic));
    }
  });
  // (ia,ib) is the only equal-digest pair ever solved; (ia,ic) is a
  // digest-mismatch short-circuit and stores nothing.
  EXPECT_EQ(memo.entries(), 1u);
  EXPECT_EQ(memo.lookups(), kCalls);
  // Everything but the (<= thread count) racing initial solves of
  // (ia,ib) is answered from cache or short-circuit.
  EXPECT_GE(memo.hits() + 9, kCalls);
}

TEST(PipelineSearchConfig, ResultsIdenticalAtAnyMatcherThreadCount) {
  // The SearchConfig plumbed through PipelineOptions must leave the
  // benchmark result invariant across matcher thread counts.
  bench_suite::BenchmarkProgram program = bench_suite::benchmark_by_name(
      "rename");
  runtime::ThreadPool matcher_pool(8);
  std::vector<std::string> dots;
  for (int threads : {1, 8}) {
    core::PipelineOptions options;
    options.system = "spade";
    options.matcher.threads = threads;
    options.matcher.pool = threads > 1 ? &matcher_pool : nullptr;
    core::BenchmarkResult result = core::run_benchmark(program, options);
    EXPECT_EQ(result.status, core::BenchmarkStatus::Ok);
    EXPECT_GT(result.matcher_steps, 0u);
    dots.push_back(formats::to_dot(result.result, "r") +
                   formats::to_dot(result.generalized_background, "bg") +
                   formats::to_dot(result.generalized_foreground, "fg"));
  }
  EXPECT_EQ(dots[0], dots[1]);
}

}  // namespace
}  // namespace provmark::matcher
