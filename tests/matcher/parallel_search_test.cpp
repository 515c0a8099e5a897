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
#include "util/rng.h"

namespace provmark::matcher {
namespace {

using graph::PropertyGraph;

PropertyGraph random_graph(int nodes, int edges, util::Rng& rng) {
  static const char* kNodeLabels[] = {"Process", "Artifact", "Agent"};
  static const char* kEdgeLabels[] = {"Used", "WasGeneratedBy", "Was"};
  static const char* kKeys[] = {"pid", "path", "time"};
  PropertyGraph g;
  for (int i = 0; i < nodes; ++i) {
    graph::Properties props;
    int prop_count = static_cast<int>(rng.next_below(3));
    for (int p = 0; p < prop_count; ++p) {
      props[kKeys[rng.next_below(3)]] = std::to_string(rng.next_below(4));
    }
    g.add_node("n" + std::to_string(i), kNodeLabels[rng.next_below(3)],
               std::move(props));
  }
  for (int i = 0; i < edges; ++i) {
    graph::Properties props;
    if (rng.chance(0.5)) props["op"] = std::to_string(rng.next_below(3));
    g.add_edge("e" + std::to_string(i),
               "n" + std::to_string(
                         rng.next_below(static_cast<std::uint64_t>(nodes))),
               "n" + std::to_string(
                         rng.next_below(static_cast<std::uint64_t>(nodes))),
               kEdgeLabels[rng.next_below(3)], std::move(props));
  }
  return g;
}

/// A provenance spine with artifact fan-out, as in the perf benchmark:
/// big enough that the parallel search genuinely partitions.
PropertyGraph provenance_graph(int processes, std::uint64_t seed) {
  util::Rng rng(seed);
  PropertyGraph g;
  std::string prev;
  int edge = 0;
  for (int p = 0; p < processes; ++p) {
    std::string pid = "p" + std::to_string(p);
    g.add_node(pid, "Process",
               {{"pid", std::to_string(1000 + p)},
                {"name", "proc" + std::to_string(p % 3)}});
    if (!prev.empty()) {
      g.add_edge("e" + std::to_string(edge++), pid, prev, "WasTriggeredBy",
                 {{"operation", "fork"}});
    }
    for (int a = 0; a < 3; ++a) {
      std::string aid = pid + "a" + std::to_string(a);
      g.add_node(aid, "Artifact",
                 {{"path", "/tmp/" + pid + "f" + std::to_string(a)},
                  {"time", std::to_string(rng.next_below(100000))}});
      bool used = rng.chance(0.5);
      g.add_edge("e" + std::to_string(edge++), used ? pid : aid,
                 used ? aid : pid, used ? "Used" : "WasGeneratedBy",
                 {{"operation", used ? "read" : "write"}});
    }
    prev = pid;
  }
  return g;
}

PropertyGraph transient_copy(const PropertyGraph& g, std::uint64_t seed) {
  util::Rng rng(seed);
  PropertyGraph out;
  for (const graph::Node& n : g.nodes()) {
    graph::Properties props = n.props;
    if (props.count("time") > 0) {
      props["time"] = std::to_string(rng.next_below(100000));
    }
    out.add_node("x" + n.id, n.label, props);
  }
  for (const graph::Edge& e : g.edges()) {
    out.add_edge("x" + e.id, "x" + e.src, "x" + e.tgt, e.label, e.props);
  }
  return out;
}

/// A process with `artifacts` read artifacts, each carrying a distinct
/// path. Embedding a small star into a large one has
/// large!/(large-small)! structurally valid solutions, so with cost
/// bounding off the search tree is as big as the budget tests need
/// under any search order.
PropertyGraph star(int artifacts, const std::string& prefix) {
  PropertyGraph g;
  g.add_node(prefix, "Process", {{"name", "reader"}});
  for (int a = 0; a < artifacts; ++a) {
    std::string aid = prefix + "a" + std::to_string(a);
    g.add_node(aid, "Artifact", {{"path", "/tmp/" + std::to_string(a)}});
    g.add_edge(aid + "e", prefix, aid, "Used", {{"operation", "read"}});
  }
  return g;
}

SearchOptions exhaustive_embedding() {
  SearchOptions options;
  options.cost_model = CostModel::OneSided;
  options.candidate_pruning = false;
  options.cost_bounding = false;
  return options;
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
    EXPECT_EQ(serial->node_map, parallel->node_map) << context;
    EXPECT_EQ(serial->edge_map, parallel->edge_map) << context;
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
  PropertyGraph g1 = provenance_graph(8, 1);
  PropertyGraph g2 = transient_copy(g1, 2);
  SearchOptions serial;
  serial.cost_model = CostModel::Symmetric;
  SearchOptions par = serial;
  par.threads = threads;
  par.pool = &pool;
  Stats ss, ps;
  auto s = best_isomorphism(g1, g2, serial, &ss);
  auto p = best_isomorphism(g1, g2, par, &ps);
  expect_same_outcome(s, ss, p, ps,
                      "spine threads " + std::to_string(threads));
  ASSERT_TRUE(s.has_value());
  EXPECT_FALSE(ss.budget_exhausted);
  // Steps aggregate across workers: merged exactly once, so the total
  // is at least the serial prefix enumeration and every solution is
  // counted once.
  EXPECT_GT(ps.steps, 0u);
  EXPECT_GE(ps.solutions_found, 1u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelIdentityTest,
                         ::testing::Values(1, 4, 8));

TEST(ParallelBudget, ExhaustionReportedAtAnyThreadCount) {
  PropertyGraph bg = star(6, "b");
  PropertyGraph fg = star(12, "f");
  runtime::ThreadPool pool(4);
  // A budget far below the instance's search needs: serial and parallel
  // must both report exhaustion.
  for (int threads : {1, 4}) {
    SearchOptions options = exhaustive_embedding();
    options.step_budget = 50;
    options.threads = threads;
    options.pool = &pool;
    Stats stats;
    best_subgraph_embedding(bg, fg, options, &stats);
    EXPECT_TRUE(stats.budget_exhausted) << "threads " << threads;
  }
}

TEST(ParallelBudget, CooperativeCancellationIsPrompt) {
  // Unbounded, this instance's tree has 16!/8! (~5e8) leaves, so the
  // shared budget is guaranteed to trip at every thread count and the
  // assertion below genuinely bounds how fast siblings notice.
  PropertyGraph bg = star(8, "b");
  PropertyGraph fg = star(16, "f");
  runtime::ThreadPool pool(8);
  SearchOptions options = exhaustive_embedding();
  options.step_budget = 20'000;
  options.threads = 8;
  options.pool = &pool;
  Stats stats;
  best_subgraph_embedding(bg, fg, options, &stats);
  ASSERT_TRUE(stats.budget_exhausted);
  // Budget enforcement is batched (one flush per 512 steps per worker):
  // siblings cancel within one batch each instead of running to a
  // private budget. 9 participants x 512 + the tripping worker's batch
  // bounds the overshoot; 16x slack keeps the test robust while still
  // failing if cancellation regresses to per-worker budgets (which
  // would allow ~8x the budget).
  EXPECT_LT(stats.steps, options.step_budget + 9 * 512 * 16);
}

TEST(ParallelBudget, SubBatchTasksStillEnforceTheBudget) {
  // Regression: tasks are small by design (~16 per thread), so most
  // finish without ever filling a 512-step flush batch. The end-of-task
  // flush must still publish their steps and check the budget —
  // otherwise a fleet of sub-batch tasks overruns step_budget with
  // budget_exhausted left false.
  PropertyGraph bg = star(3, "b");
  PropertyGraph fg = star(6, "f");
  SearchOptions serial = exhaustive_embedding();
  Stats full;
  ASSERT_TRUE(best_subgraph_embedding(bg, fg, serial, &full).has_value());
  ASSERT_GT(full.steps, 64u);  // instance big enough to halve

  runtime::ThreadPool pool(8);
  SearchOptions par = serial;
  par.threads = 8;
  par.pool = &pool;
  par.step_budget = full.steps / 2;
  Stats stats;
  best_subgraph_embedding(bg, fg, par, &stats);
  EXPECT_TRUE(stats.budget_exhausted);
}

TEST(ParallelBudget, SerialSemanticsUnchangedAtOneThread) {
  // threads=1 must take the exact serial path: same steps trace as a
  // default-options run.
  PropertyGraph g1 = provenance_graph(6, 7);
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
  EXPECT_EQ(a->node_map, b->node_map);
}

TEST(MemoConcurrency, EachPairStoredExactlyOnce) {
  // Hammer one memo with the same pairs from many threads; the
  // duplicate-insert guard must keep one entry per distinct pair and
  // the counters must stay consistent (no double-counted verdicts when
  // the totals are merged into BenchmarkResult).
  graph::SymbolTable symbols;
  PropertyGraph a = provenance_graph(3, 1);
  PropertyGraph b = transient_copy(a, 2);
  PropertyGraph c = provenance_graph(4, 3);
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
