// The production engine (interned graphs, WL-scarcity search order)
// must solve the same problems as two independent references: the
// string-keyed engine it replaced (legacy_matcher.cpp, PropertyCost
// order) and the exhaustive brute_force oracle. Under every cost model
// all three agree on feasibility and optimal cost, the returned matching
// is structurally valid and priced correctly, and the engines agree on
// step-budget exhaustion. On the provenance-spine graphs, too big for
// brute force, production and legacy still agree. Step counts are not
// compared: the search orders differ, so the trees they visit do too.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "graph/property_graph.h"
#include "matcher/brute_force.h"
#include "matcher/legacy_matcher.h"
#include "matcher/matcher.h"
#include "test_graphs.h"
#include "util/rng.h"

namespace provmark::matcher {
namespace {

using graph::PropertyGraph;
using test_graphs::random_graph;
using test_graphs::shuffled_copy;

/// Every cost model the matcher supports, each with default options.
std::vector<SearchOptions> cost_models() {
  std::vector<SearchOptions> configs;
  for (CostModel model :
       {CostModel::None, CostModel::OneSided, CostModel::Symmetric}) {
    SearchOptions options;
    options.cost_model = model;
    configs.push_back(options);
  }
  return configs;
}

int prop_cost(const graph::Properties& a, const graph::Properties& b,
              CostModel model) {
  if (model == CostModel::None) return 0;
  int cost = 0;
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end() || it->second != v) ++cost;
  }
  if (model == CostModel::Symmetric) {
    cost += prop_cost(b, a, CostModel::OneSided);
  }
  return cost;
}

/// The matching maps G1 injectively into G2 preserving labels and edge
/// endpoints (bijectively for the isomorphism problem), and its reported
/// cost is the property-mismatch cost of exactly these pairs.
void expect_valid(const PropertyGraph& g1, const PropertyGraph& g2,
                  const Matching& m, CostModel model, bool bijective,
                  const std::string& context) {
  ASSERT_EQ(m.node_index.size(), g1.nodes().size()) << context;
  ASSERT_EQ(m.edge_index.size(), g1.edges().size()) << context;
  if (bijective) {
    EXPECT_EQ(g1.nodes().size(), g2.nodes().size()) << context;
    EXPECT_EQ(g1.edges().size(), g2.edges().size()) << context;
  }
  int cost = 0;
  std::set<std::uint32_t> node_targets, edge_targets;
  for (std::size_t i = 0; i < g1.nodes().size(); ++i) {
    ASSERT_LT(m.node_index[i], g2.nodes().size()) << context;
    const graph::Node& na = g1.nodes()[i];
    const graph::Node& nb = g2.nodes()[m.node_index[i]];
    EXPECT_EQ(na.label, nb.label) << context;
    EXPECT_TRUE(node_targets.insert(m.node_index[i]).second)
        << context << ": node map not injective";
    cost += prop_cost(na.props, nb.props, model);
  }
  auto matched_node = [&](const graph::Id& id) {
    return g2.nodes()[m.node_index[g1.find_node(id) - g1.nodes().data()]].id;
  };
  for (std::size_t i = 0; i < g1.edges().size(); ++i) {
    ASSERT_LT(m.edge_index[i], g2.edges().size()) << context;
    const graph::Edge& ea = g1.edges()[i];
    const graph::Edge& eb = g2.edges()[m.edge_index[i]];
    EXPECT_EQ(ea.label, eb.label) << context;
    EXPECT_EQ(matched_node(ea.src), eb.src) << context;
    EXPECT_EQ(matched_node(ea.tgt), eb.tgt) << context;
    EXPECT_TRUE(edge_targets.insert(m.edge_index[i]).second)
        << context << ": edge map not injective";
    cost += prop_cost(ea.props, eb.props, model);
  }
  EXPECT_EQ(m.cost, cost) << context;
}

/// Production vs legacy vs brute force on one problem under one config.
void expect_agreement(const PropertyGraph& g1, const PropertyGraph& g2,
                      const SearchOptions& options, bool bijective,
                      const std::string& context) {
  Stats fast_stats, slow_stats;
  const CostModel model = options.cost_model;
  auto fast = bijective
                  ? best_isomorphism(g1, g2, options, &fast_stats)
                  : best_subgraph_embedding(g1, g2, options, &fast_stats);
  auto slow = bijective
                  ? legacy::best_isomorphism(g1, g2, options, &slow_stats)
                  : legacy::best_subgraph_embedding(g1, g2, options,
                                                    &slow_stats);
  auto oracle = bijective ? brute_force_isomorphism(g1, g2, model)
                          : brute_force_embedding(g1, g2, model);
  EXPECT_EQ(fast_stats.budget_exhausted, slow_stats.budget_exhausted)
      << context;
  ASSERT_EQ(fast.has_value(), slow.has_value()) << context;
  ASSERT_EQ(fast.has_value(), oracle.has_value()) << context;
  if (!fast.has_value()) return;
  expect_valid(g1, g2, *fast, model, bijective, context);
  if (!options.first_solution_only) {
    EXPECT_EQ(fast->cost, slow->cost) << context;
    EXPECT_EQ(fast->cost, oracle->cost) << context;
  }
}

class EquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceTest, IsomorphismAgreesUnderEveryCostModel) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009 + 23);
  PropertyGraph g1 = random_graph(2 + GetParam() % 5, GetParam() % 6, rng);
  PropertyGraph g2 = rng.chance(0.6)
                         ? shuffled_copy(g1, rng)
                         : random_graph(2 + GetParam() % 5,
                                        GetParam() % 6, rng);
  if (!g2.nodes().empty()) {
    g2.set_property(g2.nodes().front().id, "time", "777");
  }
  int config_index = 0;
  for (const SearchOptions& options : cost_models()) {
    expect_agreement(g1, g2, options, /*bijective=*/true,
                     "iso seed " + std::to_string(GetParam()) + " config " +
                         std::to_string(config_index++));
  }
}

TEST_P(EquivalenceTest, EmbeddingAgreesUnderEveryCostModel) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2003 + 41);
  PropertyGraph fg = random_graph(3 + GetParam() % 5, GetParam() % 7, rng);
  PropertyGraph bg = random_graph(1 + GetParam() % 3, GetParam() % 3, rng);
  int config_index = 0;
  for (const SearchOptions& options : cost_models()) {
    expect_agreement(bg, fg, options, /*bijective=*/false,
                     "embed seed " + std::to_string(GetParam()) +
                         " config " + std::to_string(config_index++));
  }
}

TEST_P(EquivalenceTest, FirstSolutionAndBudgetAgree) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 509 + 3);
  PropertyGraph g1 = random_graph(3 + GetParam() % 4, GetParam() % 5, rng);
  PropertyGraph g2 = shuffled_copy(g1, rng);
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  const std::string seed = " seed " + std::to_string(GetParam());

  SearchOptions first = options;
  first.first_solution_only = true;
  expect_agreement(g1, g2, first, /*bijective=*/true, "first-solution" + seed);

  // A generous budget is never hit; the optimum is unchanged.
  SearchOptions generous = options;
  generous.step_budget = 1'000'000;
  expect_agreement(g1, g2, generous, /*bijective=*/true, "generous" + seed);

  // A one-step budget trips in both engines before any solution: the
  // feasible instance needs at least one assignment below the root.
  SearchOptions tiny = options;
  tiny.step_budget = 1;
  Stats fast_stats, slow_stats;
  auto fast = best_isomorphism(g1, g2, tiny, &fast_stats);
  auto slow = legacy::best_isomorphism(g1, g2, tiny, &slow_stats);
  EXPECT_TRUE(fast_stats.budget_exhausted) << "tiny" << seed;
  EXPECT_TRUE(slow_stats.budget_exhausted) << "tiny" << seed;
  EXPECT_FALSE(fast.has_value()) << "tiny" << seed;
  EXPECT_FALSE(slow.has_value()) << "tiny" << seed;
}

TEST(EquivalenceEdgeCases, ParallelEdgesAndSelfLoops) {
  PropertyGraph g1;
  g1.add_node("a", "X");
  g1.add_node("b", "X");
  g1.add_edge("e1", "a", "b", "L", {{"op", "read"}});
  g1.add_edge("e2", "a", "b", "L", {{"op", "write"}});
  g1.add_edge("e3", "a", "a", "self");
  PropertyGraph g2;
  g2.add_node("p", "X");
  g2.add_node("q", "X");
  g2.add_edge("f1", "p", "q", "L", {{"op", "write"}});
  g2.add_edge("f2", "p", "q", "L", {{"op", "read"}});
  g2.add_edge("f3", "p", "p", "self");
  for (const SearchOptions& options : cost_models()) {
    expect_agreement(g1, g2, options, /*bijective=*/true, "parallel/self");
  }
}

TEST(EquivalenceEdgeCases, EmptyGraphs) {
  PropertyGraph empty, one;
  one.add_node("a", "X");
  for (const SearchOptions& options : cost_models()) {
    expect_agreement(empty, empty, options, /*bijective=*/true, "empty iso");
    expect_agreement(empty, one, options, /*bijective=*/false, "empty embed");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceTest, ::testing::Range(0, 30));

/// Production vs legacy on a problem too big for brute_force: same
/// feasibility and optimal cost, neither engine near the budget.
void expect_legacy_agreement(const PropertyGraph& g1, const PropertyGraph& g2,
                             CostModel model, bool bijective,
                             const std::string& context) {
  SearchOptions options;
  options.cost_model = model;
  options.step_budget = 50'000'000;
  Stats fast_stats, slow_stats;
  auto fast = bijective
                  ? best_isomorphism(g1, g2, options, &fast_stats)
                  : best_subgraph_embedding(g1, g2, options, &fast_stats);
  auto slow = bijective
                  ? legacy::best_isomorphism(g1, g2, options, &slow_stats)
                  : legacy::best_subgraph_embedding(g1, g2, options,
                                                    &slow_stats);
  ASSERT_FALSE(fast_stats.budget_exhausted) << context;
  ASSERT_FALSE(slow_stats.budget_exhausted) << context;
  ASSERT_TRUE(fast.has_value()) << context;
  ASSERT_TRUE(slow.has_value()) << context;
  EXPECT_EQ(fast->cost, slow->cost) << context;
  expect_valid(g1, g2, *fast, model, bijective, context);
}

class ProvenanceSpineTest : public ::testing::TestWithParam<int> {};

TEST_P(ProvenanceSpineTest, IsomorphismOfTwoTrialsAgreesWithLegacy) {
  // Listing 3's shape: two trials of one recording, transients redrawn.
  const int processes = GetParam();
  PropertyGraph g1 = test_graphs::provenance_graph(processes, 4, 1);
  PropertyGraph g2 = test_graphs::transient_copy(g1, 2);
  expect_legacy_agreement(g1, g2, CostModel::Symmetric, /*bijective=*/true,
                          "spine iso p=" + std::to_string(processes));
}

TEST_P(ProvenanceSpineTest, BackgroundIntoForegroundAgreesWithLegacy) {
  // Listing 4's shape: a half-length spine embedded into the full one.
  const int processes = GetParam();
  PropertyGraph fg = test_graphs::provenance_graph(processes, 4, 3);
  PropertyGraph bg = test_graphs::provenance_graph(processes / 2, 4, 3);
  expect_legacy_agreement(bg, fg, CostModel::OneSided, /*bijective=*/false,
                          "spine embed p=" + std::to_string(processes));
}

INSTANTIATE_TEST_SUITE_P(Processes, ProvenanceSpineTest,
                         ::testing::Values(4, 8));

}  // namespace
}  // namespace provmark::matcher
