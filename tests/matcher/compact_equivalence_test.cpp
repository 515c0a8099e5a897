// The production engine (interned graphs, WL-scarcity search order)
// must solve the same problems as two independent references: the
// string-keyed engine it replaced (legacy_matcher.cpp, PropertyCost
// order) and the exhaustive brute_force oracle. On every ablation
// configuration all three agree on feasibility and optimal cost, the
// returned matching is structurally valid and priced correctly, and
// the engines agree on step-budget exhaustion. Step counts are not
// compared: the search orders differ, so the trees they visit do too.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "graph/property_graph.h"
#include "matcher/brute_force.h"
#include "matcher/legacy_matcher.h"
#include "matcher/matcher.h"
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

PropertyGraph shuffled_copy(const PropertyGraph& g, util::Rng& rng) {
  std::vector<const graph::Node*> nodes;
  for (const graph::Node& n : g.nodes()) nodes.push_back(&n);
  for (std::size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.next_below(i)]);
  }
  PropertyGraph out;
  for (const graph::Node* n : nodes) {
    out.add_node("s_" + n->id, n->label, n->props);
  }
  for (const graph::Edge& e : g.edges()) {
    out.add_edge("s_" + e.id, "s_" + e.src, "s_" + e.tgt, e.label, e.props);
  }
  return out;
}

/// The ablation grid the seed benchmarks exercise: every combination of
/// pruning/bounding knobs and cost models.
std::vector<SearchOptions> ablation_configs() {
  std::vector<SearchOptions> configs;
  for (CostModel model :
       {CostModel::None, CostModel::OneSided, CostModel::Symmetric}) {
    for (bool pruning : {true, false}) {
      for (bool bounding : {true, false}) {
        SearchOptions options;
        options.cost_model = model;
        options.candidate_pruning = pruning;
        options.cost_bounding = bounding;
        configs.push_back(options);
      }
    }
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
  ASSERT_EQ(m.node_map.size(), g1.nodes().size()) << context;
  ASSERT_EQ(m.edge_map.size(), g1.edges().size()) << context;
  if (bijective) {
    EXPECT_EQ(g1.nodes().size(), g2.nodes().size()) << context;
    EXPECT_EQ(g1.edges().size(), g2.edges().size()) << context;
  }
  int cost = 0;
  std::set<graph::Id> node_targets, edge_targets;
  for (const auto& [a, b] : m.node_map) {
    const graph::Node* na = g1.find_node(a);
    const graph::Node* nb = g2.find_node(b);
    ASSERT_NE(na, nullptr) << context;
    ASSERT_NE(nb, nullptr) << context;
    EXPECT_EQ(na->label, nb->label) << context;
    EXPECT_TRUE(node_targets.insert(b).second)
        << context << ": node map not injective";
    cost += prop_cost(na->props, nb->props, model);
  }
  for (const auto& [a, b] : m.edge_map) {
    const graph::Edge* ea = g1.find_edge(a);
    const graph::Edge* eb = g2.find_edge(b);
    ASSERT_NE(ea, nullptr) << context;
    ASSERT_NE(eb, nullptr) << context;
    EXPECT_EQ(ea->label, eb->label) << context;
    EXPECT_EQ(m.node_map.at(ea->src), eb->src) << context;
    EXPECT_EQ(m.node_map.at(ea->tgt), eb->tgt) << context;
    EXPECT_TRUE(edge_targets.insert(b).second)
        << context << ": edge map not injective";
    cost += prop_cost(ea->props, eb->props, model);
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

TEST_P(EquivalenceTest, IsomorphismAgreesAcrossAblationGrid) {
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
  for (const SearchOptions& options : ablation_configs()) {
    expect_agreement(g1, g2, options, /*bijective=*/true,
                     "iso seed " + std::to_string(GetParam()) + " config " +
                         std::to_string(config_index++));
  }
}

TEST_P(EquivalenceTest, EmbeddingAgreesAcrossAblationGrid) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2003 + 41);
  PropertyGraph fg = random_graph(3 + GetParam() % 5, GetParam() % 7, rng);
  PropertyGraph bg = random_graph(1 + GetParam() % 3, GetParam() % 3, rng);
  int config_index = 0;
  for (const SearchOptions& options : ablation_configs()) {
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
  for (const SearchOptions& options : ablation_configs()) {
    expect_agreement(g1, g2, options, /*bijective=*/true, "parallel/self");
  }
}

TEST(EquivalenceEdgeCases, EmptyGraphs) {
  PropertyGraph empty, one;
  one.add_node("a", "X");
  for (const SearchOptions& options : ablation_configs()) {
    expect_agreement(empty, empty, options, /*bijective=*/true, "empty iso");
    expect_agreement(empty, one, options, /*bijective=*/false, "empty embed");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace provmark::matcher
