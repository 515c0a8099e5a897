#include "matcher/matcher.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "matcher/interned.h"

namespace provmark::matcher {
namespace {

using graph::PropertyGraph;

/// The id of the g2 node that `m` matches g1's node `id` to.
graph::Id matched_node(const Matching& m, const PropertyGraph& g1,
                       const PropertyGraph& g2, const graph::Id& id) {
  return g2.nodes()[m.node_index[g1.find_node(id) - g1.nodes().data()]].id;
}

/// The id of the g2 edge that `m` matches g1's edge `id` to.
graph::Id matched_edge(const Matching& m, const PropertyGraph& g1,
                       const PropertyGraph& g2, const graph::Id& id) {
  return g2.edges()[m.edge_index[g1.find_edge(id) - g1.edges().data()]].id;
}

PropertyGraph triangle(const std::string& prefix) {
  PropertyGraph g;
  g.add_node(prefix + "a", "P");
  g.add_node(prefix + "b", "A");
  g.add_node(prefix + "c", "A");
  g.add_edge(prefix + "e1", prefix + "a", prefix + "b", "Used");
  g.add_edge(prefix + "e2", prefix + "b", prefix + "c", "WasDerivedFrom");
  g.add_edge(prefix + "e3", prefix + "a", prefix + "c", "Used");
  return g;
}

TEST(Similar, IsomorphicGraphsIgnoringProperties) {
  PropertyGraph g1 = triangle("x");
  PropertyGraph g2 = triangle("y");
  g2.set_property("ya", "time", "999");  // properties must not matter
  EXPECT_TRUE(similar(g1, g2));
}

TEST(Similar, DifferentNodeCounts) {
  PropertyGraph g2 = triangle("y");
  g2.add_node("extra", "A");
  EXPECT_FALSE(similar(triangle("x"), g2));
}

TEST(Similar, DifferentEdgeLabels) {
  PropertyGraph g2 = triangle("y");
  g2.find_edge("ye2")->label = "Other";
  EXPECT_FALSE(similar(triangle("x"), g2));
}

TEST(Similar, DifferentNodeLabels) {
  PropertyGraph g2 = triangle("y");
  g2.find_node("yb")->label = "Z";
  EXPECT_FALSE(similar(triangle("x"), g2));
}

TEST(Similar, EdgeDirectionMatters) {
  PropertyGraph g1;
  g1.add_node("a", "X");
  g1.add_node("b", "X");
  g1.add_edge("e", "a", "b", "L");
  PropertyGraph g2;
  g2.add_node("a", "X");
  g2.add_node("b", "X");
  g2.add_edge("e", "b", "a", "L");
  // Both have one X->X edge; as unlabeled shapes these ARE isomorphic.
  EXPECT_TRUE(similar(g1, g2));
  // But pin the endpoints with distinct labels and direction shows.
  g1.find_node("a")->label = "S";
  g2.find_node("a")->label = "S";
  EXPECT_FALSE(similar(g1, g2));
}

TEST(Similar, EmptyGraphs) {
  EXPECT_TRUE(similar(PropertyGraph{}, PropertyGraph{}));
  EXPECT_FALSE(similar(PropertyGraph{}, triangle("x")));
}

TEST(Similar, ParallelEdgeMultiplicity) {
  PropertyGraph g1;
  g1.add_node("a", "X");
  g1.add_node("b", "X");
  g1.add_edge("e1", "a", "b", "L");
  g1.add_edge("e2", "a", "b", "L");
  PropertyGraph g2;
  g2.add_node("a", "X");
  g2.add_node("b", "X");
  g2.add_edge("e1", "a", "b", "L");
  EXPECT_FALSE(similar(g1, g2));
  g2.add_edge("e2", "a", "b", "L");
  EXPECT_TRUE(similar(g1, g2));
}

TEST(BestIsomorphism, MinimizesPropertyMismatch) {
  // Two interchangeable "A" nodes; only one assignment matches the
  // stable property. The optimal matching must find it.
  PropertyGraph g1;
  g1.add_node("p", "P");
  g1.add_node("a1", "A", {{"path", "/tmp/x"}, {"time", "1"}});
  g1.add_node("a2", "A", {{"path", "/tmp/y"}, {"time", "2"}});
  g1.add_edge("e1", "p", "a1", "Used");
  g1.add_edge("e2", "p", "a2", "Used");
  PropertyGraph g2;
  g2.add_node("q", "P");
  g2.add_node("b1", "A", {{"path", "/tmp/y"}, {"time", "8"}});
  g2.add_node("b2", "A", {{"path", "/tmp/x"}, {"time", "9"}});
  g2.add_edge("f1", "q", "b1", "Used");
  g2.add_edge("f2", "q", "b2", "Used");

  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  auto matching = best_isomorphism(g1, g2, options);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matched_node(*matching, g1, g2, "a1"), "b2");  // path wins
  EXPECT_EQ(matched_node(*matching, g1, g2, "a2"), "b1");
  // Cost: only the time properties mismatch (2 nodes x both directions).
  EXPECT_EQ(matching->cost, 4);
}

TEST(BestIsomorphism, ZeroCostOnIdenticalGraphs) {
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  auto matching = best_isomorphism(triangle("x"), triangle("x"), options);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matching->cost, 0);
  EXPECT_EQ(matching->node_index.size(), 3u);
  EXPECT_EQ(matching->edge_index.size(), 3u);
}

TEST(BestIsomorphism, EdgePropertyCostCounts) {
  PropertyGraph g1;
  g1.add_node("a", "X");
  g1.add_node("b", "X");
  g1.add_edge("e", "a", "b", "L", {{"op", "read"}});
  PropertyGraph g2;
  g2.add_node("a", "X");
  g2.add_node("b", "X");
  g2.add_edge("e", "a", "b", "L", {{"op", "write"}});
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  auto matching = best_isomorphism(g1, g2, options);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matching->cost, 2);  // mismatch counted from both sides
}

TEST(BestSubgraphEmbedding, FindsSubgraph) {
  PropertyGraph bg;
  bg.add_node("p", "P");
  bg.add_node("a", "A");
  bg.add_edge("e", "p", "a", "Used");

  PropertyGraph fg = triangle("t");  // t-a is P, others A, Used edges exist
  auto matching = best_subgraph_embedding(bg, fg);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matched_node(*matching, bg, fg, "p"), "ta");
  // a maps to tb or tc, both reachable by a Used edge from ta.
  const graph::Id a = matched_node(*matching, bg, fg, "a");
  EXPECT_TRUE(a == "tb" || a == "tc");
}

TEST(BestSubgraphEmbedding, EmptyPatternEmbedsAnywhere) {
  auto matching = best_subgraph_embedding(PropertyGraph{}, triangle("t"));
  ASSERT_TRUE(matching.has_value());
  EXPECT_TRUE(matching->node_index.empty());
}

TEST(BestSubgraphEmbedding, FailsWhenNotEmbeddable) {
  PropertyGraph bg;
  bg.add_node("x", "NoSuchLabel");
  EXPECT_FALSE(best_subgraph_embedding(bg, triangle("t")).has_value());

  PropertyGraph bg2;
  bg2.add_node("a", "A");
  bg2.add_node("b", "A");
  bg2.add_edge("e", "a", "b", "NoSuchEdge");
  EXPECT_FALSE(best_subgraph_embedding(bg2, triangle("t")).has_value());
}

TEST(BestSubgraphEmbedding, OneSidedCostIgnoresExtraTargetProps) {
  PropertyGraph bg;
  bg.add_node("a", "X", {{"stable", "1"}});
  PropertyGraph fg;
  fg.add_node("b", "X", {{"stable", "1"}, {"extra", "2"}});
  auto matching = best_subgraph_embedding(bg, fg);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matching->cost, 0);  // fg-only property is free
}

TEST(BestSubgraphEmbedding, PrefersCheaperCandidate) {
  PropertyGraph bg;
  bg.add_node("a", "X", {{"k", "v"}});
  PropertyGraph fg;
  fg.add_node("b1", "X", {{"k", "other"}});
  fg.add_node("b2", "X", {{"k", "v"}});
  auto matching = best_subgraph_embedding(bg, fg);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matched_node(*matching, bg, fg, "a"), "b2");
  EXPECT_EQ(matching->cost, 0);
}

TEST(BestSubgraphEmbedding, MatchesParallelEdgesByCheapestAssignment) {
  PropertyGraph bg;
  bg.add_node("a", "X");
  bg.add_node("b", "X");
  bg.add_edge("e1", "a", "b", "L", {{"op", "read"}});
  PropertyGraph fg;
  fg.add_node("a", "X");
  fg.add_node("b", "X");
  fg.add_edge("f1", "a", "b", "L", {{"op", "write"}});
  fg.add_edge("f2", "a", "b", "L", {{"op", "read"}});
  auto matching = best_subgraph_embedding(bg, fg);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matched_edge(*matching, bg, fg, "e1"), "f2");
  EXPECT_EQ(matching->cost, 0);
}

TEST(SearchOptions, StepBudgetAborts) {
  // A pathological instance: many interchangeable nodes.
  PropertyGraph g1, g2;
  for (int i = 0; i < 9; ++i) {
    g1.add_node("a" + std::to_string(i), "X");
    g2.add_node("b" + std::to_string(i), "X",
                {{"v", std::to_string(i)}});
  }
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  options.step_budget = 5;
  Stats stats;
  auto result = best_isomorphism(g1, g2, options, &stats);
  EXPECT_TRUE(stats.budget_exhausted);
  (void)result;  // may or may not hold a (suboptimal) value
}

TEST(Stats, CountsSteps) {
  Stats stats;
  SearchOptions options;
  auto matching =
      best_isomorphism(triangle("x"), triangle("y"), options, &stats);
  ASSERT_TRUE(matching.has_value());
  EXPECT_GT(stats.steps, 0u);
  EXPECT_GE(stats.solutions_found, 1u);
}

TEST(SelfLoop, MatchedCorrectly) {
  PropertyGraph g1;
  g1.add_node("a", "X");
  g1.add_edge("e", "a", "a", "self");
  PropertyGraph g2;
  g2.add_node("b", "X");
  g2.add_edge("f", "b", "b", "self");
  EXPECT_TRUE(similar(g1, g2));
  auto matching = best_subgraph_embedding(g1, g2);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matched_edge(*matching, g1, g2, "e"), "f");
}

TEST(InternedOperands, CostedSearchNeedsInternedProperties) {
  PropertyGraph g1 = triangle("x");
  PropertyGraph g2 = triangle("y");
  g1.find_node("xb")->props["path"] = "/a";
  g2.find_node("yb")->props["path"] = "/b";
  const graph::GraphView v1 = graph::view_of(g1);
  const graph::GraphView v2 = graph::view_of(g2);
  graph::SymbolTable symbols;
  InternedGraph a(v1, symbols);
  InternedGraph b(v2, symbols);
  ASSERT_FALSE(a.g.has_properties());

  // Structure alone answers every question that ignores properties.
  EXPECT_TRUE(similar(a, b));
  SearchOptions none;
  none.cost_model = CostModel::None;
  std::optional<Matching> shape = best_isomorphism(a, b, none);
  ASSERT_TRUE(shape.has_value());
  EXPECT_EQ(shape->cost, 0);
  EXPECT_TRUE(best_subgraph_embedding(a, b, none).has_value());

  // A costed search on an operand without properties is a caller bug.
  SearchOptions symmetric;
  symmetric.cost_model = CostModel::Symmetric;
  EXPECT_THROW(best_isomorphism(a, b, symmetric), std::logic_error);
  SearchOptions one_sided;
  one_sided.cost_model = CostModel::OneSided;
  EXPECT_THROW(best_subgraph_embedding(a, b, one_sided), std::logic_error);
  a.g.intern_properties(v1, symbols);
  EXPECT_THROW(best_isomorphism(a, b, symmetric), std::logic_error);

  b.g.intern_properties(v2, symbols);
  std::optional<Matching> costed = best_isomorphism(a, b, symmetric);
  std::optional<Matching> reference = best_isomorphism(g1, g2, symmetric);
  ASSERT_TRUE(costed.has_value());
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(costed->cost, reference->cost);
  EXPECT_EQ(costed->node_index, reference->node_index);
}

}  // namespace
}  // namespace provmark::matcher
