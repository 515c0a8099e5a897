#include "core/compare.h"

#include <gtest/gtest.h>

#include "graph/property_graph.h"
#include "matcher/interned.h"

namespace provmark::core {
namespace {

using graph::PropertyGraph;

/// compare_graphs over both graphs interned against one symbol table, as
/// the pipeline interns its two generalized graphs.
CompareResult compare(const PropertyGraph& background,
                      const PropertyGraph& foreground) {
  graph::SymbolTable symbols;
  matcher::InternedGraph bg(background, symbols);
  matcher::InternedGraph fg(foreground, symbols);
  return compare_graphs(bg, fg);
}

PropertyGraph background() {
  PropertyGraph g;
  g.add_node("p", "Process", {{"name", "bench"}});
  g.add_node("lib", "Artifact", {{"path", "/lib/libc"}});
  g.add_edge("e1", "p", "lib", "Used", {{"operation", "open"}});
  return g;
}

PropertyGraph foreground_with_target() {
  PropertyGraph g = background();
  g.add_node("f", "Artifact", {{"path", "/tmp/x"}});
  g.add_edge("e2", "p", "f", "Used", {{"operation", "open"}});
  return g;
}

TEST(Compare, SubtractsBackground) {
  CompareResult result =
      compare(background(), foreground_with_target());
  EXPECT_FALSE(result.embedding_failed);
  // Target structure: the new artifact, the new edge, and the process as
  // a dummy endpoint.
  EXPECT_EQ(result.benchmark.edge_count(), 1u);
  EXPECT_EQ(result.benchmark.node_count(), 2u);
  ASSERT_EQ(result.dummy_nodes.size(), 1u);
  const graph::Node* dummy =
      result.benchmark.find_node(result.dummy_nodes[0]);
  ASSERT_NE(dummy, nullptr);
  EXPECT_EQ(dummy->label, "Process");
  EXPECT_EQ(dummy->props.at("dummy"), "true");
  // The real node keeps its properties.
  EXPECT_EQ(result.benchmark.find_node("f")->props.at("path"), "/tmp/x");
}

TEST(Compare, IdenticalGraphsYieldEmpty) {
  CompareResult result = compare(background(), background());
  EXPECT_FALSE(result.embedding_failed);
  EXPECT_TRUE(result.benchmark.empty());
  EXPECT_TRUE(result.dummy_nodes.empty());
}

TEST(Compare, EmptyBackgroundKeepsWholeForeground) {
  CompareResult result =
      compare(PropertyGraph{}, foreground_with_target());
  EXPECT_FALSE(result.embedding_failed);
  EXPECT_EQ(result.benchmark.size(), foreground_with_target().size());
  EXPECT_TRUE(result.dummy_nodes.empty());
}

TEST(Compare, NonEmbeddableBackgroundFails) {
  PropertyGraph bg = background();
  bg.add_node("extra", "Artifact");
  bg.add_edge("e9", "p", "extra", "NotInForeground");
  CompareResult result =
      compare(bg, foreground_with_target());
  EXPECT_TRUE(result.embedding_failed);
}

TEST(Compare, DisconnectedNewNodeSurvivesWithoutDummies) {
  // The vfork shape: the foreground adds a disconnected node only.
  PropertyGraph fg = background();
  fg.add_node("child", "Process", {{"pid", "7"}});
  CompareResult result = compare(background(), fg);
  EXPECT_FALSE(result.embedding_failed);
  EXPECT_EQ(result.benchmark.node_count(), 1u);
  EXPECT_EQ(result.benchmark.edge_count(), 0u);
  EXPECT_TRUE(result.dummy_nodes.empty());
}

TEST(Compare, PicksEmbeddingThatMinimizesPropertyCost) {
  // Background process could map onto two foreground processes; the one
  // with matching properties must be chosen so the *other* becomes the
  // benchmark result.
  PropertyGraph bg;
  bg.add_node("p", "Process", {{"name", "bench"}});
  PropertyGraph fg;
  fg.add_node("a", "Process", {{"name", "other"}});
  fg.add_node("b", "Process", {{"name", "bench"}});
  CompareResult result = compare(bg, fg);
  EXPECT_FALSE(result.embedding_failed);
  EXPECT_EQ(result.embedding_cost, 0);
  ASSERT_EQ(result.benchmark.node_count(), 1u);
  EXPECT_EQ(result.benchmark.nodes().front().id, "a");
}

TEST(Compare, BothEndpointsDummyWhenEdgeAddedBetweenOldNodes) {
  PropertyGraph fg = background();
  fg.add_edge("e2", "lib", "p", "WasGeneratedBy",
              {{"operation", "write"}});
  CompareResult result = compare(background(), fg);
  EXPECT_FALSE(result.embedding_failed);
  EXPECT_EQ(result.benchmark.edge_count(), 1u);
  EXPECT_EQ(result.benchmark.node_count(), 2u);
  EXPECT_EQ(result.dummy_nodes.size(), 2u);
}

TEST(Compare, ReportsEmbeddingCost) {
  PropertyGraph bg;
  bg.add_node("p", "Process", {{"k", "old"}});
  PropertyGraph fg;
  fg.add_node("p", "Process", {{"k", "new"}});
  CompareResult result = compare(bg, fg);
  EXPECT_FALSE(result.embedding_failed);
  EXPECT_EQ(result.embedding_cost, 1);
  EXPECT_TRUE(result.benchmark.empty());
}

}  // namespace
}  // namespace provmark::core
