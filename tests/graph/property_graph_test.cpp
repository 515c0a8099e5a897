#include "graph/property_graph.h"

#include <gtest/gtest.h>

namespace provmark::graph {
namespace {

PropertyGraph diamond() {
  PropertyGraph g;
  g.add_node("a", "Process", {{"pid", "1"}});
  g.add_node("b", "Artifact");
  g.add_node("c", "Artifact");
  g.add_node("d", "Process");
  g.add_edge("e1", "a", "b", "Used");
  g.add_edge("e2", "a", "c", "Used");
  g.add_edge("e3", "b", "d", "WasGeneratedBy");
  g.add_edge("e4", "c", "d", "WasGeneratedBy");
  return g;
}

TEST(PropertyGraph, AddAndFind) {
  PropertyGraph g = diamond();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.size(), 8u);
  ASSERT_NE(g.find_node("a"), nullptr);
  EXPECT_EQ(g.find_node("a")->label, "Process");
  ASSERT_NE(g.find_edge("e3"), nullptr);
  EXPECT_EQ(g.find_edge("e3")->tgt, "d");
  EXPECT_EQ(g.find_node("zz"), nullptr);
  EXPECT_EQ(g.find_edge("zz"), nullptr);
}

TEST(PropertyGraph, RejectsDuplicateIds) {
  PropertyGraph g = diamond();
  EXPECT_THROW(g.add_node("a", "X"), std::invalid_argument);
  EXPECT_THROW(g.add_node("e1", "X"), std::invalid_argument);  // edge id too
  EXPECT_THROW(g.add_edge("e1", "a", "b", "X"), std::invalid_argument);
  EXPECT_THROW(g.add_edge("a", "a", "b", "X"), std::invalid_argument);
}

TEST(PropertyGraph, RejectsDanglingEdges) {
  PropertyGraph g;
  g.add_node("a", "X");
  EXPECT_THROW(g.add_edge("e", "a", "missing", "L"), std::invalid_argument);
  EXPECT_THROW(g.add_edge("e", "missing", "a", "L"), std::invalid_argument);
}

TEST(PropertyGraph, SelfLoopAllowed) {
  PropertyGraph g;
  g.add_node("a", "X");
  g.add_edge("e", "a", "a", "self");
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.find_edge("e")->src, "a");
  EXPECT_EQ(g.find_edge("e")->tgt, "a");
}

TEST(PropertyGraph, Properties) {
  PropertyGraph g = diamond();
  EXPECT_EQ(g.property("a", "pid"), "1");
  EXPECT_EQ(g.property("a", "missing"), std::nullopt);
  EXPECT_EQ(g.property("zz", "pid"), std::nullopt);
  g.set_property("e1", "operation", "read");
  EXPECT_EQ(g.property("e1", "operation"), "read");
  g.set_property("e1", "operation", "write");  // overwrite
  EXPECT_EQ(g.property("e1", "operation"), "write");
  EXPECT_THROW(g.set_property("zz", "k", "v"), std::invalid_argument);
}

TEST(PropertyGraph, Equality) {
  EXPECT_EQ(diamond(), diamond());
  PropertyGraph g = diamond();
  g.set_property("a", "x", "y");
  EXPECT_FALSE(g == diamond());
}

TEST(PropertyGraph, WithIdPrefix) {
  PropertyGraph g = with_id_prefix(diamond(), "t0_");
  EXPECT_NE(g.find_node("t0_a"), nullptr);
  EXPECT_NE(g.find_edge("t0_e1"), nullptr);
  EXPECT_EQ(g.find_edge("t0_e1")->src, "t0_a");
  EXPECT_EQ(g.size(), diamond().size());
}

TEST(PropertyGraph, EmptyGraph) {
  PropertyGraph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.size(), 0u);
}

}  // namespace
}  // namespace provmark::graph
