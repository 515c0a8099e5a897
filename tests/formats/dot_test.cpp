#include "formats/dot.h"

#include <gtest/gtest.h>

namespace provmark::formats {
namespace {

graph::PropertyGraph sample() {
  graph::PropertyGraph g;
  g.add_node("v1", "Process", {{"type", "Process"}, {"pid", "42"}});
  g.add_node("v2", "Artifact", {{"type", "Artifact"}, {"path", "/tmp/f"}});
  g.add_edge("e1", "v1", "v2", "Used", {{"operation", "read"}});
  return g;
}

TEST(Dot, WriterEmitsDigraph) {
  std::string dot = to_dot(sample(), "g");
  EXPECT_NE(dot.find("digraph g {"), std::string::npos);
  EXPECT_NE(dot.find("\"v1\" -> \"v2\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"Used\""), std::string::npos);
  EXPECT_NE(dot.find("operation=\"read\""), std::string::npos);
}

TEST(Dot, ProcessesAreBoxes) {
  std::string dot = to_dot(sample());
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);
}

TEST(Dot, RoundTripPreservesStructureAndProperties) {
  graph::PropertyGraph g = sample();
  graph::PropertyGraph back = from_dot(to_dot(g));
  EXPECT_EQ(back.node_count(), 2u);
  EXPECT_EQ(back.edge_count(), 1u);
  EXPECT_EQ(back.find_node("v1")->label, "Process");
  EXPECT_EQ(back.find_node("v1")->props.at("pid"), "42");
  EXPECT_EQ(back.edges().front().label, "Used");
  EXPECT_EQ(back.edges().front().props.at("operation"), "read");
}

TEST(Dot, RoundTripEscapedCharacters) {
  graph::PropertyGraph g;
  g.add_node("v1", "has \"quote\"", {{"k", "a\\b"}});
  graph::PropertyGraph back = from_dot(to_dot(g));
  EXPECT_EQ(back.find_node("v1")->label, "has \"quote\"");
  EXPECT_EQ(back.find_node("v1")->props.at("k"), "a\\b");
}

TEST(Dot, RoundTripKeysThatAreNotBareNames) {
  // A key outside [A-Za-z0-9_.:]+ is written quoted, so the reader takes
  // it back; bare keys stay unquoted.
  graph::PropertyGraph g;
  g.add_node("v1", "Process",
             {{"cmd-line", "ls -l"}, {"a b", "1"}, {"", "empty"},
              {"x\"y", "q"}, {"pid", "7"}});
  g.add_node("v2", "Artifact", {{"path", "/tmp/f"}});
  g.add_edge("dot_e0", "v1", "v2", "Used",
             {{"cmd-line", "e"}, {"a b", "2"}, {"", ""}});
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("\"cmd-line\"=\"ls -l\""), std::string::npos);
  EXPECT_NE(dot.find(", pid=\"7\""), std::string::npos);
  EXPECT_EQ(from_dot(dot), g);
}

TEST(Dot, ParserCreatesImplicitNodes) {
  graph::PropertyGraph g = from_dot("digraph g { a -> b; }");
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.find_node("a")->label, "");
}

TEST(Dot, ParserHandlesComments) {
  graph::PropertyGraph g = from_dot(
      "digraph g {\n// comment line\n a [label=\"X\"];\n}");
  EXPECT_EQ(g.find_node("a")->label, "X");
}

TEST(Dot, ParserHandlesMultipleEdgesBetweenSamePair) {
  graph::PropertyGraph g = from_dot(
      "digraph g { a -> b [label=\"r\"]; a -> b [label=\"w\"]; }");
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(Dot, ParserRejectsMalformed) {
  EXPECT_THROW(from_dot("graph g { a; }"), std::runtime_error);
  EXPECT_THROW(from_dot("digraph g { a -> ; }"), std::runtime_error);
  EXPECT_THROW(from_dot("digraph g { a "), std::runtime_error);
  EXPECT_THROW(from_dot("digraph g {} trailing"), std::runtime_error);
}

TEST(Dot, EmptyGraph) {
  graph::PropertyGraph g = from_dot("digraph g { }");
  EXPECT_TRUE(g.empty());
}

}  // namespace
}  // namespace provmark::formats
