#include "formats/neo4j.h"

#include <gtest/gtest.h>

namespace provmark::formats {
namespace {

graph::PropertyGraph sample() {
  graph::PropertyGraph g;
  g.add_node("o1", "Process", {{"pid", "9"}});
  g.add_node("o2", "Global", {{"name", "/tmp/x"}});
  g.add_node("o3", "Local");
  g.add_edge("r1", "o3", "o2", "NAMED");
  g.add_edge("r2", "o3", "o1", "PROC_OBJ", {{"k", "v"}});
  return g;
}

TEST(Neo4j, RoundTrip) {
  graph::PropertyGraph g = sample();
  graph::PropertyGraph back = from_neo4j_json(to_neo4j_json(g));
  EXPECT_EQ(back.node_count(), 3u);
  EXPECT_EQ(back.edge_count(), 2u);
  EXPECT_EQ(back.find_node("o1")->props.at("pid"), "9");
  EXPECT_EQ(back.find_edge("r2")->props.at("k"), "v");
  EXPECT_EQ(back.find_edge("r1")->label, "NAMED");
}

TEST(Neo4j, RejectsMissingNodesArray) {
  EXPECT_THROW(from_neo4j_json("{}"), std::runtime_error);
  EXPECT_THROW(from_neo4j_json(R"({"nodes": 5})"), std::runtime_error);
}

TEST(Neo4j, RejectsDanglingRelationship) {
  const char* text = R"({
    "nodes": [{"id": "a", "labels": ["X"], "properties": {}}],
    "relationships": [{"id": "r", "start": "a", "end": "nope",
                       "type": "T", "properties": {}}]
  })";
  EXPECT_THROW(from_neo4j_json(text), std::invalid_argument);
}

// The store reads its export document in place, so each test keeps the
// document alive as long as the store.

TEST(Neo4jStore, OpenAndExportReproducesGraph) {
  Neo4jStore::Options options;
  options.startup_rounds = 3;
  Neo4jStore store(options);
  const std::string doc = to_neo4j_json(sample());
  store.open(doc);
  EXPECT_EQ(store.node_count(), 3u);
  EXPECT_EQ(store.relationship_count(), 2u);
  graph::PropertyGraph exported = store.export_graph();
  EXPECT_EQ(exported.node_count(), 3u);
  EXPECT_EQ(exported.edge_count(), 2u);
  EXPECT_EQ(exported.find_node("o2")->props.at("name"), "/tmp/x");
}

TEST(Neo4jStore, LabelIndexQuery) {
  Neo4jStore::Options options;
  options.startup_rounds = 1;
  Neo4jStore store(options);
  const std::string doc = to_neo4j_json(sample());
  store.open(doc);
  EXPECT_EQ(store.match_nodes_by_label("Process").size(), 1u);
  EXPECT_EQ(store.match_nodes_by_label("Global").size(), 1u);
  EXPECT_TRUE(store.match_nodes_by_label("Nope").empty());
  EXPECT_EQ(store.match_all_nodes().size(), 3u);
  EXPECT_EQ(store.match_all_relationships().size(), 2u);
}

TEST(Neo4jStore, StartupRoundsScaleWork) {
  // More rounds must not change the result, only the cost.
  Neo4jStore::Options cheap;
  cheap.startup_rounds = 1;
  Neo4jStore::Options expensive;
  expensive.startup_rounds = 50;
  Neo4jStore a(cheap), b(expensive);
  const std::string doc = to_neo4j_json(sample());
  a.open(doc);
  b.open(doc);
  EXPECT_EQ(a.export_graph(), b.export_graph());
}

TEST(Neo4jStore, ZeroStartupRoundsExportsTheSameGraphAsOne) {
  // The label index is built at least once: with no modeled startup
  // rounds the store still answers every query.
  Neo4jStore::Options none;
  none.startup_rounds = 0;
  Neo4jStore::Options one;
  one.startup_rounds = 1;
  Neo4jStore a(none), b(one);
  const std::string doc = to_neo4j_json(sample());
  a.open(doc);
  b.open(doc);
  EXPECT_EQ(a.node_count(), 3u);
  EXPECT_EQ(a.match_all_nodes().size(), 3u);
  EXPECT_EQ(a.match_nodes_by_label("Local").size(), 1u);
  EXPECT_EQ(a.export_graph(), b.export_graph());
  EXPECT_EQ(a.export_graph().edge_count(), 2u);
}

TEST(Neo4jStore, ExportsNodesInLabelIndexOrder) {
  // MATCH (n) RETURN n walks the label index: labels ascending, ids
  // ascending within a label; relationships keep document order.
  graph::PropertyGraph g;
  g.add_node("z", "B");
  g.add_node("y", "A", {{"k", "1"}});
  g.add_node("x", "B");
  g.add_node("w", "A");
  g.add_edge("r2", "z", "y", "T");
  g.add_edge("r1", "w", "x", "T", {{"p", "q"}});
  Neo4jStore store(Neo4jStore::Options{1});
  const std::string doc = to_neo4j_json(g);
  store.open(doc);
  graph::PropertyGraph expected;
  expected.add_node("w", "A");
  expected.add_node("y", "A", {{"k", "1"}});
  expected.add_node("x", "B");
  expected.add_node("z", "B");
  expected.add_edge("r2", "z", "y", "T");
  expected.add_edge("r1", "w", "x", "T", {{"p", "q"}});
  EXPECT_EQ(store.export_graph(), expected);
  EXPECT_EQ(store.view().materialize(), expected);
  std::vector<graph::Node> b_nodes = store.match_nodes_by_label("B");
  ASSERT_EQ(b_nodes.size(), 2u);
  EXPECT_EQ(b_nodes[0].id, "x");
  EXPECT_EQ(b_nodes[1].id, "z");
}

}  // namespace
}  // namespace provmark::formats
