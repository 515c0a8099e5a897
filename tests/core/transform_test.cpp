#include "core/transform.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "datalog/fact_io.h"
#include "formats/detect.h"
#include "formats/dot.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"

namespace provmark::core {
namespace {

graph::PropertyGraph sample() {
  graph::PropertyGraph g;
  g.add_node("a", "activity", {{"prov:type", "task"}});
  g.add_node("b", "entity", {{"prov:type", "inode_file"}});
  g.add_edge("e", "a", "b", "used");
  return g;
}

TEST(Transform, DotInput) {
  graph::PropertyGraph g;
  g.add_node("v1", "Process");
  graph::PropertyGraph out = transform_native(formats::to_dot(g));
  EXPECT_EQ(out.node_count(), 1u);
}

TEST(Transform, ProvJsonInput) {
  graph::PropertyGraph out =
      transform_native(formats::to_prov_json(sample()));
  EXPECT_EQ(out.node_count(), 2u);
  EXPECT_EQ(out.edge_count(), 1u);
}

TEST(Transform, Neo4jInputGoesThroughStore) {
  TransformOptions options;
  options.neo4j_startup_rounds = 2;
  graph::PropertyGraph out =
      transform_native(formats::to_neo4j_json(sample()), options);
  EXPECT_EQ(out.node_count(), 2u);
  EXPECT_EQ(out.edge_count(), 1u);
}

TEST(Transform, ToDatalogUsesGid) {
  std::string text =
      transform_to_datalog(formats::to_prov_json(sample()), "fg1");
  EXPECT_NE(text.find("nfg1("), std::string::npos);
  EXPECT_NE(text.find("efg1("), std::string::npos);
  graph::PropertyGraph round =
      datalog::single_graph_from_datalog(text, "fg1");
  EXPECT_EQ(round.node_count(), 2u);
}

TEST(Transform, RejectsGarbage) {
  EXPECT_THROW(transform_native("not a known format"), std::runtime_error);
}

TEST(Transform, PreservesPropertiesEndToEnd) {
  graph::PropertyGraph out =
      transform_native(formats::to_prov_json(sample()));
  EXPECT_EQ(out.find_node("b")->props.at("prov:type"), "inode_file");
}

/// What read_native gives `text` by detecting its format first: the
/// store for what detect_format takes for a Neo4j export, view_as for
/// anything else. Returns the view materialized, or nullopt with the
/// error message in `error`.
std::optional<graph::PropertyGraph> read_by_detection(
    std::string_view text, const TransformOptions& options,
    std::string& error) {
  try {
    const formats::Format format = formats::detect_format(text);
    if (format != formats::Format::Neo4jJson) {
      return formats::view_as(format, text).materialize();
    }
    formats::Neo4jStore::Options store_options;
    store_options.startup_rounds = options.neo4j_startup_rounds;
    formats::Neo4jStore store(store_options);
    store.open(text);
    return store.view().materialize();
  } catch (const std::exception& e) {
    error = e.what();
    return std::nullopt;
  }
}

TEST(Transform, DocumentsThatNameAnExportKeyFirstReadAsDetected) {
  // read_native sends a document whose first key is `nodes` or
  // `relationships` straight to the store; every such document must
  // still read to what detection gives it, or throw the same error.
  TransformOptions options;
  options.neo4j_startup_rounds = 2;
  const std::string node_a =
      R"({"id": "a", "labels": ["activity"], "properties": {"k": "v"}})";
  const std::string node_b = R"({"id": "b", "labels": ["entity"]})";
  const std::string rel =
      R"({"id": "e", "start": "a", "end": "b", "type": "used"})";
  const std::vector<std::string> documents = {
      formats::to_neo4j_json(sample()),
      // Relationships first.
      R"({"relationships": [)" + rel + R"(], "nodes": [)" + node_a + ", " +
          node_b + "]}",
      // Nodes but no relationships.
      R"({"nodes": [)" + node_a + "]}",
      // A `nodes` value that is an object: a PROV-JSON relation section.
      R"({"nodes": {"r": {"prov:from": "a", "prov:to": "b"}},)"
      R"( "entity": {"a": {}, "b": {}}})",
      // Both keys, but `nodes` is no array.
      R"({"nodes": {}, "relationships": []})",
      // Malformed after the first key.
      R"({"nodes": [)" + node_a,
      "  \n" + formats::to_neo4j_json(sample()),
  };
  for (const std::string& text : documents) {
    std::string expected_error;
    const std::optional<graph::PropertyGraph> expected =
        read_by_detection(text, options, expected_error);
    std::optional<graph::PropertyGraph> got;
    std::string error;
    try {
      got = transform_native(text, options);
    } catch (const std::exception& e) {
      error = e.what();
    }
    EXPECT_EQ(got.has_value(), expected.has_value()) << text;
    EXPECT_EQ(error, expected_error) << text;
    if (got.has_value() && expected.has_value()) {
      EXPECT_TRUE(*got == *expected) << text;
      ASSERT_EQ(got->node_count(), expected->node_count()) << text;
      for (std::size_t i = 0; i < got->node_count(); ++i) {
        EXPECT_EQ(got->nodes()[i].id, expected->nodes()[i].id) << text;
      }
    }
  }
}

}  // namespace
}  // namespace provmark::core
