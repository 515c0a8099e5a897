#include "formats/detect.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/transform.h"
#include "datalog/fact_io.h"
#include "formats/dot.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"

namespace provmark::formats {
namespace {

graph::PropertyGraph tiny() {
  graph::PropertyGraph g;
  g.add_node("a", "entity");
  return g;
}

TEST(Detect, Dot) {
  EXPECT_EQ(detect_format("digraph g { }"), Format::Dot);
  EXPECT_EQ(detect_format("  \n digraph provenance {}"), Format::Dot);
}

TEST(Detect, ProvJsonVsNeo4j) {
  EXPECT_EQ(detect_format(to_prov_json(tiny())), Format::ProvJson);
  EXPECT_EQ(detect_format(to_neo4j_json(tiny())), Format::Neo4jJson);
}

// Only top-level keys decide: a PROV-JSON document that mentions
// "nodes" and "relationships" as property names or values is PROV-JSON.
TEST(Detect, ProvJsonMentioningNeo4jKeysIsProvJson) {
  graph::PropertyGraph g;
  g.add_node("a", "entity", {{"nodes", "relationships"}});
  g.add_node("b", "entity", {{"k", "nodes"}, {"relationships", "x"}});
  g.add_edge("r", "a", "b", "wasDerivedFrom", {{"v", "relationships"}});
  const std::string doc = to_prov_json(g);
  EXPECT_EQ(detect_format(doc), Format::ProvJson);
  EXPECT_EQ(parse_any(doc), g);
}

TEST(Detect, Neo4jByTopLevelKeysInAnyOrder) {
  EXPECT_EQ(detect_format(R"({"meta": {}, "relationships": [], "nodes": []})"),
            Format::Neo4jJson);
  EXPECT_EQ(detect_format(R"({"nodes": []})"), Format::ProvJson);
  EXPECT_EQ(detect_format(R"({"x": {"nodes": [], "relationships": []}})"),
            Format::ProvJson);
  // Detection stops once both keys are read; JSON that breaks before
  // then reads as PROV-JSON, whose reader rejects it.
  EXPECT_EQ(detect_format(R"({"nodes": [], "relationships": [)"),
            Format::Neo4jJson);
  EXPECT_EQ(detect_format(R"({"nodes": [, "relationships": []})"),
            Format::ProvJson);
}

/// transform_native must land where detect_format -> parse_as lands:
/// both throw, or both read the same graph.
void expect_transform_matches_detection(const std::string& doc) {
  std::optional<graph::PropertyGraph> detected, transformed;
  try {
    detected = parse_any(doc);
  } catch (const std::exception&) {
  }
  try {
    core::TransformOptions options;
    options.neo4j_startup_rounds = 1;
    transformed = core::transform_native(doc, options);
  } catch (const std::exception&) {
  }
  EXPECT_EQ(detected.has_value(), transformed.has_value()) << doc;
  if (detected && transformed) {
    EXPECT_EQ(*detected, *transformed) << doc;
  }
}

// transform_native reads a JSON document as PROV-JSON first and keeps
// that read only when detection would have chosen PROV-JSON too.
TEST(Detect, ProvJsonWithObjectNodesAndRelationshipsIsAnExport) {
  const std::string doc =
      R"({"entity": {"e": {}}, "nodes": {}, "relationships": {}})";
  EXPECT_EQ(detect_format(doc), Format::Neo4jJson);
  EXPECT_NO_THROW(from_prov_json(doc));  // a valid PROV-JSON document
  EXPECT_THROW(parse_any(doc), std::runtime_error);
  expect_transform_matches_detection(doc);
  // One of the two keys alone leaves it PROV-JSON.
  expect_transform_matches_detection(
      R"({"entity": {"e": {}}, "nodes": {}})");
}

TEST(Detect, TruncatedNeo4jExport) {
  const std::string doc = to_neo4j_json(tiny());
  for (std::size_t cut : {doc.size() / 3, doc.size() / 2, doc.size() - 2}) {
    expect_transform_matches_detection(doc.substr(0, cut));
  }
  expect_transform_matches_detection(doc);
  EXPECT_EQ(core::transform_native(doc).node_count(), 1u);
}

TEST(Detect, Datalog) {
  EXPECT_EQ(detect_format("ng(a,\"X\").\n"), Format::Datalog);
  EXPECT_EQ(detect_format("% comment\nng(a,\"X\").\n"), Format::Datalog);
}

TEST(Detect, Unknown) {
  EXPECT_EQ(detect_format("<xml/>"), Format::Unknown);
  EXPECT_STREQ(format_name(Format::Unknown), "unknown");
}

TEST(ParseAny, AllFormats) {
  EXPECT_EQ(parse_any(to_dot(tiny())).node_count(), 1u);
  EXPECT_EQ(parse_any(to_prov_json(tiny())).node_count(), 1u);
  EXPECT_EQ(parse_any(to_neo4j_json(tiny())).node_count(), 1u);
  EXPECT_EQ(parse_any(datalog::to_datalog(tiny(), "g")).node_count(), 1u);
}

TEST(ParseAny, RejectsUnknown) {
  EXPECT_THROW(parse_any("garbage"), std::runtime_error);
}

TEST(ParseAny, RejectsMultiGraphDatalog) {
  std::string two = datalog::to_datalog(tiny(), "a") +
                    datalog::to_datalog(tiny(), "b");
  EXPECT_THROW(parse_any(two), std::runtime_error);
}

}  // namespace
}  // namespace provmark::formats
