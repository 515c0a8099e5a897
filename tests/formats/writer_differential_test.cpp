// The streaming writers (to_prov_json, to_neo4j_json, to_dot) against
// the tree-based reference writers in reference_formats.h: byte-identical
// output on every recorder graph and on graphs built to hit each corner
// of the formats' layout rules.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "formats/detect.h"
#include "formats/dot.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"
#include "reference_formats.h"

namespace provmark::formats {
namespace {

void expect_same_output(const graph::PropertyGraph& g,
                        const std::string& what) {
  EXPECT_EQ(to_prov_json(g), reference::to_prov_json(g)) << what;
  EXPECT_EQ(to_neo4j_json(g), reference::to_neo4j_json(g)) << what;
  EXPECT_EQ(to_dot(g), reference::to_dot(g)) << what;
  EXPECT_EQ(to_dot(g, "spade_provenance"),
            reference::to_dot(g, "spade_provenance"))
      << what;
}

TEST(WriterDifferential, EveryRecorderGraph) {
  int graphs = 0;
  for (const reference::RecorderDocument& doc :
       reference::recorder_documents()) {
    const std::string what = doc.system + " " + doc.program +
                             (doc.foreground ? " fg" : " bg");
    graph::PropertyGraph g;
    try {
      switch (detect_format(doc.text)) {
        case Format::Dot: g = reference::from_dot(doc.text); break;
        case Format::ProvJson: g = reference::from_prov_json(doc.text); break;
        case Format::Neo4jJson:
          g = reference::from_neo4j_json(doc.text);
          break;
        default: FAIL() << what << ": unexpected format";
      }
    } catch (const std::exception&) {
      continue;  // a truncated SPADE flush has no graph
    }
    expect_same_output(g, what);
    ++graphs;
  }
  // 54 programs x 2 variants x 6 recorders, less the truncated flushes.
  EXPECT_GT(graphs, 600);
}

TEST(WriterDifferential, RelationLabelledLikeANodeKindTakesItsSection) {
  graph::PropertyGraph g;
  g.add_node("e1", "entity", {{"k", "v"}});
  g.add_node("a1", "activity");
  g.add_edge("r1", "a1", "e1", "entity", {{"x", "1"}});
  g.add_edge("r2", "e1", "a1", "agent");  // no agent nodes: own section
  g.add_edge("r3", "a1", "e1", "used");
  expect_same_output(g, "node-kind relations");
}

TEST(WriterDifferential, EdgePropertyNamedLikeItsEndpointKey) {
  graph::PropertyGraph g;
  g.add_node("a", "activity");
  g.add_node("e", "entity");
  g.add_edge("u", "a", "e", "used",
             {{"prov:activity", "shadow"}, {"prov:entity", "other"},
              {"prov:time", "1"}});
  g.add_edge("x", "e", "a", "custom", {{"prov:to", "shadow"}, {"z", "2"}});
  g.add_edge("w", "e", "a", "wasGeneratedBy", {{"prov:activity", "s"}});
  expect_same_output(g, "endpoint-named properties");
}

TEST(WriterDifferential, QuotesBackslashesAndControlCharacters) {
  const std::string nasty =
      std::string("q\"b\\s/\b\f\n\r\t\x01\x1f\x7f") + '\0' + "\xc3\xa9\xff";
  graph::PropertyGraph g;
  g.add_node(nasty, "entity", {{nasty, nasty}, {"type", "task"}});
  g.add_node("p" + nasty, nasty, {{"", ""}});
  g.add_node("agent\"", "agent", {{"type", "Agent"}});
  g.add_edge("e" + nasty, nasty, "p" + nasty, nasty, {{nasty, nasty}});
  g.add_edge("e2", "p" + nasty, "agent\"", "used", {{"label", "\"\\"}});
  expect_same_output(g, "escapes");
}

TEST(WriterDifferential, EmptyGraphAndBareNodes) {
  expect_same_output(graph::PropertyGraph{}, "empty graph");
  graph::PropertyGraph g;
  g.add_node("n", "entity");
  g.add_node("m", "");
  g.add_node("o", "Process");
  g.add_edge("e", "n", "m", "");
  expect_same_output(g, "bare nodes");
}

}  // namespace
}  // namespace provmark::formats
