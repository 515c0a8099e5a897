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

/// Each writer on `view` against the same writer on the graph the view
/// describes.
void expect_view_writes_its_graph(const graph::GraphView& view,
                                  const std::string& what) {
  const graph::PropertyGraph g = view.materialize();
  EXPECT_EQ(to_prov_json(view), to_prov_json(g)) << what;
  EXPECT_EQ(to_neo4j_json(view), to_neo4j_json(g)) << what;
  EXPECT_EQ(to_dot(view, "v"), to_dot(g, "v")) << what;
}

TEST(WriterDifferential, ReaderViewsOfEveryRecorderDocument) {
  // The recorders' writers take a GraphView; a view's properties may be
  // out of key order and repeat a key, and every writer must still write
  // what it writes for the materialized graph.
  int views = 0;
  for (const reference::RecorderDocument& doc :
       reference::recorder_documents()) {
    const std::string what = doc.system + " " + doc.program +
                             (doc.foreground ? " fg" : " bg");
    graph::GraphView view;
    try {
      switch (detect_format(doc.text)) {
        case Format::Dot: view = dot_view(doc.text); break;
        case Format::ProvJson: view = prov_json_view(doc.text); break;
        case Format::Neo4jJson: view = neo4j_json_view(doc.text); break;
        default: FAIL() << what << ": unexpected format";
      }
    } catch (const std::exception&) {
      continue;  // a truncated SPADE flush has no graph
    }
    expect_view_writes_its_graph(view, what);
    ++views;
  }
  EXPECT_GT(views, 600);
}

TEST(WriterDifferential, ViewsWithUnorderedAndRepeatedKeys) {
  // A node declared twice merges its attributes in document order; the
  // later `k` wins. Attributes come in no particular key order.
  const std::string dot =
      "digraph g {\n"
      "  a [label=\"activity\", z=\"1\", k=\"old\", type=\"task\"];\n"
      "  b [label=\"entity\", y=\"2\", b=\"3\"];\n"
      "  a [k=\"new\", \"cmd-line\"=\"x\", m=\"4\"];\n"
      "  a -> b [label=\"used\", q=\"1\", prov:entity=\"s\", q=\"2\", "
      "c=\"3\"];\n"
      "  b -> a [label=\"wasGeneratedBy\", z=\"\", a=\"\"];\n"
      "}\n";
  expect_view_writes_its_graph(dot_view(dot), "dot view");
  // A property list longer than the insertion-sort cut-off.
  graph::GraphView view;
  graph::GraphViewBuilder builder(view);
  for (int i = 40; i > 0; --i) {
    view.props.push_back({view.arena.keep("k" + std::to_string(i % 17)),
                          view.arena.keep(std::to_string(i))});
  }
  builder.add_node("n", "entity", 0, 40);
  view.props.push_back({"z", "1"});
  view.props.push_back({"a", "2"});
  builder.add_node("m", "activity", 40, 2);
  builder.add_edge("e", 0, 1, "used", 0, 42);
  expect_view_writes_its_graph(view, "long property list");
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
