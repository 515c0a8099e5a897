// One builder, two routes: the compact graph a reader's GraphView interns
// to must equal the one built from the PropertyGraph that view
// materializes (from_dot, from_prov_json, from_neo4j_json), compared as
// strings: ids, labels, properties, endpoints, CSR rows, label buckets,
// the structural digest and the matcher's per-graph invariants. The view
// reader must throw exactly when the from_* reader throws.
//
// Corpus: every round-0 trial document of the native-golden cells (the
// 54 Table-1 programs on all six recorders plus the generated
// gen_matcher programs) at seed 42, and hand-written documents for the
// readers' corner cases.
#include "graph/graph_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_suite/executor.h"
#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "core/transform.h"
#include "formats/detect.h"
#include "formats/dot.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"
#include "graph/algorithms.h"
#include "graph/compact.h"
#include "matcher/interned.h"
#include "runtime/thread_pool.h"
#include "systems/recorder.h"

namespace provmark::graph {
namespace {

using StringProps = std::vector<std::pair<std::string, std::string>>;

/// A compact graph with every symbol resolved.
struct Resolved {
  std::vector<std::string> node_id, node_label, edge_id, edge_label;
  std::vector<StringProps> node_props, edge_props;
  std::vector<std::uint32_t> edge_src, edge_tgt;
  std::vector<std::uint32_t> out_offsets, out_edges, in_offsets, in_edges;
  std::map<std::string, std::vector<std::uint32_t>> label_buckets;
  std::uint64_t digest = 0;
  // Matcher invariants of the interned graph.
  std::map<std::string, std::uint32_t> node_label_counts, edge_label_counts;
  std::vector<std::uint64_t> wl2;
  std::vector<std::uint32_t> colour_class_size;
  std::uint64_t interned_digest = 0;

  bool operator==(const Resolved&) const = default;
};

Resolved resolve(const matcher::InternedGraph& interned) {
  const CompactGraph& g = interned.g;
  const SymbolTable& symbols = *g.symbols;
  Resolved out;
  auto props = [&symbols](CompactProps p) {
    StringProps s;
    for (const auto& [k, v] : p) {
      s.emplace_back(symbols.resolve(k), symbols.resolve(v));
    }
    std::sort(s.begin(), s.end());
    return s;
  };
  for (std::uint32_t v = 0; v < g.node_count(); ++v) {
    out.node_id.emplace_back(g.node_id[v]);
    out.node_label.push_back(symbols.resolve(g.node_label[v]));
    out.node_props.push_back(props(g.node_props(v)));
  }
  for (std::uint32_t e = 0; e < g.edge_count(); ++e) {
    out.edge_id.emplace_back(g.edge_id[e]);
    out.edge_label.push_back(symbols.resolve(g.edge_label[e]));
    out.edge_props.push_back(props(g.edge_props(e)));
  }
  out.edge_src.assign(g.edge_src.begin(), g.edge_src.end());
  out.edge_tgt.assign(g.edge_tgt.begin(), g.edge_tgt.end());
  out.out_offsets.assign(g.out_offsets.begin(), g.out_offsets.end());
  out.out_edges.assign(g.out_edges.begin(), g.out_edges.end());
  out.in_offsets.assign(g.in_offsets.begin(), g.in_offsets.end());
  out.in_edges.assign(g.in_edges.begin(), g.in_edges.end());
  for (Symbol label : g.bucket_label) {
    std::span<const std::uint32_t> bucket = g.label_bucket(label);
    out.label_buckets[symbols.resolve(label)].assign(bucket.begin(),
                                                     bucket.end());
  }
  out.digest = structural_digest(g, compact_wl_colours(g, kDigestWlRounds));
  for (const auto& [label, count] : interned.node_label_counts) {
    out.node_label_counts[symbols.resolve(label)] = count;
  }
  for (const auto& [label, count] : interned.edge_label_counts) {
    out.edge_label_counts[symbols.resolve(label)] = count;
  }
  out.wl2.assign(interned.wl2.begin(), interned.wl2.end());
  out.colour_class_size.assign(interned.colour_class_size.begin(),
                               interned.colour_class_size.end());
  out.interned_digest = interned.structural_digest();
  return out;
}

/// "" when the interned graph's edge groups equal their definition: one
/// group per (src, tgt, label), numbered by first appearance in edge
/// order, edges ascending, the pair's first group its representative,
/// and the per-node and per-pair tables listing exactly those groups.
std::string group_error(const matcher::InternedGraph& interned) {
  const CompactGraph& g = interned.g;
  struct Expected {
    std::uint32_t src, tgt;
    Symbol label;
    bool representative;
    std::vector<std::uint32_t> edges;
  };
  std::vector<Expected> expected;
  std::map<std::tuple<std::uint32_t, std::uint32_t, Symbol>, std::size_t> by_key;
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t e = 0; e < g.edge_count(); ++e) {
    auto key = std::make_tuple(g.edge_src[e], g.edge_tgt[e], g.edge_label[e]);
    auto [it, fresh] = by_key.emplace(key, expected.size());
    if (fresh) {
      const bool first_of_pair =
          pairs.insert({g.edge_src[e], g.edge_tgt[e]}).second;
      expected.push_back(
          {g.edge_src[e], g.edge_tgt[e], g.edge_label[e], first_of_pair, {}});
    }
    expected[it->second].edges.push_back(e);
  }
  if (interned.groups.size() != expected.size()) return "group count";
  for (std::size_t gi = 0; gi < expected.size(); ++gi) {
    const matcher::EdgeGroup& group = interned.groups[gi];
    const Expected& want = expected[gi];
    std::span<const std::uint32_t> edges = interned.edges_of(group);
    if (group.src != want.src || group.tgt != want.tgt ||
        group.label != want.label ||
        group.pair_representative != want.representative ||
        !std::equal(edges.begin(), edges.end(), want.edges.begin(),
                    want.edges.end())) {
      return "edge group " + std::to_string(gi);
    }
    std::span<const std::uint32_t> found =
        interned.group_edges(want.src, want.tgt, want.label);
    if (found.data() != edges.data() || found.size() != edges.size()) {
      return "group lookup " + std::to_string(gi);
    }
  }
  for (const auto& [s, t] : pairs) {
    std::set<std::uint32_t> listed;
    for (std::uint32_t gi : interned.pair_groups(s, t)) listed.insert(gi);
    std::set<std::uint32_t> want;
    for (std::size_t gi = 0; gi < expected.size(); ++gi) {
      if (expected[gi].src == s && expected[gi].tgt == t) {
        want.insert(static_cast<std::uint32_t>(gi));
      }
    }
    if (listed != want) return "pair groups";
  }
  for (std::uint32_t v = 0; v < g.node_count(); ++v) {
    std::vector<std::uint32_t> want;
    for (std::size_t gi = 0; gi < expected.size(); ++gi) {
      if (expected[gi].src == v || expected[gi].tgt == v) {
        want.push_back(static_cast<std::uint32_t>(gi));
      }
    }
    std::span<const std::uint32_t> listed = interned.groups_of_node(v);
    if (!std::equal(listed.begin(), listed.end(), want.begin(), want.end())) {
      return "groups of node " + std::to_string(v);
    }
    if (interned.pair_groups(v, v).empty() !=
        (pairs.count({v, v}) == 0)) {
      return "self-loop pair of node " + std::to_string(v);
    }
  }
  return "";
}

/// "" when the interned graph's precomputed matcher invariants equal
/// their definitions, else which one does not.
std::string invariant_error(const matcher::InternedGraph& interned) {
  const CompactGraph& g = interned.g;
  auto histogram = [](std::span<const Symbol> in) {
    std::vector<Symbol> labels(in.begin(), in.end());
    std::sort(labels.begin(), labels.end());
    std::pmr::vector<std::pair<Symbol, std::uint32_t>> out;
    for (Symbol label : labels) {
      if (out.empty() || out.back().first != label) out.emplace_back(label, 0);
      ++out.back().second;
    }
    return out;
  };
  if (interned.node_label_counts != histogram(g.node_label)) {
    return "node label histogram";
  }
  if (interned.edge_label_counts != histogram(g.edge_label)) {
    return "edge label histogram";
  }
  if (!std::ranges::equal(interned.wl2, compact_wl_colours(g, 2))) {
    return "2-round WL colours";
  }
  for (std::size_t v = 0; v < interned.wl2.size(); ++v) {
    const auto members = std::count(interned.wl2.begin(), interned.wl2.end(),
                                    interned.wl2[v]);
    if (interned.colour_class_size[v] != static_cast<std::uint32_t>(members)) {
      return "colour class size";
    }
  }
  if (interned.structural_digest() !=
      structural_digest(g, compact_wl_colours(g, kDigestWlRounds))) {
    return "digest";
  }
  return group_error(interned);
}

using ViewReader = std::function<GraphView(std::string_view)>;
using GraphReader = std::function<PropertyGraph(std::string_view)>;

struct Route {
  const char* name;
  ViewReader view;
  GraphReader graph;
};

const Route kDot{"dot",
                 [](std::string_view t) { return formats::dot_view(t); },
                 formats::from_dot};
const Route kProvJson{
    "prov-json",
    [](std::string_view t) { return formats::prov_json_view(t); },
    formats::from_prov_json};
const Route kNeo4j{
    "neo4j-json",
    [](std::string_view t) { return formats::neo4j_json_view(t); },
    formats::from_neo4j_json};
/// The pipeline's route: read_native (PROV-JSON first, Neo4j through the
/// store) against transform_native.
const Route kNative{
    "native",
    [](std::string_view t) {
      core::TransformOptions options;
      options.neo4j_startup_rounds = 1;
      return core::read_native(t, options);
    },
    [](std::string_view t) {
      core::TransformOptions options;
      options.neo4j_startup_rounds = 1;
      return core::transform_native(t, options);
    }};

/// "" when both routes of `route` agree on `text`, else what differs.
std::string disagreement(const Route& route, std::string_view text) {
  std::optional<GraphView> view;
  std::optional<PropertyGraph> graph;
  std::string view_error, graph_error;
  try {
    view = route.view(text);
  } catch (const std::exception& e) {
    view_error = e.what();
  }
  try {
    graph = route.graph(text);
  } catch (const std::exception& e) {
    graph_error = e.what();
  }
  if (view.has_value() != graph.has_value()) {
    return std::string(route.name) + ": the view reader " +
           (view ? "accepted" : "rejected") + " what the graph reader " +
           (graph ? "accepted" : "rejected") + " (" + view_error +
           graph_error + ")";
  }
  if (!view) return "";
  if (!(view->materialize() == *graph)) {
    return std::string(route.name) + ": the view materializes another graph";
  }
  SymbolTable from_view_symbols, from_graph_symbols;
  matcher::InternedGraph from_view(*view, from_view_symbols);
  from_view.g.intern_properties(*view, from_view_symbols);
  matcher::InternedGraph from_graph(*graph, from_graph_symbols);
  if (std::string e = invariant_error(from_view); !e.empty()) {
    return std::string(route.name) + ": wrong interned " + e;
  }
  Resolved a = resolve(from_view);
  Resolved b = resolve(from_graph);
  if (!(a == b)) {
    return std::string(route.name) + ": the compact graphs differ";
  }
  if (a.digest != structural_digest(*graph)) {
    return std::string(route.name) + ": digest differs from the string graph";
  }
  return "";
}

std::vector<const Route*> routes_for(std::string_view text) {
  if (formats::detect_format(text) == formats::Format::Dot) {
    return {&kDot, &kNative};
  }
  return {&kProvJson, &kNeo4j, &kNative};
}

struct Cell {
  std::string system;
  std::string program;
};

std::vector<Cell> golden_cells() {
  std::vector<Cell> cells;
  for (const bench_suite::BenchmarkProgram& program :
       bench_suite::table_benchmarks()) {
    for (const char* system :
         {"spade", "opus", "camflow", "spade-camflow", "audit", "ebpf"}) {
      cells.push_back({system, program.name});
    }
  }
  const std::pair<const char*, int> generated[] = {
      {"audit", 12}, {"opus", 16}, {"camflow", 32}};
  for (const auto& [system, scale] : generated) {
    for (int g = 1; g <= 20; ++g) {
      cells.push_back({system, "gen" + std::to_string(g) + "x" +
                                   std::to_string(scale)});
    }
  }
  return cells;
}

/// Every disagreement over one cell's round-0 documents at seed 42.
std::string check_cell(const Cell& cell) {
  const bench_suite::BenchmarkProgram& program =
      bench_suite::benchmark_by_name(cell.program);
  std::unique_ptr<systems::Recorder> recorder =
      systems::make_recorder(cell.system);
  const int trials = core::default_trials(recorder->name());
  std::string failures;
  for (bool foreground : {false, true}) {
    for (int i = 0; i < trials; ++i) {
      const std::uint64_t seed =
          core::trial_seed(42, program.name, foreground, i);
      bench_suite::ExecutionResult run = bench_suite::execute_program(
          program, foreground, seed, recorder->extra_audit_rules());
      const std::string doc = recorder->record(
          run.trace, systems::TrialContext{seed ^ 0xC0FFEEULL});
      for (const Route* route : routes_for(doc)) {
        std::string d = disagreement(*route, doc);
        if (!d.empty()) {
          failures += cell.system + " " + cell.program +
                      (foreground ? " fg " : " bg ") + std::to_string(i) +
                      ": " + d + "\n";
        }
      }
    }
  }
  return failures;
}

TEST(GraphView, EveryGoldenCellsRoundZeroDocuments) {
  const std::vector<Cell> cells = golden_cells();
  ASSERT_EQ(cells.size(), 384u);
  const std::vector<std::string> failures =
      runtime::default_pool().parallel_map<std::string>(
          cells, [](const Cell& cell, std::size_t) { return check_cell(cell); });
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

void expect_routes_agree(const std::vector<std::string>& docs) {
  for (const std::string& doc : docs) {
    for (const Route* route : routes_for(doc)) {
      EXPECT_EQ(disagreement(*route, doc), "") << doc;
    }
  }
}

TEST(GraphView, JsonEscapesInIdsKeysAndValues) {
  expect_routes_agree({
      R"({"entity": {"e\"1": {"k\u0041y": "v\"\\é😀"}},
          "activity": {"a1": {"t\n": "x\/y"}},
          "used": {"r\t": {"prov:activity": "a1", "prov:entity": "e\"1",
                                "q": "\u0000"}}})",
      R"({"nodes": [{"id": "n\"1", "labels": ["Lé"],
                     "properties": {"k\\ey": "v\""}},
                    {"id": "n2", "labels": ["Lé"], "properties": {}}],
          "relationships": [{"id": "r1", "start": "n\"1", "end": "n2",
                             "type": "TT", "properties": {"a": "\/"}}]})",
  });
}

TEST(GraphView, RepeatedKeysAndNonStringValues) {
  expect_routes_agree({
      R"({"entity": {"e": {"k": "1", "k": "2", "n": 12.5e1, "b": true,
                           "z": null, "arr": [1, {"x": "y"}], "o": {}}},
          "activity": {"a": {"k": "1"}},
          "used": {"r": {"prov:activity": "a", "prov:entity": "e",
                         "prov:activity": 7, "k": "x", "k": "y",
                         "n": -0.5}}})",
      R"({"nodes": [{"id": "a", "labels": ["A"],
                     "properties": {"k": "1", "k": 2, "o": {"p": [true]}}},
                    {"id": "b", "labels": ["B"], "properties": 4}],
          "relationships": [{"id": "r", "start": "a", "end": "b",
                             "type": "T", "properties": {"x": null,
                                                         "x": "last"}}]})",
  });
}

TEST(GraphView, EdgesBeforeTheirNodes) {
  expect_routes_agree({
      R"({"wasGeneratedBy": {"g": {"prov:entity": "e",
                                   "prov:activity": "a"}},
          "used": {"u": {"prov:activity": "a", "prov:entity": "e"}},
          "entity": {"e": {}}, "activity": {"a": {}}})",
      R"({"used": {"u": {"prov:activity": "a", "prov:entity": "missing"}},
          "activity": {"a": {}}})",
      R"({"relationships": [{"id": "r", "start": "b", "end": "a",
                             "type": "T"},
                            {"id": "s", "start": "a", "end": "a",
                             "type": "U"}],
          "nodes": [{"id": "a", "labels": ["A"]},
                    {"id": "b", "labels": ["B"]}]})",
      R"({"relationships": [{"id": "a", "start": "a", "end": "a",
                             "type": "T"}],
          "nodes": [{"id": "a", "labels": ["A"]}]})",
  });
}

TEST(GraphView, DotNodeUsedBeforeItsDeclarationThenMerged) {
  expect_routes_agree({
      "digraph g {\n"
      "  a -> b [label=\"used\", shape=\"box\", k=\"1\", k=\"2\"];\n"
      "  b [label=\"Artifact\", shape=\"ellipse\", path=\"/x\", t=\"1\"];\n"
      "  a [label=\"Process\"];\n"
      "  b [t=\"2\", label=\"Artifact2\", label=\"Artifact3\"];\n"
      "  \"c \\\"q\\\" \\\\\" -> a;\n"
      "  a [];\n"
      "}\n",
  });
}

TEST(GraphView, DotNodeNamedLikeASyntheticEdgeId) {
  // "dot_e0" is the first edge's id: declaring a node by that name before
  // or after the first edge is an id clash, on both routes.
  const std::vector<std::string> docs = {
      "digraph g { dot_e0; a -> b; }",
      "digraph g { a -> b; dot_e0; }",
      "digraph g { a -> b; dot_e0 -> a; }",
      "digraph g { dot_e1; a -> b; }",
      "digraph g { a -> b; dot_e1 -> a; }",
  };
  expect_routes_agree(docs);
  EXPECT_THROW(formats::dot_view(docs[0]), std::invalid_argument);
  EXPECT_THROW(formats::dot_view(docs[1]), std::invalid_argument);
  EXPECT_THROW(formats::dot_view(docs[2]), std::invalid_argument);
  EXPECT_NO_THROW(formats::dot_view(docs[3]));
  EXPECT_THROW(formats::dot_view(docs[4]), std::invalid_argument);
}

TEST(GraphView, EmptyGraphs) {
  expect_routes_agree({"{}", "digraph g { }",
                       R"({"nodes": [], "relationships": []})",
                       R"({"entity": {}, "prefix": {}})"});
  GraphView view = formats::prov_json_view("{}");
  EXPECT_TRUE(view.nodes.empty());
  EXPECT_TRUE(view.edges.empty());
}

TEST(GraphView, ShortDocumentsSurviveTheViewMovingAround) {
  // A view points into its document (or its arena for decoded strings);
  // moving the view moves neither.
  const std::string doc = R"({"entity": {"e": {"k": 1}}})";
  std::vector<GraphView> views;
  for (int i = 0; i < 40; ++i) views.push_back(formats::prov_json_view(doc));
  for (const GraphView& view : views) {
    ASSERT_EQ(view.nodes.size(), 1u);
    EXPECT_EQ(view.nodes[0].id, "e");
    EXPECT_EQ(view.props_of(view.nodes[0])[0].value, "1");
  }
}

TEST(GraphView, ViewOfAPropertyGraphRoundTrips) {
  PropertyGraph g;
  g.add_node("a", "Process", {{"pid", "1"}, {"name", "sh"}});
  g.add_node("b", "Artifact");
  g.add_edge("e", "a", "b", "Used", {{"op", "read"}});
  g.add_edge("f", "b", "b", "Loop");
  EXPECT_EQ(view_of(g).materialize(), g);
  EXPECT_EQ(copy_of(g).materialize(), g);
}

TEST(GraphViewBuilder, ChecksIdsLikeAPropertyGraph) {
  GraphView view;
  GraphViewBuilder builder(view);
  builder.add_node("a", "A", 0, 0);
  builder.add_node("b", "B", 0, 0);
  EXPECT_THROW(builder.add_node("a", "A", 0, 0), std::invalid_argument);
  builder.add_edge("e", std::string_view("a"), std::string_view("b"), "T", 0,
                   0);
  EXPECT_THROW(builder.add_node("e", "A", 0, 0), std::invalid_argument);
  EXPECT_THROW(builder.add_edge("a", 0u, 1u, "T", 0, 0),
               std::invalid_argument);
  EXPECT_THROW(builder.add_edge("f", std::string_view("a"),
                                std::string_view("zz"), "T", 0, 0),
               std::invalid_argument);
  EXPECT_EQ(builder.find_node("b"), 1u);
  EXPECT_EQ(builder.find_node("e"), GraphViewBuilder::kNoNode);
  // Enough ids to grow the table several times.
  std::vector<std::string> ids;
  for (int i = 0; i < 500; ++i) ids.push_back("n" + std::to_string(i));
  for (const std::string& id : ids) builder.add_node(id, "N", 0, 0);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(builder.find_node(ids[static_cast<std::size_t>(i)]),
              static_cast<std::uint32_t>(i + 2));
  }
  EXPECT_EQ(view.nodes.size(), 502u);
  EXPECT_EQ(view.edges.size(), 1u);
}

}  // namespace
}  // namespace provmark::graph
