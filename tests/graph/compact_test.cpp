// Tests for the interned CompactGraph layer: symbol round-trips, CSR
// adjacency cross-checked against the naive PropertyGraph scans, merge
// cost cross-checked against the map-based definition, and WL colour
// equality with graph::wl_colours.
#include "graph/compact.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "graph/algorithms.h"
#include "graph/property_graph.h"
#include "util/rng.h"

namespace provmark::graph {
namespace {

PropertyGraph random_graph(int nodes, int edges, util::Rng& rng) {
  static const char* kNodeLabels[] = {"Process", "Artifact", "Agent"};
  static const char* kEdgeLabels[] = {"Used", "WasGeneratedBy", "Was"};
  static const char* kKeys[] = {"pid", "path", "time", "op"};
  PropertyGraph g;
  for (int i = 0; i < nodes; ++i) {
    Properties props;
    int prop_count = static_cast<int>(rng.next_below(4));
    for (int p = 0; p < prop_count; ++p) {
      props[kKeys[rng.next_below(4)]] = std::to_string(rng.next_below(6));
    }
    g.add_node("n" + std::to_string(i), kNodeLabels[rng.next_below(3)],
               std::move(props));
  }
  for (int i = 0; i < edges; ++i) {
    g.add_edge("e" + std::to_string(i),
               "n" + std::to_string(
                         rng.next_below(static_cast<std::uint64_t>(nodes))),
               "n" + std::to_string(
                         rng.next_below(static_cast<std::uint64_t>(nodes))),
               kEdgeLabels[rng.next_below(3)]);
  }
  return g;
}

TEST(SymbolTable, InternResolveRoundTrip) {
  SymbolTable table;
  Symbol a = table.intern("Process");
  Symbol b = table.intern("Artifact");
  Symbol a2 = table.intern("Process");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.resolve(a), "Process");
  EXPECT_EQ(table.resolve(b), "Artifact");
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTable, LookupDoesNotCreate) {
  SymbolTable table;
  EXPECT_EQ(table.lookup("missing"), kNoSymbol);
  EXPECT_EQ(table.size(), 0u);
  Symbol a = table.intern("present");
  EXPECT_EQ(table.lookup("present"), a);
}

TEST(SymbolTable, HashMatchesStableHash) {
  SymbolTable table;
  Symbol a = table.intern("WasGeneratedBy");
  EXPECT_EQ(table.hash(a), util::stable_hash("WasGeneratedBy"));
}

TEST(SymbolTable, ManySymbolsStayStable) {
  // The deque backing must keep resolve() references valid across growth.
  SymbolTable table;
  std::vector<Symbol> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(table.intern("sym" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(table.resolve(ids[static_cast<std::size_t>(i)]),
              "sym" + std::to_string(i));
  }
}

TEST(CompactProps, MismatchAgreesWithMapDefinition) {
  // Cross-check the merge against the obvious map-based computation on
  // random property sets.
  util::Rng rng(7);
  SymbolTable table;
  for (int round = 0; round < 200; ++round) {
    Properties pa, pb;
    for (int k = 0; k < 5; ++k) {
      if (rng.chance(0.5)) {
        pa["k" + std::to_string(k)] = std::to_string(rng.next_below(3));
      }
      if (rng.chance(0.5)) {
        pb["k" + std::to_string(k)] = std::to_string(rng.next_below(3));
      }
    }
    // Naive one-sided count.
    int expected_ab = 0, expected_ba = 0;
    for (const auto& [k, v] : pa) {
      auto it = pb.find(k);
      if (it == pb.end() || it->second != v) ++expected_ab;
    }
    for (const auto& [k, v] : pb) {
      auto it = pa.find(k);
      if (it == pa.end() || it->second != v) ++expected_ba;
    }
    // Compact versions (reuse CompactGraph::build via two one-node graphs
    // would work too, but interning directly keeps the test focused).
    std::vector<CompactProp> ca, cb;
    for (const auto& [k, v] : pa) {
      ca.emplace_back(table.intern(k), table.intern(v));
    }
    for (const auto& [k, v] : pb) {
      cb.emplace_back(table.intern(k), table.intern(v));
    }
    std::sort(ca.begin(), ca.end());
    std::sort(cb.begin(), cb.end());
    EXPECT_EQ(one_sided_mismatch(ca, cb), expected_ab);
    EXPECT_EQ(one_sided_mismatch(cb, ca), expected_ba);
    EXPECT_EQ(symmetric_mismatch(ca, cb), expected_ab + expected_ba);
    EXPECT_EQ(symmetric_mismatch(cb, ca), expected_ab + expected_ba);
  }
}

TEST(CompactGraph, RoundTripsLabelsAndProps) {
  PropertyGraph g;
  g.add_node("a", "Process", {{"pid", "42"}, {"name", "sh"}});
  g.add_node("b", "Artifact", {{"path", "/tmp/x"}});
  g.add_edge("e", "a", "b", "Used", {{"op", "read"}});
  SymbolTable table;
  CompactGraph cg = CompactGraph::build(view_of(g), table);
  EXPECT_FALSE(cg.has_properties());
  cg.intern_properties(view_of(g), table);
  ASSERT_TRUE(cg.has_properties());

  ASSERT_EQ(cg.node_count(), 2u);
  ASSERT_EQ(cg.edge_count(), 1u);
  EXPECT_EQ(table.resolve(cg.node_label[0]), "Process");
  EXPECT_EQ(table.resolve(cg.node_label[1]), "Artifact");
  EXPECT_EQ(table.resolve(cg.edge_label[0]), "Used");
  EXPECT_EQ(cg.edge_src[0], 0u);
  EXPECT_EQ(cg.edge_tgt[0], 1u);

  ASSERT_EQ(cg.node_props(0).size(), 2u);
  std::set<std::pair<std::string, std::string>> round_trip;
  for (const auto& [k, v] : cg.node_props(0)) {
    round_trip.insert({table.resolve(k), table.resolve(v)});
  }
  EXPECT_EQ(round_trip,
            (std::set<std::pair<std::string, std::string>>{
                {"pid", "42"}, {"name", "sh"}}));
  // Props must be sorted by key symbol for the merge costs.
  for (std::uint32_t v = 0; v < cg.node_count(); ++v) {
    EXPECT_TRUE(std::is_sorted(cg.node_props(v).begin(),
                               cg.node_props(v).end()));
  }
  ASSERT_EQ(cg.edge_props(0).size(), 1u);
  EXPECT_EQ(table.resolve(cg.edge_props(0)[0].first), "op");
  EXPECT_EQ(table.resolve(cg.edge_props(0)[0].second), "read");
  // A second call is a no-op.
  cg.intern_properties(view_of(g), table);
  EXPECT_EQ(cg.props.size(), 4u);
}

TEST(CompactGraph, CsrMatchesNaiveAdjacencyOnRandomGraphs) {
  for (int seed = 0; seed < 20; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) * 17 + 1);
    PropertyGraph g = random_graph(2 + seed % 8, seed % 12, rng);
    SymbolTable table;
    CompactGraph cg = CompactGraph::build(view_of(g), table);

    for (std::uint32_t v = 0; v < cg.node_count(); ++v) {
      const Id& id = g.nodes()[v].id;
      std::uint32_t naive_out_degree = 0, naive_in_degree = 0;
      for (const Edge& e : g.edges()) {
        naive_out_degree += e.src == id ? 1 : 0;
        naive_in_degree += e.tgt == id ? 1 : 0;
      }
      EXPECT_EQ(cg.out_degree(v), naive_out_degree) << "seed " << seed;
      EXPECT_EQ(cg.in_degree(v), naive_in_degree) << "seed " << seed;

      // The CSR rows must contain exactly the incident edge indices.
      std::multiset<std::string> csr_out, naive_out;
      for (std::uint32_t k = cg.out_offsets[v]; k < cg.out_offsets[v + 1];
           ++k) {
        csr_out.insert(g.edges()[cg.out_edges[k]].id);
      }
      for (const Edge& e : g.edges()) {
        if (e.src == id) naive_out.insert(e.id);
      }
      EXPECT_EQ(csr_out, naive_out) << "seed " << seed;

      std::multiset<std::string> csr_in, naive_in;
      for (std::uint32_t k = cg.in_offsets[v]; k < cg.in_offsets[v + 1];
           ++k) {
        csr_in.insert(g.edges()[cg.in_edges[k]].id);
      }
      for (const Edge& e : g.edges()) {
        if (e.tgt == id) naive_in.insert(e.id);
      }
      EXPECT_EQ(csr_in, naive_in) << "seed " << seed;
    }

    // Label buckets partition the nodes, each ascending.
    std::size_t bucketed = 0;
    for (Symbol label : cg.bucket_label) {
      std::span<const std::uint32_t> bucket = cg.label_bucket(label);
      EXPECT_TRUE(std::is_sorted(bucket.begin(), bucket.end()));
      for (std::uint32_t v : bucket) {
        EXPECT_EQ(cg.node_label[v], label);
      }
      bucketed += bucket.size();
    }
    EXPECT_EQ(bucketed, cg.node_count());
    EXPECT_TRUE(cg.label_bucket(table.intern("no such label")).empty());
  }
}

TEST(CompactGraph, SharedTableMakesSymbolsComparable) {
  PropertyGraph g1, g2;
  g1.add_node("a", "Process");
  g2.add_node("z", "Process");
  SymbolTable table;
  CompactGraph c1 = CompactGraph::build(view_of(g1), table);
  CompactGraph c2 = CompactGraph::build(view_of(g2), table);
  EXPECT_EQ(c1.node_label[0], c2.node_label[0]);
}

TEST(CompactWl, MatchesStringWlColours) {
  for (int seed = 0; seed < 20; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) * 31 + 5);
    PropertyGraph g = random_graph(2 + seed % 7, seed % 10, rng);
    SymbolTable table;
    CompactGraph cg = CompactGraph::build(view_of(g), table);
    for (int rounds : {0, 1, 2, 3}) {
      std::vector<std::uint64_t> compact = compact_wl_colours(cg, rounds);
      std::map<Id, std::uint64_t> reference = wl_colours(g, rounds);
      ASSERT_EQ(compact.size(), reference.size());
      for (std::size_t i = 0; i < g.nodes().size(); ++i) {
        EXPECT_EQ(compact[i], reference.at(g.nodes()[i].id))
            << "seed " << seed << " rounds " << rounds;
      }
    }
  }
}

TEST(CompactGraph, EmptyGraph) {
  PropertyGraph g;
  SymbolTable table;
  CompactGraph cg = CompactGraph::build(view_of(g), table);
  EXPECT_EQ(cg.node_count(), 0u);
  EXPECT_EQ(cg.edge_count(), 0u);
  EXPECT_TRUE(cg.bucket_label.empty());
  cg.intern_properties(view_of(g), table);
  EXPECT_TRUE(cg.has_properties());
}

TEST(CompactGraph, SelfLoopCountsBothDirections) {
  PropertyGraph g;
  g.add_node("a", "X");
  g.add_edge("e", "a", "a", "self");
  SymbolTable table;
  CompactGraph cg = CompactGraph::build(view_of(g), table);
  EXPECT_EQ(cg.out_degree(0), 1u);
  EXPECT_EQ(cg.in_degree(0), 1u);
}

}  // namespace
}  // namespace provmark::graph
